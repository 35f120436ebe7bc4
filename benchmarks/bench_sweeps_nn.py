"""Fig. 5 sweeps as benchmarks: NN binary-join, vary rr / dR / nh.

The ``FIG5`` list that ``fig5_rows`` also runs (see bench/tables.py). Paper
findings to reproduce (Section VII-C2): F-NN fastest with the gap growing in
rr, dR and nh; for very small rr F-NN may not win (the crossover around
rr~50-200 depending on dR).
"""
import pytest

from repro.bench.harness import ALGOS, make_init, train
from repro.bench.tables import FIG5, SWEEP_ITERS


@pytest.mark.parametrize(
    "relations", FIG5, ids=[c.name for c in FIG5], indirect=True, scope="module"
)
@pytest.mark.parametrize("algo", ALGOS)
def test_fig5_sweep(benchmark, relations, algo, spark, tmp_path):
    cfg, s_df, r_dfs = relations
    benchmark.extra_info["config"] = cfg.name
    res = benchmark.pedantic(
        train,
        args=("NN", algo, spark, s_df, r_dfs),
        kwargs=dict(
            init=make_init("NN", cfg.spec.d, cfg.size),
            iters=SWEEP_ITERS,
            tmpdir=str(tmp_path),
        ),
        rounds=1,
        iterations=1,
    )
    assert len(res.history) == SWEEP_ITERS
