"""Fig. 3 sweeps as benchmarks: GMM binary-join, vary rr / dR / K.

Scaled synthetic grids on the paper's axes: the ``FIG3`` list that
``fig3_rows`` also runs (see bench/tables.py). The paper's qualitative
findings these rows should reproduce: F-GMM fastest everywhere with the gap
growing in rr, in dR, and in K (Section VII-C1).
"""
import pytest

from repro.bench.harness import ALGOS, make_init, train
from repro.bench.tables import FIG3, SWEEP_ITERS


@pytest.mark.parametrize(
    "relations", FIG3, ids=[c.name for c in FIG3], indirect=True, scope="module"
)
@pytest.mark.parametrize("algo", ALGOS)
def test_fig3_sweep(benchmark, relations, algo, spark, tmp_path):
    cfg, s_df, r_dfs = relations
    benchmark.extra_info["config"] = cfg.name
    res = benchmark.pedantic(
        train,
        args=("GMM", algo, spark, s_df, r_dfs),
        kwargs=dict(
            init=make_init("GMM", cfg.spec.d, cfg.size),
            iters=SWEEP_ITERS,
            tmpdir=str(tmp_path),
        ),
        rounds=1,
        iterations=1,
    )
    assert len(res.history) == SWEEP_ITERS
