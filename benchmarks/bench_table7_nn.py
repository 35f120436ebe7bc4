"""Table VII: M/S/F-NN runtimes on the simulated sparse datasets.

One pytest-benchmark entry per (dataset, algorithm) of ``TABLE7``, with the
paper's published seconds in ``extra_info`` (see EXPERIMENTS.md).
"""
import pytest

from repro.bench.harness import ALGOS, make_init, train
from repro.bench.tables import PAPER_TABLE7, TABLE7, TABLE_ITERS


@pytest.mark.parametrize(
    "relations",
    TABLE7,
    ids=[c.name.replace(" ", "") for c in TABLE7],
    indirect=True,
    scope="module",
)
@pytest.mark.parametrize("algo", ALGOS)
def test_table7(benchmark, relations, algo, spark, tmp_path):
    cfg, s_df, r_dfs = relations
    benchmark.extra_info["dataset"] = cfg.name
    benchmark.extra_info["paper_seconds"] = PAPER_TABLE7[cfg.name][f"{algo}-NN"]
    res = benchmark.pedantic(
        train,
        args=("NN", algo, spark, s_df, r_dfs),
        kwargs=dict(
            init=make_init("NN", cfg.spec.d, cfg.size),
            iters=TABLE_ITERS,
            tmpdir=str(tmp_path),
        ),
        rounds=1,
        iterations=1,
    )
    assert len(res.history) == TABLE_ITERS
