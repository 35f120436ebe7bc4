"""Table VI: M/S/F-GMM runtimes on the simulated real datasets.

One pytest-benchmark entry per (dataset, algorithm) of ``TABLE6``;
``extra_info`` carries the paper's published seconds so the JSON/console
output can be diffed directly against Table VI (see EXPERIMENTS.md). Each
trainer runs once (rounds=1): a 5-iteration EM run is already an aggregate of
many passes, and repeating 24 multi-second trainings would multiply the
suite's cost for no extra signal.
"""
import pytest

from repro.bench.harness import ALGOS, make_init, train
from repro.bench.tables import PAPER_TABLE6, TABLE6, TABLE_ITERS


@pytest.mark.parametrize(
    "relations",
    TABLE6,
    ids=[c.name.replace(" ", "") for c in TABLE6],
    indirect=True,
    scope="module",
)
@pytest.mark.parametrize("algo", ALGOS)
def test_table6(benchmark, relations, algo, spark, tmp_path):
    cfg, s_df, r_dfs = relations
    benchmark.extra_info["dataset"] = cfg.name
    benchmark.extra_info["paper_seconds"] = PAPER_TABLE6[cfg.name][f"{algo}-GMM"]
    res = benchmark.pedantic(
        train,
        args=("GMM", algo, spark, s_df, r_dfs),
        kwargs=dict(
            init=make_init("GMM", cfg.spec.d, cfg.size),
            iters=TABLE_ITERS,
            tmpdir=str(tmp_path),
        ),
        rounds=1,
        iterations=1,
    )
    assert len(res.history) == TABLE_ITERS
