"""The mapInPandas flat-statistics aggregation layer and the shared training
loop ``fit`` (core/aggregate.py)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.aggregate import StatLayout, aggregate_partitions, fit
from repro.core.params import NNParams, init_nn
from repro.data.normalized import to_spark


@pytest.fixture(scope="module")
def df(spark):
    pdf = pd.DataFrame({"a": np.arange(1000, dtype=np.float64), "b": np.ones(1000)})
    return to_spark(spark, pdf).repartition(8).cache()


def test_sum_across_partitions(spark, df):
    layout = StatLayout({"sum_a": (), "sum_b": (), "count": ()})

    def batch_fn(pdf):
        return layout.pack(
            {"sum_a": pdf["a"].sum(), "sum_b": pdf["b"].sum(), "count": float(len(pdf))}
        )

    out = layout.unpack(aggregate_partitions(df, batch_fn, layout.size))
    assert out["sum_a"] == pytest.approx(999 * 1000 / 2)
    assert out["sum_b"] == pytest.approx(1000.0)
    assert out["count"] == pytest.approx(1000.0)


def test_vector_stats_match_local(spark, df):
    layout = StatLayout({"m": (2, 2)})

    def batch_fn(pdf):
        x = pdf[["a", "b"]].to_numpy()
        return layout.pack({"m": x.T @ x})

    out = layout.unpack(aggregate_partitions(df, batch_fn, layout.size))
    pdf = df.toPandas()
    x = pdf[["a", "b"]].to_numpy()
    np.testing.assert_allclose(out["m"], x.T @ x, rtol=1e-12)


def test_empty_dataframe_returns_zeros(spark):
    pdf = pd.DataFrame({"a": np.array([], dtype=np.float64)})
    empty = spark.createDataFrame(pdf, schema="a double")
    layout = StatLayout({"s": ()})
    out = aggregate_partitions(empty, lambda p: layout.pack({"s": p["a"].sum()}), layout.size)
    np.testing.assert_array_equal(out, [0.0])


def test_partitioning_invariance(spark):
    """The reduction must not depend on how rows land in partitions."""
    pdf = pd.DataFrame({"a": np.random.default_rng(0).normal(size=500)})
    layout = StatLayout({"s": (), "ss": ()})

    def batch_fn(p):
        return layout.pack({"s": p["a"].sum(), "ss": (p["a"] ** 2).sum()})

    outs = []
    for nparts in (1, 3, 16):
        d = to_spark(spark, pdf).repartition(nparts)
        outs.append(aggregate_partitions(d, batch_fn, layout.size))
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9)
    np.testing.assert_allclose(outs[0], outs[2], rtol=1e-9)


# ---------------------------------------------------------------------------
# fit: the training loop shared by every M/S/F trainer (no Spark involved)
# ---------------------------------------------------------------------------


def _counting_step(metrics):
    """A step whose metric is ``metrics[b2]`` and which increments ``b2``."""

    def step(p):
        return metrics[int(p.b2)], NNParams(p.w1, p.b1, p.w2, p.b2 + 1.0)

    return step


def test_fit_tol_stops_at_first_small_change():
    metrics = [0.0, 10.0, 15.0, 17.0, 17.5, 17.6, 17.65]
    res = fit(init_nn(2, 3, 0), _counting_step(metrics), 6, tol=1.0)
    assert res.history == [0.0, 10.0, 15.0, 17.0, 17.5]
    assert res.params.b2 == 5.0


def test_fit_without_tol_runs_every_iteration():
    res = fit(init_nn(2, 3, 0), _counting_step([3.0, 3.0, 3.0]), 3)
    assert res.history == [3.0, 3.0, 3.0]


def test_fit_zero_iters_returns_copy_of_init():
    init = init_nn(2, 3, 0)
    res = fit(init, _counting_step([]), 0, tol=1.0, materialize_s=0.25)
    assert res.history == []
    assert res.params is not init and res.params.w1 is not init.w1
    np.testing.assert_array_equal(res.params.w1, init.w1)
    assert res.timings["materialize"] == 0.25


def test_fit_timings_add_up():
    res = fit(init_nn(2, 3, 0), _counting_step([1.0, 2.0]), 2, materialize_s=1.5)
    t = res.timings
    assert t["materialize"] == 1.5
    assert t["train"] > 0
    assert t["total"] == t["materialize"] + t["train"]
