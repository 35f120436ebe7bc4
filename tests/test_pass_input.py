"""The pass input format: one packed ``x`` column per pass, read without a copy.

``repro.core.relational`` owns the format: M/S passes read ``T(y?, x)``, F
passes read ``S(y?, x, fk_1..fk_q)``, and each batch function reads ``x`` as
one (rows, d) matrix (``features``) and ``y``/``fk_t`` with ``column``. Here:
the reader on hand-built Arrow batches (no Spark), the same batch function on
an Arrow batch and on ``toPandas()`` of the same rows (the traced benchmark
replays the latter), a NULL input failing with a named error on every path,
and each path keeping its defining per-pass cost although its pass input is
planned once per training.
"""
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.bench.harness import make_init, train
from repro.core.relational import collect_dimension_tables, column, features
from repro.data.normalized import multiway_relations_pdf
from repro.gmm import f_gmm, m_gmm, s_gmm
from repro.nn import f_nn, m_nn, s_nn

MODULES = {
    ("GMM", "M"): m_gmm, ("GMM", "S"): s_gmm, ("GMM", "F"): f_gmm,
    ("NN", "M"): m_nn, ("NN", "S"): s_nn, ("NN", "F"): f_nn,
}
TRAINERS = list(MODULES)
IDS = [f"{a}-{m}" for m, a in TRAINERS]


def _packed(values: np.ndarray) -> pa.ListArray:
    return pa.array([list(row) for row in values], type=pa.list_(pa.float64()))


# ---------------------------------------------------------------------------
# The reader (no Spark)
# ---------------------------------------------------------------------------


def test_features_reads_sliced_list_array_without_copy():
    values = np.random.default_rng(0).normal(size=(6, 3))
    batch = pa.RecordBatch.from_arrays([_packed(values).slice(2, 3)], names=["x"])
    out = features(batch, 3)
    np.testing.assert_array_equal(out, values[2:5])
    assert np.shares_memory(out, features(batch, 3))  # a view of the Arrow buffer


def test_features_width_one():
    values = np.arange(4.0).reshape(4, 1)
    batch = pa.RecordBatch.from_arrays([_packed(values)], names=["x"])
    np.testing.assert_array_equal(features(batch, 1), values)


def test_features_width_mismatch_raises():
    batch = pa.RecordBatch.from_arrays([_packed(np.ones((4, 3)))], names=["x"])
    with pytest.raises(ValueError, match="reshape"):
        features(batch, 2)


def test_pandas_fallback_equals_arrow_read():
    values = np.random.default_rng(1).normal(size=(5, 3))
    y = np.arange(5.0)
    batch = pa.RecordBatch.from_arrays([pa.array(y), _packed(values)], names=["y", "x"])
    pdf = pd.DataFrame({"y": y, "x": list(values)})  # what toPandas() returns
    assert np.array_equal(features(pdf, 3), features(batch, 3))
    assert np.array_equal(column(pdf, "y", np.float64), column(batch, "y", np.float64))


def test_null_feature_and_null_scalar_raise_named_errors():
    lists = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, None]], type=pa.list_(pa.float64()))
    batch = pa.RecordBatch.from_arrays(
        [pa.array([1.0, None]), lists.slice(1, 2)], names=["y", "x"]
    )
    with pytest.raises(ValueError, match=r"feature x\[1\] is NULL"):
        features(batch, 2)
    with pytest.raises(ValueError, match="y is NULL in 1 row"):
        column(batch, "y", np.float64)


def test_collect_dimension_tables_rejects_null_but_passes_nan(spark):
    schema = "rid long, xr1_0 double"
    nan = spark.createDataFrame([(1, 0.5), (2, float("nan"))], schema)
    (xr,) = collect_dimension_tables([nan], [1])
    assert xr[0, 0] == 0.5 and np.isnan(xr[1, 0])
    null = spark.createDataFrame([(1, 0.5), (2, None)], schema)
    with pytest.raises(ValueError, match="R1: feature xr1_0 is NULL"):
        collect_dimension_tables([null], [1])


# ---------------------------------------------------------------------------
# The trainers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def relations(spark):
    s_pdf, r_pdfs = multiway_relations_pdf(
        n_s=300, n_rs=[6], d_s=2, d_rs=[2], seed=0, target=True
    )
    return spark.createDataFrame(s_pdf), [spark.createDataFrame(r) for r in r_pdfs]


def _train(spark, model, algo, s_df, r_dfs, tmp_path, iters):
    return train(
        model, algo, spark, s_df, r_dfs,
        init=make_init(model, 4, 2), iters=iters, tmpdir=str(tmp_path),
    )


@pytest.mark.parametrize("model,algo", TRAINERS, ids=IDS)
def test_batch_fn_agrees_on_arrow_and_pandas(spark, relations, tmp_path, model, algo):
    """The traced benchmark replays ``batch_fn(df.limit(n).toPandas())``; it must
    compute what the pass computes from the Arrow batch of the same rows."""
    mod = MODULES[model, algo]
    real = mod.aggregate_partitions
    got = []

    def capture(df, batch_fn, size):
        if not got:
            (batch,) = df.limit(100).toArrow().combine_chunks().to_batches()
            got.append((batch_fn(batch), batch_fn(df.limit(100).toPandas())))
        return real(df, batch_fn, size)

    s_df, r_dfs = relations
    with mock.patch.object(mod, "aggregate_partitions", capture):
        _train(spark, model, algo, s_df, r_dfs, tmp_path, 1)
    ((arrow, pandas),) = got
    assert np.array_equal(arrow, pandas)


S_NULL = r"feature x\[0\] is NULL: NULL features are not supported"
# xr1_1 is x[3] of T = [xs_0, xs_1, xr1_0, xr1_1]; F reads R on the driver.
R_NULL = r"(feature x\[3\]|R1: feature xr1_1) is NULL: NULL features are not supported"


@pytest.mark.parametrize(
    "model,algo,where",
    [(m, a, w) for m, a in TRAINERS for w in ("S", "R")]
    + [("NN", a, "y") for a in ("M", "S", "F")],
)
def test_null_input_fails_with_named_error(spark, relations, tmp_path, model, algo, where):
    """A NULL feature (or NN target) fails the same clear way on M, S and F,
    instead of training to a NaN history."""
    s_df, r_dfs = relations
    if where == "R":
        xr = F.when(F.col("rid") == 3, None).otherwise(F.col("xr1_1"))
        r_dfs = [r_dfs[0].withColumn("xr1_1", xr)]
    else:
        name = "xs_0" if where == "S" else "y"
        s_df = s_df.withColumn(name, F.when(F.col("sid") == 8, None).otherwise(F.col(name)))
    match = {"S": S_NULL, "R": R_NULL, "y": "y is NULL in 1 row"}[where]
    with pytest.raises((ValueError, PythonException), match=match):
        _train(spark, model, algo, s_df, r_dfs, tmp_path, 1)


def _scala(seq) -> list:
    return [seq.apply(i) for i in range(seq.size())]


def _passes(spark, model, algo, relations, tmp_path) -> list[tuple[list[int], list]]:
    """Train ``algo`` for 2 passes, each in its own job group; returns each
    pass's job ids and the data of their stages."""
    sc = spark.sparkContext
    mod = MODULES[model, algo]
    real = mod.aggregate_partitions
    groups = []

    def tagged(df, batch_fn, size):
        groups.append(f"pass-cost-{mod.__name__}-{len(groups)}")
        sc.setJobGroup(groups[-1], "one training pass")
        return real(df, batch_fn, size)

    s_df, r_dfs = relations
    try:
        with mock.patch.object(mod, "aggregate_partitions", tagged):
            _train(spark, model, algo, s_df, r_dfs, tmp_path, 2)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    store, tracker = sc._jsc.sc().statusStore(), sc.statusTracker()
    out = []
    for g in groups:
        jobs = tracker.getJobIdsForGroup(g)
        stages = [store.lastStageAttempt(s) for j in jobs for s in tracker.getJobInfo(j).stageIds]
        out.append((jobs, stages))
    assert len(out) == 2
    return out


@pytest.mark.parametrize("model", ["GMM", "NN"])
def test_s_reruns_both_join_shuffles_every_pass(spark, relations, tmp_path, model):
    """S plans the join once, yet every pass writes both shuffle sides again:
    caching the join would leave later passes without these stages."""
    for _, stages in _passes(spark, model, "S", relations, tmp_path):
        writes = [st for st in stages if str(st.status()) == "COMPLETE" and st.shuffleWriteBytes() > 0]
        assert len(writes) == 2  # the S side and the R side of the q = 1 join


@pytest.mark.parametrize("model", ["GMM", "NN"])
def test_m_rescans_parquet_every_pass(spark, relations, tmp_path, model):
    """M plans its Parquet read once, yet every pass reads the files again:
    caching T would leave later passes reading no file (a cached read still
    counts input bytes, so the file count is what tells them apart)."""
    sql = spark._jsparkSession.sharedState().statusStore()
    passes = _passes(spark, model, "M", relations, tmp_path)
    executions = _scala(sql.executionsList())
    for jobs, stages in passes:
        assert any(str(st.status()) == "COMPLETE" and st.inputBytes() > 0 for st in stages)
        (ex,) = [e for e in executions if any(e.jobs().contains(j) for j in jobs)]
        names = {m.accumulatorId(): m.name() for m in _scala(ex.metrics())}
        values = sql.executionMetrics(ex.executionId())
        files = [values.get(acc) for acc, n in names.items() if n == "number of files read"]
        assert files and all(not v.isEmpty() and int(v.get()) > 0 for v in files)
