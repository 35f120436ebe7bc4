"""The mapInArrow flat-statistics aggregation layer and the shared training
loop ``fit`` (core/aggregate.py). Batch functions receive Arrow record batches."""
import zipfile
import zipimport
from unittest import mock

import numpy as np
import pandas as pd
import pytest

from repro.core.aggregate import (
    _STAT_CHECKED,
    StatLayout,
    _reread_changed_zips_only,
    aggregate_partitions,
    fit,
)
from repro.core.params import NNParams, init_nn


@pytest.fixture(scope="module")
def df(spark):
    pdf = pd.DataFrame({"a": np.arange(1000, dtype=np.float64), "b": np.ones(1000)})
    return spark.createDataFrame(pdf).repartition(8).cache()


def test_sum_across_partitions(spark, df):
    layout = StatLayout({"sum_a": (), "sum_b": (), "count": ()})

    def batch_fn(b):
        return layout.pack(
            {
                "sum_a": np.asarray(b["a"]).sum(),
                "sum_b": np.asarray(b["b"]).sum(),
                "count": float(b.num_rows),
            }
        )

    out = layout.unpack(aggregate_partitions(df, batch_fn, layout.size))
    assert out["sum_a"] == pytest.approx(999 * 1000 / 2)
    assert out["sum_b"] == pytest.approx(1000.0)
    assert out["count"] == pytest.approx(1000.0)


def test_vector_stats_match_local(spark, df):
    layout = StatLayout({"m": (2, 2)})

    def batch_fn(b):
        x = np.column_stack([np.asarray(b["a"]), np.asarray(b["b"])])
        return layout.pack({"m": x.T @ x})

    out = layout.unpack(aggregate_partitions(df, batch_fn, layout.size))
    pdf = df.toPandas()
    x = pdf[["a", "b"]].to_numpy()
    np.testing.assert_allclose(out["m"], x.T @ x, rtol=1e-12)


def test_empty_dataframe_returns_zeros(spark):
    pdf = pd.DataFrame({"a": np.array([], dtype=np.float64)})
    empty = spark.createDataFrame(pdf, schema="a double")
    layout = StatLayout({"s": ()})
    out = aggregate_partitions(
        empty, lambda b: layout.pack({"s": np.asarray(b["a"]).sum()}), layout.size
    )
    np.testing.assert_array_equal(out, [0.0])


def test_partitioning_invariance(spark):
    """The reduction must not depend on how rows land in partitions."""
    pdf = pd.DataFrame({"a": np.random.default_rng(0).normal(size=500)})
    layout = StatLayout({"s": (), "ss": ()})

    def batch_fn(b):
        a = np.asarray(b["a"])
        return layout.pack({"s": a.sum(), "ss": (a**2).sum()})

    outs = []
    for nparts in (1, 3, 16):
        d = spark.createDataFrame(pdf).repartition(nparts)
        outs.append(aggregate_partitions(d, batch_fn, layout.size))
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9)
    np.testing.assert_allclose(outs[0], outs[2], rtol=1e-9)


def test_every_task_runs_with_the_zip_hook_and_the_driver_without(spark, df):
    """The hook is installed by each task in its worker process, never on the driver."""

    def batch_fn(b):
        return np.array([float(getattr(zipimport.zipimporter, _STAT_CHECKED, False)), 1.0])

    hooked, batches = aggregate_partitions(df, batch_fn, 2)
    assert batches >= 8
    assert hooked == batches
    assert not hasattr(zipimport.zipimporter, _STAT_CHECKED)


# ---------------------------------------------------------------------------
# _reread_changed_zips_only, in this process (no Spark)
# ---------------------------------------------------------------------------


@pytest.fixture
def zip_hook():
    """Install the hook for one test; restore ``zipimporter`` afterwards."""
    cls = zipimport.zipimporter
    original = cls.invalidate_caches
    _reread_changed_zips_only()
    yield
    cls.invalidate_caches = original
    delattr(cls, _STAT_CHECKED)


def _write_zip(path, *modules):
    with zipfile.ZipFile(path, "w") as zf:
        for name in modules:
            zf.writestr(f"{name}.py", f"NAME = {name!r}\n")


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "mods.zip"
    _write_zip(path, "mod_a")
    return path, zipimport.zipimporter(str(path))


def _reads():
    return mock.patch("zipimport._read_directory", wraps=zipimport._read_directory)


def test_zip_hook_skips_an_unchanged_archive(zip_hook, archive):
    _, imp = archive
    with _reads() as read:
        for _ in range(5):
            imp.invalidate_caches()
    assert read.call_count == 1  # the first call has no stamp yet
    assert imp.find_spec("mod_a") is not None


def test_zip_hook_rereads_a_changed_archive(zip_hook, archive):
    path, imp = archive
    imp.invalidate_caches()
    _write_zip(path, "mod_a", "mod_b")
    with _reads() as read:
        imp.invalidate_caches()
        imp.invalidate_caches()
    assert read.call_count == 1
    assert imp.find_spec("mod_b") is not None


def test_zip_hook_installs_once(zip_hook, archive):
    _, imp = archive
    hooked = zipimport.zipimporter.invalidate_caches
    _reread_changed_zips_only()
    assert zipimport.zipimporter.invalidate_caches is hooked
    with _reads() as read:
        imp.invalidate_caches()
        imp.invalidate_caches()
    assert read.call_count == 1


def test_zip_hook_falls_back_for_a_deleted_archive(zip_hook, archive):
    path, imp = archive
    imp.invalidate_caches()
    path.unlink()
    with _reads() as read:
        imp.invalidate_caches()
        imp.invalidate_caches()
    assert read.call_count == 2  # the original re-read, each time
    assert imp.find_spec("mod_a") is None


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


def test_fit_names_the_iteration_of_a_linalg_error():
    def step(p):
        if p.b2 == 2.0:
            raise np.linalg.LinAlgError("component 1: covariance not positive definite")
        return 0.0, NNParams(p.w1, p.b1, p.w2, p.b2 + 1.0)

    with pytest.raises(
        np.linalg.LinAlgError, match="^iteration 2: component 1: covariance not positive definite$"
    ):
        fit(init_nn(2, 3, 0), step, 5)


def test_fit_zero_iters_returns_copy_of_init():
    init = init_nn(2, 3, 0)
    res = fit(init, _counting_step([]), 0, tol=1.0)
    assert res.history == []
    assert res.params is not init and res.params.w1 is not init.w1
    np.testing.assert_array_equal(res.params.w1, init.w1)
