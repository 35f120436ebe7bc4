"""Generic flat-statistics aggregation over a Spark DataFrame.

Every trainer in this repo is an iterative loop of the shape

    stats = sum over all rows of batch_stats(rows);  params = update(stats)

where ``stats`` is a fixed collection of named NumPy arrays (sufficient
statistics or gradients). ``StatLayout`` flattens such a collection into one
1-D float64 vector (so partial results add with a single ``+``),
``aggregate_partitions`` runs one ``mapInArrow`` pass that hands each Arrow
batch to a batch function as a ``pyarrow.RecordBatch`` (the trainers read it
with ``repro.core.relational.features``/``column``, so no pandas frame is
built), emits one pickled partial vector per partition and reduces them on
the driver, and
``fit`` is the loop itself, shared by all six M/S/F trainers: each supplies
only a ``step`` that makes one pass and returns the tracked metric and the
updated parameters.

Why one-row-per-partition + driver reduce instead of exploding the vector into
(index, value) rows and ``groupBy().sum()``: the stat vectors are tiny (KBs to
a few MB) while the row explosion would shuffle millions of rows per training
pass and drown the measurement the benchmarks exist to make. The Catalyst
aggregation path is still exercised — and oracle-checked — by the per-FK
``groupBy`` equivalence tests (see tests/test_oracle_relational.py).
"""
from __future__ import annotations

import os
import pickle
import zipimport
from typing import Callable, Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql.types import BinaryType, StructField, StructType

from repro.core.params import TrainResult


class StatLayout:
    """Maps a dict of named ndarray shapes onto one flat float64 vector."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]) -> None:
        self.shapes = dict(shapes)
        self.slices: dict[str, slice] = {}
        off = 0
        for name, shape in self.shapes.items():
            size = int(np.prod(shape)) if shape else 1
            self.slices[name] = slice(off, off + size)
            off += size
        self.size = off

    def pack(self, stats: dict[str, np.ndarray]) -> np.ndarray:
        """Flatten ``stats`` (must cover every declared name) into one vector."""
        out = np.empty(self.size)
        for name, shape in self.shapes.items():
            arr = np.asarray(stats[name], dtype=np.float64)
            if arr.shape != tuple(shape):
                raise ValueError(
                    f"stat {name!r} has shape {arr.shape}, layout declares {tuple(shape)}"
                )
            out[self.slices[name]] = arr.ravel()
        return out

    def unpack(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Inverse of ``pack`` (views reshaped out of the flat vector)."""
        return {
            name: flat[self.slices[name]].reshape(shape)
            for name, shape in self.shapes.items()
        }


def segment_sums(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``out[r, j] = sum of values[i, j] over the rows i with idx[i] == r``.

    The per-FK group-by-sum of the F kernels: ``idx`` holds 0-based R rows,
    ``values`` is (rows, cols) and the result is (n, cols), one
    ``np.bincount`` per column; result rows that no index hits are zero.
    """
    out = np.empty((n, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(idx, weights=values[:, j], minlength=n)
    return out


_SCHEMA = StructType([StructField("stats", BinaryType(), False)])
_STAT_CHECKED = "_repro_stat_checked"  # class marker: the hook below is installed


def _reread_changed_zips_only() -> None:
    """Make ``zipimporter.invalidate_caches`` skip archives that have not changed.

    PySpark's Python worker calls ``importlib.invalidate_caches()`` before every
    task, reused workers included, and each cached ``zipimporter`` then re-reads
    its archive's whole central directory (1,328 entries in PySpark 4.1's
    ``pyspark.zip``); a worker holds one importer per imported sub-package of
    the zip. The replacement re-reads only when the archive's
    ``(st_mtime_ns, st_size, st_ino)`` differs from the last read by that
    importer, so new paths and changed archives are still seen. It falls back
    to the original re-read when ``os.stat`` fails or the importer has no stamp
    yet. Runs in the worker process, once: the marker on the class makes a
    second call a no-op.
    """
    cls = zipimport.zipimporter
    if getattr(cls, _STAT_CHECKED, False):
        return
    reread = cls.invalidate_caches

    def invalidate_caches(self):
        try:
            st = os.stat(self.archive)
            stamp = (st.st_mtime_ns, st.st_size, st.st_ino)
        except OSError:
            stamp = None
        if stamp is None or stamp != getattr(self, "_repro_stamp", None):
            reread(self)
        self._repro_stamp = stamp

    cls.invalidate_caches = invalidate_caches
    setattr(cls, _STAT_CHECKED, True)


def aggregate_partitions(
    df: DataFrame,
    batch_fn: Callable[[pa.RecordBatch], np.ndarray],
    size: int,
) -> np.ndarray:
    """Sum ``batch_fn(arrow_batch)`` over all partitions of ``df``.

    ``batch_fn`` maps a ``pyarrow.RecordBatch`` to a flat float64 vector of
    length ``size`` (build it with ``StatLayout.pack``). Each task accumulates
    its batches locally and emits a single pickled row; the driver unpickles
    and sums. Returns the zero vector for an empty DataFrame. Each task first
    installs ``_reread_changed_zips_only`` in its worker process.
    """

    def mapper(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        _reread_changed_zips_only()
        acc: np.ndarray | None = None
        for batch in batches:
            if batch.num_rows == 0:
                continue
            v = batch_fn(batch)
            acc = v if acc is None else acc + v
        if acc is not None:
            yield pa.RecordBatch.from_pydict({"stats": [pickle.dumps(acc, protocol=4)]})

    rows = df.mapInArrow(mapper, schema=_SCHEMA).collect()
    total = np.zeros(size)
    for row in rows:
        total += pickle.loads(row["stats"])
    return total


def fit(
    init,
    step: Callable[[object], tuple[float, object]],
    iters: int,
    *,
    tol: float | None = None,
) -> TrainResult:
    """Run ``step`` up to ``iters`` times from a copy of ``init``.

    ``step(params) -> (metric, next_params)``; ``metric`` is evaluated at
    ``params`` (GMM: log-likelihood; NN: training loss) and appended to the
    history. With ``tol`` set, the loop stops after the first pass whose
    metric moved by less than ``tol`` from the previous one (Eq. 6). A
    ``LinAlgError`` from ``step`` (a collapsed covariance) is re-raised with
    the 0-based iteration in front of its message.
    """
    params = init.copy()
    history: list[float] = []
    for i in range(iters):
        try:
            metric, params = step(params)
        except np.linalg.LinAlgError as e:
            raise np.linalg.LinAlgError(f"iteration {i}: {e}") from e
        converged = tol is not None and len(history) > 0 and abs(metric - history[-1]) < tol
        history.append(metric)
        if converged:
            break
    return TrainResult(params=params, history=history)
