"""Generic flat-statistics aggregation over a Spark DataFrame.

Every trainer in this repo is an iterative loop of the shape

    stats = sum over all rows of batch_stats(rows);  params = update(stats)

where ``stats`` is a fixed collection of named NumPy arrays (sufficient
statistics or gradients). ``StatLayout`` flattens such a collection into one
1-D float64 vector (so partial results add with a single ``+``),
``aggregate_partitions`` runs one ``mapInPandas`` pass that emits one
pickled partial vector per partition and reduces them on the driver, and
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

import pickle
import time
from typing import Callable, Iterator

import numpy as np
import pandas as pd
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
            assert arr.shape == tuple(shape), (name, arr.shape, shape)
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


def aggregate_partitions(
    df: DataFrame,
    batch_fn: Callable[[pd.DataFrame], np.ndarray],
    size: int,
) -> np.ndarray:
    """Sum ``batch_fn(arrow_batch)`` over all partitions of ``df``.

    ``batch_fn`` maps a pandas batch to a flat float64 vector of length
    ``size`` (build it with ``StatLayout.pack``). Each task accumulates its
    batches locally and emits a single pickled row; the driver unpickles and
    sums. Returns the zero vector for an empty DataFrame.
    """

    def mapper(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        acc: np.ndarray | None = None
        for pdf in batches:
            if len(pdf) == 0:
                continue
            v = batch_fn(pdf)
            acc = v if acc is None else acc + v
        if acc is not None:
            yield pd.DataFrame({"stats": [pickle.dumps(acc, protocol=4)]})

    rows = df.mapInPandas(mapper, schema=_SCHEMA).collect()
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
    materialize_s: float = 0.0,
) -> TrainResult:
    """Run ``step`` up to ``iters`` times from a copy of ``init``.

    ``step(params) -> (metric, next_params)``; ``metric`` is evaluated at
    ``params`` (GMM: log-likelihood; NN: training loss) and appended to the
    history. With ``tol`` set, the loop stops after the first pass whose
    metric moved by less than ``tol`` from the previous one (Eq. 6).
    ``materialize_s`` is the time the caller spent before the loop (M-*'s
    join + write) and enters ``timings["total"]``.
    """
    params = init.copy()
    history: list[float] = []
    t0 = time.perf_counter()
    for _ in range(iters):
        metric, params = step(params)
        converged = tol is not None and len(history) > 0 and abs(metric - history[-1]) < tol
        history.append(metric)
        if converged:
            break
    t_train = time.perf_counter() - t0
    return TrainResult(
        params=params,
        history=history,
        timings={
            "materialize": materialize_s,
            "train": t_train,
            "total": materialize_s + t_train,
        },
    )
