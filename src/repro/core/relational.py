"""DataFrame-side relational helpers shared by every trainer.

Every helper takes the attribute tables as a list ``[R_1..R_q]`` (``[R]`` for
the binary join) and their widths from ``repro.data.normalized.infer_dims``,
the one reader of the column convention. Here: the canonical Catalyst
equi-join producing the denormalized view ``T`` (used by M-* and S-*), and,
for F-*, collection of the dimension tables into broadcast-ready NumPy
matrices plus the decoding of fact-table FKs into rows of those matrices.

This is also the one module that knows the *pass input* format. A training
pass reads one packed ``array<double>`` column ``x`` instead of one column
per feature: ``T(y?, x)`` with ``x = [x_S | x_R1 | ...]`` for M-* and S-*
(``joined_input``), ``S(y?, x, fk_1..fk_q)`` with ``x = x_S`` for F-*
(``fact_input``). A batch function reads ``x`` back as one (rows, d) matrix
without a copy (``features``) and its scalar columns with ``column``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.params import NO_ROWS
from repro.data.normalized import fk_cols, infer_dims, r_feature_cols, s_feature_cols

X = "x"  # the packed feature column of every pass input


def joined_feature_cols(d_s: int, d_rs: list[int]) -> list[str]:
    """Feature columns of T in the canonical [x_S | x_R1 | ...] order."""
    cols = s_feature_cols(d_s)
    for t, d_r in enumerate(d_rs, start=1):
        cols += r_feature_cols(d_r, t)
    return cols


def denormalize(
    s_df: DataFrame, r_dfs: list[DataFrame], extra_cols: list[str] = ()
) -> DataFrame:
    """The projected equi-join ``T`` of Section IV as a Catalyst plan.

    ``T(sid, [extra,] x_S, x_R1, ..., x_Rq)`` via q PK/FK inner joins. The
    caller decides whether to materialize it (M-*) or re-execute it per pass
    (S-*). Broadcast joins are disabled session-wide, so this is a genuine
    shuffle join each time the plan runs.
    """
    d_s, d_rs = infer_dims(s_df, r_dfs)
    t = s_df
    for i, r in enumerate(r_dfs, start=1):
        r = r.withColumnRenamed("rid", f"_rid_{i}")
        t = t.join(r, t[f"fk_{i}"] == r[f"_rid_{i}"], "inner")
    return t.select("sid", *extra_cols, *joined_feature_cols(d_s, d_rs))


def joined_input(s_df: DataFrame, r_dfs: list[DataFrame], extra_cols: list[str]) -> DataFrame:
    """M-*/S-* pass input ``T(extra, x)``: ``denormalize`` with x packed."""
    d_s, d_rs = infer_dims(s_df, r_dfs)
    t = denormalize(s_df, r_dfs, extra_cols)
    return t.select(*extra_cols, _packed(joined_feature_cols(d_s, d_rs)))


def fact_input(s_df: DataFrame, d_s: int, q: int, extra_cols: list[str]) -> DataFrame:
    """F-* pass input ``S(extra, x, fk_1..fk_q)``: no join, no x_R, x = x_S."""
    return s_df.select(*extra_cols, _packed(s_feature_cols(d_s)), *fk_cols(q))


def _packed(cols: list[str]):
    """``x = array<double>(cols)``; the cast is a no-op on double columns."""
    return F.array(*cols).cast("array<double>").alias(X)


def features(batch, d: int) -> np.ndarray:
    """The packed ``x`` of a pass batch as a (rows, d) float64 matrix.

    A ``pyarrow.RecordBatch`` (what a pass sees) is read without a copy. A
    pandas frame (``toPandas()`` of a pass input) holds one array per row,
    which are stacked. ``d`` is the width the caller holds, so a column of
    another width raises instead of being reshaped. A NULL feature raises
    ``ValueError`` naming its position in ``x``.
    """
    col = batch[X]
    if isinstance(batch, pd.DataFrame):
        return np.stack(col.to_numpy()).reshape(len(col), d)
    flat = col.flatten()
    if flat.null_count:
        j = int(np.flatnonzero(flat.is_null().to_numpy(zero_copy_only=False))[0]) % d
        raise ValueError(f"feature {X}[{j}] is NULL: NULL features are not supported")
    return flat.to_numpy().reshape(len(col), d)


def column(batch, name: str, dtype) -> np.ndarray:
    """Scalar column ``name`` of a pass batch (Arrow or pandas) as a 1-D array.

    A NULL in an Arrow batch raises ``ValueError`` naming the column.
    """
    col = batch[name]
    if not isinstance(batch, pd.DataFrame) and col.null_count:
        raise ValueError(f"{name} is NULL in {col.null_count} row(s)")
    return np.asarray(col, dtype=dtype)


def collect_dimension_tables(r_dfs: list[DataFrame], d_rs: list[int]) -> list[np.ndarray]:
    """Collect each R_i to a dense (nRi, dRi) matrix ordered by rid.

    ``d_rs`` are the widths ``infer_dims`` read, which the caller holds.

    Requires rid to be the contiguous range 1..nR (generator invariant), so
    row ``r`` of the matrix is the tuple with ``rid = r + 1`` and F-* trainers
    resolve the FK by array indexing instead of a join. Raises ``ValueError``
    naming the table otherwise, since indexing by ``fk - 1`` would then read
    the wrong R rows, and for a NULL feature, which M-* and S-* reject in
    ``features`` (a NaN value is not NULL and passes through). An empty R_i
    raises the ``NO_ROWS`` error M-* and S-* raise for their then empty join,
    here on the driver before any pass.
    """
    out = []
    for t, (r, d_r) in enumerate(zip(r_dfs, d_rs), start=1):
        cols = r_feature_cols(d_r, t)
        tbl = r.toArrow().sort_by("rid")
        if len(tbl) == 0:  # no fact tuple joins: M's and S's join is empty too
            raise ValueError(NO_ROWS)
        if not np.array_equal(tbl["rid"].to_numpy(), np.arange(1, len(tbl) + 1)):
            raise ValueError(f"R{t}: rid must be the contiguous range 1..{len(tbl)}")
        for c in cols:
            if tbl[c].null_count:
                raise ValueError(f"R{t}: feature {c} is NULL: NULL features are not supported")
        # Column-major, one contiguous run per feature: BLAS sums the driver's
        # per-R-tuple terms in an order that depends on the layout.
        out.append(np.array([tbl[c].to_numpy() for c in cols], dtype=np.float64).T)
    return out


def fk_rows(batch, fk_names: list[str], n_rs: list[int]) -> list[np.ndarray]:
    """Each FK column of a fact-table batch as 0-based rows of its R matrix.

    The other half of ``collect_dimension_tables``'s convention: ``fk = r``
    is row ``r - 1``. An FK outside ``1..nR`` has no R tuple; indexing with
    it would wrap (``fk = 0`` reads the last row) or fail without naming the
    column, so it raises ``ValueError`` naming the column and the range.
    """
    rows = []
    for name, n_r in zip(fk_names, n_rs):
        idx = column(batch, name, np.int64) - 1
        bad = idx[(idx < 0) | (idx >= n_r)]
        if len(bad):
            raise ValueError(f"{name}={bad[0] + 1} has no R tuple: FKs must lie in 1..{n_r}")
        rows.append(idx)
    return rows


def distinct_rows(fk_idx: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each FK row vector of a batch as its distinct R rows and positions.

    Returns ``(uniq, pos)``, one array each per attribute table, with
    ``idx == uniq[pos]``. An F batch sums its per-FK terms over the
    ``len(uniq)`` rows it references, which the batch size bounds, instead of
    over all nR rows of the table.
    """
    pairs = [np.unique(idx, return_inverse=True) for idx in fk_idx]
    return [u for u, _ in pairs], [pos for _, pos in pairs]
