"""DataFrame-side relational helpers shared by every trainer.

Every helper takes the attribute tables as a list ``[R_1..R_q]`` (``[R]`` for
the binary join) and their widths from ``repro.data.normalized.infer_dims``,
the one reader of the column convention. Here: the canonical Catalyst
equi-join producing the denormalized view ``T`` (used by M-* and S-*), and,
for F-*, collection of the dimension tables into broadcast-ready NumPy
matrices plus the decoding of fact-table FKs into rows of those matrices.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.data.normalized import fk_cols, infer_dims, r_feature_cols, s_feature_cols


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


def collect_dimension_tables(r_dfs: list[DataFrame], d_rs: list[int]) -> list[np.ndarray]:
    """Collect each R_i to a dense (nRi, dRi) matrix ordered by rid.

    ``d_rs`` are the widths ``infer_dims`` read, which the caller holds.

    Requires rid to be the contiguous range 1..nR (generator invariant), so
    row ``r`` of the matrix is the tuple with ``rid = r + 1`` and F-* trainers
    resolve the FK by array indexing instead of a join. Raises ``ValueError``
    naming the table otherwise, since indexing by ``fk - 1`` would then read
    the wrong R rows.
    """
    out = []
    for t, (r, d_r) in enumerate(zip(r_dfs, d_rs), start=1):
        pdf = r.toPandas().sort_values("rid").reset_index(drop=True)
        if not np.array_equal(pdf["rid"].to_numpy(), np.arange(1, len(pdf) + 1)):
            raise ValueError(f"R{t}: rid must be the contiguous range 1..{len(pdf)}")
        out.append(pdf[r_feature_cols(d_r, t)].to_numpy(dtype=np.float64))
    return out


def fk_rows(pdf: pd.DataFrame, fk_names: list[str], n_rs: list[int]) -> list[np.ndarray]:
    """Each FK column of a fact-table batch as 0-based rows of its R matrix.

    The other half of ``collect_dimension_tables``'s convention: ``fk = r``
    is row ``r - 1``. An FK outside ``1..nR`` has no R tuple; indexing with
    it would wrap (``fk = 0`` reads the last row) or fail without naming the
    column, so it raises ``ValueError`` naming the column and the range.
    """
    rows = []
    for name, n_r in zip(fk_names, n_rs):
        idx = pdf[name].to_numpy(dtype=np.int64) - 1
        bad = idx[(idx < 0) | (idx >= n_r)]
        if len(bad):
            raise ValueError(f"{name}={bad[0] + 1} has no R tuple: FKs must lie in 1..{n_r}")
        rows.append(idx)
    return rows


def s_input_cols(d_s: int, q: int, extra_cols: list[str] = ()) -> list[str]:
    """Columns F-* actually reads from the fact table (no join, no x_R)."""
    return [*extra_cols, *s_feature_cols(d_s), *fk_cols(q)]
