"""DataFrame-side relational helpers shared by every trainer.

Schema introspection (feature column discovery), the canonical Catalyst
equi-join producing the denormalized view ``T`` (used by M-* and S-*), and
collection of the dimension tables into broadcast-ready NumPy matrices
(used by F-*).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.data.normalized import fk_cols, r_feature_cols, s_feature_cols


def as_list(r_dfs) -> list[DataFrame]:
    return [r_dfs] if isinstance(r_dfs, DataFrame) else list(r_dfs)


def infer_dims(s_df: DataFrame, r_dfs: list[DataFrame]) -> tuple[int, list[int]]:
    """(dS, [dR1..dRq]) from the column-naming convention."""
    d_s = sum(1 for c in s_df.columns if c.startswith("xs_"))
    d_rs = [
        sum(1 for c in r.columns if c.startswith(f"xr{t}_"))
        for t, r in enumerate(r_dfs, start=1)
    ]
    return d_s, d_rs


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


def collect_dimension_tables(r_dfs: list[DataFrame]) -> list[np.ndarray]:
    """Collect each R_i to a dense (nRi, dRi) matrix ordered by rid.

    Requires rid to be the contiguous range 1..nR (generator invariant), so
    row ``r`` of the matrix is the tuple with ``rid = r + 1`` and F-* trainers
    resolve the FK by array indexing instead of a join. Raises ``ValueError``
    naming the table otherwise, since indexing by ``fk - 1`` would then read
    the wrong R rows.
    """
    out = []
    for t, r in enumerate(r_dfs, start=1):
        d_r = sum(1 for c in r.columns if c.startswith(f"xr{t}_"))
        pdf = r.toPandas().sort_values("rid").reset_index(drop=True)
        if not np.array_equal(pdf["rid"].to_numpy(), np.arange(1, len(pdf) + 1)):
            raise ValueError(f"R{t}: rid must be the contiguous range 1..{len(pdf)}")
        out.append(pdf[r_feature_cols(d_r, t)].to_numpy(dtype=np.float64))
    return out


def s_input_cols(d_s: int, q: int, extra_cols: list[str] = ()) -> list[str]:
    """Columns F-* actually reads from the fact table (no join, no x_R)."""
    return [*extra_cols, *s_feature_cols(d_s), *fk_cols(q)]
