"""M-GMM: materialize the join, then train over the stored wide table.

The paper's Algorithm 1: compute ``T = S join R1 ... Rq``, store it (here:
Parquet on local disk, the Spark analogue of "materialize the table in the
database"), then run EM re-reading the wide table every pass. Pays the join
once plus ``|T|`` of storage and a wide scan per pass. The per-tuple math is
the unfactorized form: F-GMM's kernel with no attribute table (q = 0) on ``T``.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.em_ref import mstep_from_moments
from repro.core.params import GMMParams, TrainResult
from repro.core.relational import as_list, denormalize, infer_dims, joined_feature_cols
from repro.gmm.suffstats import (
    assemble_moments,
    factorized_layout,
    gmm_payload,
    make_factorized_batch_fn,
)


def train_m_gmm(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs,
    *,
    init: GMMParams,
    iters: int = 10,
    tmpdir: str,
    tol: float | None = None,
) -> TrainResult:
    """Train a GMM via materialized denormalization (baseline M-GMM)."""
    r_dfs = as_list(r_dfs)
    d_s, d_rs = infer_dims(s_df, r_dfs)
    feat_cols = joined_feature_cols(d_s, d_rs)
    path = f"{tmpdir}/m_gmm_T.parquet"

    t0 = time.perf_counter()
    denormalize(s_df, r_dfs).write.mode("overwrite").parquet(path)
    t_mat = time.perf_counter() - t0

    layout = factorized_layout(init.k, init.d, [], [])
    n_total = None

    def step(params):
        nonlocal n_total
        # Re-read the wide materialized table every pass, as Algorithm 1 does.
        t_df = spark.read.parquet(path).select(*feat_cols)
        batch_fn = make_factorized_batch_fn(gmm_payload(params), None, [], feat_cols, [], layout)
        stats = layout.unpack(aggregate_partitions(t_df, batch_fn, layout.size))
        nk, sx, sxx, ll = assemble_moments(stats, [])
        if n_total is None:
            n_total = float(nk.sum())
        return ll, mstep_from_moments(nk, sx, sxx, n_total)

    return fit(init, step, iters, tol=tol, materialize_s=t_mat)
