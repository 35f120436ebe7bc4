"""S-GMM: stream the join — recompute it on the fly every EM pass.

The paper's second baseline: nothing is materialized; each pass re-executes
the PK/FK join (here: the Catalyst shuffle join, rebuilt from the base
DataFrames each iteration so Spark cannot reuse a cached plan or shuffle) and
feeds the wide joined tuples to the *unfactorized* per-tuple math: F-GMM's
kernel with no attribute table (q = 0), as in M-GMM. Same computation cost as
M-GMM, join cost paid ``iters`` times instead of storage + wide re-reads.
"""
from __future__ import annotations

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


def train_s_gmm(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs,
    *,
    init: GMMParams,
    iters: int = 10,
    tol: float | None = None,
) -> TrainResult:
    """Train a GMM with the join computed on the fly each pass (S-GMM)."""
    r_dfs = as_list(r_dfs)
    d_s, d_rs = infer_dims(s_df, r_dfs)
    feat_cols = joined_feature_cols(d_s, d_rs)

    layout = factorized_layout(init.k, init.d, [], [])
    n_total = None

    def step(params):
        nonlocal n_total
        # A fresh join plan per pass: the shuffle executes every iteration.
        t_df = denormalize(s_df, r_dfs).select(*feat_cols)
        batch_fn = make_factorized_batch_fn(gmm_payload(params), None, [], feat_cols, [], layout)
        stats = layout.unpack(aggregate_partitions(t_df, batch_fn, layout.size))
        nk, sx, sxx, ll = assemble_moments(stats, [])
        if n_total is None:
            n_total = float(nk.sum())
        return ll, mstep_from_moments(nk, sx, sxx, n_total)

    return fit(init, step, iters, tol=tol)
