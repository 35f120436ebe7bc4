"""F-GMM: factorized EM over the normalized relations (the contribution).

No join is ever executed. The dimension tables are collected once into dense
NumPy matrices and broadcast to the executors; every EM iteration then:

1. (driver) derives the per-R-tuple reusable terms of Eq. 7-12 / 19-21 —
   each computed **once per R tuple** per iteration;
2. (one ``mapInPandas`` pass over only the fact table S) evaluates the E-step
   via the factorized quadratic form and accumulates the factorized
   sufficient statistics, including the per-FK aggregates;
3. (driver) reconstitutes the full-d moments with one small matmul per
   scatter block (each R tuple entering once) and runs the shared M-step.

This is the paper's F-GMM expressed as a custom DataFrame aggregation: the
PK/FK "join" degenerates to array indexing into the broadcast dimension
matrices inside the Arrow batches.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.em_ref import mstep_from_moments
from repro.core.linalg import MultiwayTerms
from repro.core.params import GMMParams, TrainResult
from repro.core.relational import as_list, collect_dimension_tables, infer_dims, s_input_cols
from repro.data.normalized import fk_cols, s_feature_cols
from repro.gmm.suffstats import (
    assemble_moments,
    factorized_layout,
    gmm_payload,
    make_factorized_batch_fn,
)


def train_f_gmm(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs,
    *,
    init: GMMParams,
    iters: int = 10,
    tol: float | None = None,
) -> TrainResult:
    """Train a GMM fully factorized over S and R1..Rq (algorithm F-GMM)."""
    r_dfs = as_list(r_dfs)
    d_s, d_rs = infer_dims(s_df, r_dfs)
    q = len(r_dfs)
    xrs = collect_dimension_tables(r_dfs)
    n_rs = [xr.shape[0] for xr in xrs]
    s_cols = s_feature_cols(d_s)
    fks = fk_cols(q)
    s_in = s_df.select(*s_input_cols(d_s, q))

    layout = factorized_layout(init.k, d_s, n_rs, d_rs)
    n_total = None
    # Ship the dimension matrices to executors once, not per iteration.
    bc_xrs = spark.sparkContext.broadcast(xrs)

    def step(params):
        nonlocal n_total
        payload = gmm_payload(params)
        # Per-R-tuple terms: the "compute once, reuse rr times" step.
        terms = MultiwayTerms(xrs, params.mu, payload["prec"], [d_s, *d_rs])
        batch_fn = _make_batch_fn(payload, terms, bc_xrs, s_cols, fks, layout)
        stats = layout.unpack(aggregate_partitions(s_in, batch_fn, layout.size))
        nk, sx, sxx, ll = assemble_moments(stats, xrs)
        if n_total is None:
            n_total = float(nk.sum())
        return ll, mstep_from_moments(nk, sx, sxx, n_total)

    try:
        return fit(init, step, iters, tol=tol)
    finally:
        bc_xrs.unpersist()


def _make_batch_fn(payload, terms, bc_xrs, s_cols, fks, layout):
    """Defer the broadcast lookup to the executor side of the closure."""

    def batch_fn(pdf):
        fn = make_factorized_batch_fn(
            payload, terms, bc_xrs.value, s_cols, fks, layout
        )
        return fn(pdf)

    return batch_fn
