"""F-GMM: factorized EM over the normalized relations (the contribution).

No join is ever executed. The dimension tables are collected once into dense
NumPy matrices and broadcast to the executors; every EM iteration then:

1. (driver) derives the per-R-tuple reusable terms of Eq. 7-12 / 19-21 —
   each computed **once per R tuple** per iteration — and ships them with
   the pass;
2. (one ``mapInArrow`` pass over only the fact table S) evaluates the E-step
   via the factorized quadratic form and accumulates the factorized
   sufficient statistics, including the per-FK aggregates;
3. (driver) reconstitutes the full-d moments with one small matmul per
   scatter block (each R tuple entering once) and runs the shared M-step.

Step 3's reconstitution runs in each batch of step 2 instead, over the R
tuples the batch references, when that makes the smaller task result
(``factorized_return``): a task then returns O(K d^2) floats, as M's and S's
do, and the driver only copies the moments out.

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
from repro.core.relational import collect_dimension_tables, fact_input
from repro.data.normalized import fk_cols, infer_dims
from repro.gmm.suffstats import (
    assemble_moments,
    factorized_return,
    gmm_payload,
    make_factorized_batch_fn,
)


def train_f_gmm(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs: list[DataFrame],
    *,
    init: GMMParams,
    iters: int = 10,
    tol: float | None = None,
) -> TrainResult:
    """Train a GMM fully factorized over S and R1..Rq (algorithm F-GMM)."""
    d_s, d_rs = infer_dims(s_df, r_dfs)
    q = len(r_dfs)
    xrs = collect_dimension_tables(r_dfs, d_rs)
    fks = fk_cols(q)
    s_in = fact_input(s_df, d_s, q, [])

    # The smaller per-task vector: full-d moments, or per-R-tuple sums that
    # the driver finishes against driver_xrs.
    layout, driver_xrs = factorized_return(init.k, d_s, xrs)
    # Ship the dimension matrices to executors once, not per iteration.
    bc_xrs = spark.sparkContext.broadcast(xrs)

    def step(params):
        payload = gmm_payload(params)
        # Per-R-tuple terms: the "compute once, reuse rr times" step.
        terms = MultiwayTerms(xrs, params.mu, payload["prec"], [d_s, *d_rs])
        batch_fn = _make_batch_fn(payload, terms, bc_xrs, fks, layout)
        stats = layout.unpack(aggregate_partitions(s_in, batch_fn, layout.size))
        nk, sx, sxx, ll = assemble_moments(stats, driver_xrs)
        return ll, mstep_from_moments(nk, sx, sxx)

    try:
        return fit(init, step, iters, tol=tol)
    finally:
        bc_xrs.unpersist()


def _make_batch_fn(payload, terms, bc_xrs, fks, layout):
    """Defer the broadcast lookup to the executor side of the closure."""

    def batch_fn(batch):
        return make_factorized_batch_fn(payload, terms, bc_xrs.value, fks, layout)(batch)

    return batch_fn
