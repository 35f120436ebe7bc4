"""F-NN: factorized forward/backward over the normalized relations.

The contribution of Section VI: never join. The dimension tables are
collected once and broadcast. Per epoch, the driver computes the per-R-tuple
layer-1 partial pre-activations ``T2_t = x_Rt W_Rt^T`` once (nR rows of
work) and ships them with the pass; one ``mapInArrow`` pass over only the
fact table S then runs the factorized forward pass (FK lookups into the T2
matrices) and accumulates the factorized gradient statistics — including the
per-FK delta sums, from which each batch finishes ``PG_Rt = d_t^T x_Rt``
(Eq. 29/32) over the R tuples it references. A task so returns the full
gradient sums, as M-NN's and S-NN's do; the wide ``N x d`` feature matrix is
never formed and only ``nS*dS + sum nRt*dRt`` feature fields are ever read
(Section VI-A3's I/O saving).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.nn_ref import ACTIVATIONS, apply_gradients
from repro.core.params import NNParams, TrainResult
from repro.core.relational import (
    collect_dimension_tables,
    column,
    distinct_rows,
    fact_input,
    features,
    fk_rows,
)
from repro.data.normalized import fk_cols, infer_dims
from repro.nn.model import (
    factorized_grad_layout,
    factorized_grad_stats,
    finalize_factorized,
    reuse_terms,
    split_w1,
    w1_sums,
)


def train_f_nn(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs: list[DataFrame],
    *,
    init: NNParams,
    epochs: int = 10,
    lr: float = 0.1,
    activation: str = "sigmoid",
) -> TrainResult:
    """Train the network factorized over S and R1..Rq (algorithm F-NN)."""
    d_s, d_rs = infer_dims(s_df, r_dfs)
    q = len(r_dfs)
    xrs = collect_dimension_tables(r_dfs, d_rs)
    fks = fk_cols(q)
    s_in = fact_input(s_df, d_s, q, ["y"])

    layout = factorized_grad_layout(init.nh, init.d)
    act = ACTIVATIONS[activation]
    # Ship the dimension matrices to executors once, not per epoch.
    bc_xrs = spark.sparkContext.broadcast(xrs)

    def step(p):
        # Once per epoch, once per R tuple: the reused layer-1 partials.
        t2s = reuse_terms(p, xrs, d_s)
        w1s, _ = split_w1(p.w1, d_s, d_rs)
        batch_fn = _make_batch_fn(p, w1s, t2s, act, fks, bc_xrs, layout)
        flat = aggregate_partitions(s_in, batch_fn, layout.size)
        grads, loss = finalize_factorized(layout.unpack(flat))
        return loss, apply_gradients(p, grads, lr)

    try:
        return fit(init, step, epochs)
    finally:
        bc_xrs.unpersist()


def _make_batch_fn(p: NNParams, w1s, t2s, act, fks, bc_xrs, layout):
    """Batch of fact tuples -> the full-d gradient sums of ``layout`` (q = 0).

    Forward and per-FK delta sums run over the batch's distinct FKs, and
    ``w1_sums`` finishes ``PG_Rt`` against those R rows of the broadcast.
    """

    def batch_fn(batch) -> np.ndarray:
        xs = features(batch, w1s.shape[1])
        y = column(batch, "y", np.float64)
        uniq, rows = distinct_rows(fk_rows(batch, fks, [t2.shape[0] for t2 in t2s]))
        t2s_b = [t2[u] for t2, u in zip(t2s, uniq)]
        stats = factorized_grad_stats(xs, rows, y, p, w1s, t2s_b, act)
        stats["w1s"] = w1_sums(stats, [xr[u] for xr, u in zip(bc_xrs.value, uniq)])
        return layout.pack(stats)

    return batch_fn
