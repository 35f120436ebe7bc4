"""F-NN: factorized forward/backward over the normalized relations.

The contribution of Section VI: never join. Per epoch, the driver computes
the per-R-tuple layer-1 partial pre-activations ``T2_t = x_Rt W_Rt^T`` once
(nR rows of work); one ``mapInArrow`` pass over only the fact table S then
runs the factorized forward pass (FK lookups into the broadcast T2 matrices)
and accumulates the factorized gradient statistics — including the per-FK
delta sums from which the driver finishes ``PG_Rt = d_t^T x_Rt`` (Eq. 29/32),
so the wide ``N x d`` feature matrix is never formed and only
``nS*dS + sum nRt*dRt`` feature fields are ever read (Section VI-A3's I/O
saving).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.nn_ref import ACTIVATIONS, apply_gradients
from repro.core.params import NNParams, TrainResult
from repro.core.relational import collect_dimension_tables, column, fact_input, features, fk_rows
from repro.data.normalized import fk_cols, infer_dims
from repro.nn.model import (
    factorized_grad_layout,
    factorized_grad_stats,
    finalize_factorized,
    reuse_terms,
    split_w1,
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
    n_rs = [xr.shape[0] for xr in xrs]
    fks = fk_cols(q)
    s_in = fact_input(s_df, d_s, q, ["y"])

    layout = factorized_grad_layout(init.nh, d_s, n_rs)
    act = ACTIVATIONS[activation]

    def step(p):
        # Once per epoch, once per R tuple: the reused layer-1 partials.
        t2s = reuse_terms(p, xrs, d_s)
        w1s, _ = split_w1(p.w1, d_s, d_rs)
        batch_fn = _make_batch_fn(p, w1s, t2s, act, fks, layout)
        flat = aggregate_partitions(s_in, batch_fn, layout.size)
        grads, loss = finalize_factorized(layout.unpack(flat), xrs)
        return loss, apply_gradients(p, grads, lr)

    return fit(init, step, epochs)


def _make_batch_fn(p: NNParams, w1s, t2s, act, fks, layout):
    def batch_fn(batch) -> np.ndarray:
        xs = features(batch, w1s.shape[1])
        y = column(batch, "y", np.float64)
        fk_idx = fk_rows(batch, fks, [t2.shape[0] for t2 in t2s])
        return layout.pack(factorized_grad_stats(xs, fk_idx, y, p, w1s, t2s, act))

    return batch_fn
