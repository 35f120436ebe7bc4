"""F-NN: factorized forward/backward over the normalized relations.

The contribution of Section VI: never join. Per epoch, the driver computes
the per-R-tuple layer-1 partial pre-activations ``T2_t = x_Rt W_Rt^T`` once
(nR rows of work); one ``mapInPandas`` pass over only the fact table S then
runs the factorized forward pass (FK lookups into the broadcast T2 matrices)
and accumulates the factorized gradient statistics — including the per-FK
delta sums from which the driver finishes ``PG_Rt = d_t^T x_Rt`` (Eq. 29/32),
so the wide ``N x d`` feature matrix is never formed and only
``nS*dS + sum nRt*dRt`` feature fields are ever read (Section VI-A3's I/O
saving).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.nn_ref import ACTIVATIONS, apply_gradients
from repro.core.params import NNParams, TrainResult
from repro.core.relational import as_list, collect_dimension_tables, infer_dims, s_input_cols
from repro.data.normalized import fk_cols, s_feature_cols
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
    r_dfs,
    *,
    init: NNParams,
    epochs: int = 10,
    lr: float = 0.1,
    activation: str = "sigmoid",
) -> TrainResult:
    """Train the network factorized over S and R1..Rq (algorithm F-NN)."""
    r_dfs = as_list(r_dfs)
    d_s, d_rs = infer_dims(s_df, r_dfs)
    q = len(r_dfs)
    xrs = collect_dimension_tables(r_dfs)
    n_rs = [xr.shape[0] for xr in xrs]
    s_cols = s_feature_cols(d_s)
    fks = fk_cols(q)
    s_in = s_df.select(*s_input_cols(d_s, q, extra_cols=["y"]))

    layout = factorized_grad_layout(init.nh, d_s, n_rs)
    act = ACTIVATIONS[activation]

    def step(p):
        # Once per epoch, once per R tuple: the reused layer-1 partials.
        t2s = reuse_terms(p, xrs, d_s)
        w1s, _ = split_w1(p.w1, d_s, d_rs)
        batch_fn = _make_batch_fn(p, w1s, t2s, act, s_cols, fks, layout)
        flat = aggregate_partitions(s_in, batch_fn, layout.size)
        grads, loss = finalize_factorized(layout.unpack(flat), xrs)
        return loss, apply_gradients(p, grads, lr)

    return fit(init, step, epochs)


def _make_batch_fn(p: NNParams, w1s, t2s, act, s_cols, fks, layout):
    def batch_fn(pdf: pd.DataFrame) -> np.ndarray:
        xs = pdf[s_cols].to_numpy(dtype=np.float64)
        y = pdf["y"].to_numpy(dtype=np.float64)
        fk_idx = [pdf[name].to_numpy(dtype=np.int64) - 1 for name in fks]
        return layout.pack(factorized_grad_stats(xs, fk_idx, y, p, w1s, t2s, act))

    return batch_fn
