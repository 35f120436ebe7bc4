"""S-NN: recompute the join on the fly every epoch, unfactorized math per tuple.

Second baseline of Section VI: no materialization; each epoch re-executes the
Catalyst shuffle join (fresh plan per epoch, so nothing is reused) and runs
the unfactorized forward/backward over the wide joined rows: F-NN's kernel
with no attribute table (q = 0), as in M-NN.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.nn_ref import apply_gradients
from repro.core.params import NNParams, TrainResult
from repro.core.relational import denormalize, joined_feature_cols
from repro.data.normalized import infer_dims
from repro.nn.m_nn import _dense_batch_fn
from repro.nn.model import factorized_grad_layout, finalize_factorized


def train_s_nn(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs: list[DataFrame],
    *,
    init: NNParams,
    epochs: int = 10,
    lr: float = 0.1,
    activation: str = "sigmoid",
) -> TrainResult:
    """Train the network with the join streamed per epoch (S-NN)."""
    d_s, d_rs = infer_dims(s_df, r_dfs)
    feat_cols = joined_feature_cols(d_s, d_rs)

    layout = factorized_grad_layout(init.nh, init.d, [])

    def step(p):
        t_df = denormalize(s_df, r_dfs, extra_cols=["y"]).select("y", *feat_cols)
        batch_fn = _dense_batch_fn(p, activation, feat_cols, layout)
        flat = aggregate_partitions(t_df, batch_fn, layout.size)
        grads, loss = finalize_factorized(layout.unpack(flat), [])
        return loss, apply_gradients(p, grads, lr)

    return fit(init, step, epochs)
