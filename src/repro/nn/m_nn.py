"""M-NN: materialize the join, train the network over the stored wide table.

Baseline of Section VI: ``T`` (including the target ``y``) is computed and
written to Parquet once; every epoch re-reads the wide table and computes the
full-batch gradients (Eq. 28 before decomposition) with F-NN's kernel over
``T`` as a fact table with no attribute table (q = 0).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.nn_ref import ACTIVATIONS, apply_gradients
from repro.core.params import NNParams, TrainResult
from repro.core.relational import as_list, denormalize, infer_dims, joined_feature_cols
from repro.nn.model import dense_grad_stats, factorized_grad_layout, finalize_factorized


def _dense_batch_fn(p: NNParams, act_name: str, feat_cols, layout):
    act = ACTIVATIONS[act_name]

    def batch_fn(pdf: pd.DataFrame) -> np.ndarray:
        x = pdf[feat_cols].to_numpy(dtype=np.float64)
        y = pdf["y"].to_numpy(dtype=np.float64)
        return layout.pack(dense_grad_stats(x, y, p, act))

    return batch_fn


def train_m_nn(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs,
    *,
    init: NNParams,
    epochs: int = 10,
    lr: float = 0.1,
    activation: str = "sigmoid",
    tmpdir: str,
) -> TrainResult:
    """Train the 1-hidden-layer network over a materialized join (M-NN)."""
    r_dfs = as_list(r_dfs)
    d_s, d_rs = infer_dims(s_df, r_dfs)
    feat_cols = joined_feature_cols(d_s, d_rs)
    path = f"{tmpdir}/m_nn_T.parquet"

    t0 = time.perf_counter()
    denormalize(s_df, r_dfs, extra_cols=["y"]).write.mode("overwrite").parquet(path)
    t_mat = time.perf_counter() - t0

    layout = factorized_grad_layout(init.nh, init.d, [])

    def step(p):
        t_df = spark.read.parquet(path).select("y", *feat_cols)
        batch_fn = _dense_batch_fn(p, activation, feat_cols, layout)
        flat = aggregate_partitions(t_df, batch_fn, layout.size)
        grads, loss = finalize_factorized(layout.unpack(flat), [])
        return loss, apply_gradients(p, grads, lr)

    return fit(init, step, epochs, materialize_s=t_mat)
