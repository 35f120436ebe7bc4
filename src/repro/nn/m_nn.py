"""M-NN: materialize the join, train the network over the stored wide table.

Baseline of Section VI: ``T`` (including the target ``y``) is computed and
written to Parquet once; every epoch re-reads the wide table and computes the
full-batch gradients (Eq. 28 before decomposition) with F-NN's kernel over
``T`` as a fact table with no attribute table (q = 0).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.nn_ref import ACTIVATIONS, apply_gradients
from repro.core.params import NNParams, TrainResult
from repro.core.relational import column, features, joined_input
from repro.nn.model import dense_grad_stats, factorized_grad_layout, finalize_factorized


def _dense_batch_fn(p: NNParams, act_name: str, layout):
    act = ACTIVATIONS[act_name]

    def batch_fn(batch) -> np.ndarray:
        x = features(batch, p.d)
        y = column(batch, "y", np.float64)
        return layout.pack(dense_grad_stats(x, y, p, act))

    return batch_fn


def train_m_nn(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs: list[DataFrame],
    *,
    init: NNParams,
    epochs: int = 10,
    lr: float = 0.1,
    activation: str = "sigmoid",
    tmpdir: str,
) -> TrainResult:
    """Train the 1-hidden-layer network over a materialized join (M-NN)."""
    path = f"{tmpdir}/m_nn_T.parquet"
    joined_input(s_df, r_dfs, ["y"]).write.mode("overwrite").parquet(path)
    # Planned once; every epoch re-scans the wide Parquet.
    t_df = spark.read.parquet(path)

    layout = factorized_grad_layout(init.nh, init.d)

    def step(p):
        batch_fn = _dense_batch_fn(p, activation, layout)
        flat = aggregate_partitions(t_df, batch_fn, layout.size)
        grads, loss = finalize_factorized(layout.unpack(flat))
        return loss, apply_gradients(p, grads, lr)

    return fit(init, step, epochs)
