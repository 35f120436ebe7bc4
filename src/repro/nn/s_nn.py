"""S-NN: recompute the join on the fly every epoch, unfactorized math per tuple.

Second baseline of Section VI: no materialization; each epoch re-executes the
Catalyst shuffle join and runs the unfactorized forward/backward over the
wide joined rows: F-NN's kernel with no attribute table (q = 0), as in M-NN.
The join is planned once per training and cached nowhere, so every epoch's
action runs both shuffle sides again.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.nn_ref import apply_gradients
from repro.core.params import NNParams, TrainResult
from repro.core.relational import joined_input
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
    t_df = joined_input(s_df, r_dfs, ["y"])
    layout = factorized_grad_layout(init.nh, init.d)

    def step(p):
        batch_fn = _dense_batch_fn(p, activation, layout)
        flat = aggregate_partitions(t_df, batch_fn, layout.size)
        grads, loss = finalize_factorized(layout.unpack(flat))
        return loss, apply_gradients(p, grads, lr)

    return fit(init, step, epochs)
