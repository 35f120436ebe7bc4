"""M-GMM: materialize the join, then train over the stored wide table.

The paper's Algorithm 1: compute ``T = S join R1 ... Rq``, store it (here:
Parquet on local disk, the Spark analogue of "materialize the table in the
database"), then run EM re-reading the wide table every pass. Pays the join
once plus ``|T|`` of storage and a wide scan per pass. The per-tuple math is
the unfactorized form: F-GMM's kernel with no attribute table (q = 0) on ``T``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregate import aggregate_partitions, fit
from repro.core.em_ref import mstep_from_moments
from repro.core.params import GMMParams, TrainResult
from repro.core.relational import joined_input
from repro.gmm.suffstats import (
    assemble_moments,
    factorized_layout,
    gmm_payload,
    make_factorized_batch_fn,
)


def train_m_gmm(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs: list[DataFrame],
    *,
    init: GMMParams,
    iters: int = 10,
    tmpdir: str,
    tol: float | None = None,
) -> TrainResult:
    """Train a GMM via materialized denormalization (baseline M-GMM)."""
    path = f"{tmpdir}/m_gmm_T.parquet"
    joined_input(s_df, r_dfs, []).write.mode("overwrite").parquet(path)
    # Planned once; every pass re-scans the wide Parquet, as Algorithm 1 does.
    t_df = spark.read.parquet(path)

    layout = factorized_layout(init.k, init.d, [], [])

    def step(params):
        batch_fn = make_factorized_batch_fn(gmm_payload(params), None, [], [], layout)
        stats = layout.unpack(aggregate_partitions(t_df, batch_fn, layout.size))
        nk, sx, sxx, ll = assemble_moments(stats, [])
        return ll, mstep_from_moments(nk, sx, sxx)

    return fit(init, step, iters, tol=tol)
