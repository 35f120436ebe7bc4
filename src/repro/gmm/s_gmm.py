"""S-GMM: stream the join — recompute it on the fly every EM pass.

The paper's second baseline: nothing is materialized; each pass re-executes
the PK/FK join (here: the Catalyst shuffle join) and feeds the wide joined
tuples to the *unfactorized* per-tuple math: F-GMM's kernel with no attribute
table (q = 0), as in M-GMM. Same computation cost as M-GMM, join cost paid
``iters`` times instead of storage + wide re-reads.

The join is planned once per training. That does not reuse its result: a
DataFrame re-executes its plan on every action and nothing here is cached,
so each pass runs both shuffle sides again.
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


def train_s_gmm(
    spark: SparkSession,
    s_df: DataFrame,
    r_dfs: list[DataFrame],
    *,
    init: GMMParams,
    iters: int = 10,
    tol: float | None = None,
) -> TrainResult:
    """Train a GMM with the join computed on the fly each pass (S-GMM)."""
    t_df = joined_input(s_df, r_dfs, [])
    layout = factorized_layout(init.k, init.d, [], [])

    def step(params):
        batch_fn = make_factorized_batch_fn(gmm_payload(params), None, [], [], layout)
        stats = layout.unpack(aggregate_partitions(t_df, batch_fn, layout.size))
        nk, sx, sxx, ll = assemble_moments(stats, [])
        return ll, mstep_from_moments(nk, sx, sxx)

    return fit(init, step, iters, tol=tol)
