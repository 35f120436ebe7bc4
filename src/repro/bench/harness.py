"""Run an algorithm matrix over a dataset and emit paper-style table rows.

For each dataset the harness: creates the Spark relations (cached and
counted *before* timing, so data generation is excluded), runs each of
M / S / F, times each whole call from outside (setup, passes and updates,
the span perfbench's ``Call.seconds`` measures), and sanity-checks that all
algorithms agreed on the final model (the paper's exactness property) — a
benchmark that silently diverged would be measuring different work.
"""
from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.params import TrainResult, init_gmm, init_nn
from repro.data.normalized import infer_dims, multiway_relations_pdf
from repro.gmm import train_f_gmm, train_m_gmm, train_s_gmm
from repro.nn import train_f_nn, train_m_nn, train_s_nn

ALGOS = ("M", "S", "F")
_TRAINERS = {
    "GMM": {"M": train_m_gmm, "S": train_s_gmm, "F": train_f_gmm},
    "NN": {"M": train_m_nn, "S": train_s_nn, "F": train_f_nn},
}


def warmup(spark: SparkSession) -> None:
    """Warm the JVM/Arrow/broadcast code paths before taking measurements.

    The first run of each pipeline in a fresh session pays one-time costs
    (Arrow codegen, python worker spin-up, first broadcast) of a few seconds,
    which would otherwise be attributed to whichever algorithm runs first.
    """
    s, rs = multiway_relations_pdf(n_s=2000, n_rs=[20], d_s=2, d_rs=[2], seed=99, target=True)
    run_matrix(spark, "GMM", "_warmup", s, rs, size=2, iters=1)
    run_matrix(spark, "NN", "_warmup", s, rs, size=4, iters=1)


@dataclass
class Row:
    """One (dataset, algorithm) measurement."""

    dataset: str
    algo: str
    seconds: float


def prepare_relations(spark: SparkSession, s_pdf: pd.DataFrame, r_pdfs: list[pd.DataFrame]):
    n_parts = max(2, spark.sparkContext.defaultParallelism)
    s_df = spark.createDataFrame(s_pdf).repartition(n_parts).cache()
    s_df.count()
    r_dfs = []
    for r in r_pdfs:
        rd = spark.createDataFrame(r).cache()
        rd.count()
        r_dfs.append(rd)
    return s_df, r_dfs


def make_init(model: str, d: int, size: int):
    """The init every algorithm of ``model`` shares: K components or nh hidden units."""
    return init_gmm(d, size, 11) if model == "GMM" else init_nn(d, size, 13)


def train(
    model: str, algo: str, spark, s_df, r_dfs, *, init, iters: int, tmpdir: str
) -> TrainResult:
    """Run algorithm ``algo`` (M/S/F) of ``model``; ``iters`` are EM iterations or NN epochs."""
    kw = {"init": init, ("iters" if model == "GMM" else "epochs"): iters}
    if algo == "M":
        kw["tmpdir"] = tmpdir
    return _TRAINERS[model][algo](spark, s_df, r_dfs, **kw)


def run_matrix(
    spark: SparkSession,
    model: str,
    dataset_name: str,
    s_pdf: pd.DataFrame,
    r_pdfs: list[pd.DataFrame],
    *,
    size: int,
    iters: int,
) -> list[Row]:
    """Time M/S/F of ``model`` ("GMM" or "NN") on one dataset with a shared
    init; verify agreement. ``size`` is K (GMM) or nh (NN)."""
    d_s, d_rs = infer_dims(s_pdf, r_pdfs)
    s_df, r_dfs = prepare_relations(spark, s_pdf, r_pdfs)
    init = make_init(model, d_s + sum(d_rs), size)
    tmpdir = tempfile.mkdtemp(prefix="repro_bench_")
    results, seconds = {}, {}
    try:
        for algo in ALGOS:
            t0 = time.perf_counter()
            results[algo] = train(
                model, algo, spark, s_df, r_dfs, init=init, iters=iters, tmpdir=tmpdir
            )
            seconds[algo] = time.perf_counter() - t0
        _check_agreement(results, model, dataset_name)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        s_df.unpersist()
        for r in r_dfs:
            r.unpersist()
    return [Row(dataset_name, f"{algo}-{model}", seconds[algo]) for algo in ALGOS]


def _check_agreement(results: dict, model: str, dataset: str) -> None:
    """All algorithms must have tracked the same metric trajectory and ended at
    the same parameters. Each history entry scores the *incoming* parameters,
    so only ``params`` shows the last update."""
    (algo0, first), *rest = results.items()
    ref = {"history": first.history, **vars(first.params)}
    for algo, res in rest:
        for what, got in {"history": res.history, **vars(res.params)}.items():
            if not np.allclose(got, ref[what], rtol=1e-6, atol=1e-8):
                raise AssertionError(
                    f"{model} algorithms diverged on {dataset}: {what} of {algo} vs {algo0}"
                )


def format_rows(rows: list[Row], title: str) -> str:
    """Render rows as a paper-style table: one line per dataset, algo columns."""
    by_ds: dict[str, dict[str, Row]] = {}
    algo_names: list[str] = []
    for r in rows:
        by_ds.setdefault(r.dataset, {})[r.algo] = r
        if r.algo not in algo_names:
            algo_names.append(r.algo)
    w = max(12, *(len(d) for d in by_ds)) + 2
    out = [title, "-" * len(title)]
    header = "Dataset".ljust(w) + "".join(a.rjust(10) for a in algo_names)
    header += "  speedup(F vs min(M,S))"
    out.append(header)
    for ds, algos in by_ds.items():
        line = ds.ljust(w)
        for a in algo_names:
            line += (f"{algos[a].seconds:9.1f}s" if a in algos else " " * 10)
        base = [v.seconds for k, v in algos.items() if k.startswith(("M", "S"))]
        fa = [v.seconds for k, v in algos.items() if k.startswith("F")]
        if base and fa:
            line += f"  {min(base) / fa[0]:.2f}x"
        out.append(line)
    return "\n".join(out)
