"""Workloads, the closed M/S/F training loop and its correctness gate.

A workload is one of the paper's simulated datasets (``repro.data.realsim``)
at ``ROW_SCALE`` rows, trained for ``TABLE_ITERS`` iterations with the
paper's model sizes (GMM: K=5; NN: nh=50, sigmoid). Only the generator seed
comes from the command line. One *round* is one call each of M, S and F, in
that order, back to back on the same cached relations; every call is one
operation. A call fails when it raises, when its trajectory or final model
disagrees with the NumPy reference trainer, or when it disagrees with the
same round's M call. Failed calls are counted, never dropped.
"""
from __future__ import annotations

import dataclasses
import os
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.bench.harness import prepare_relations
from repro.bench.tables import TABLE_ITERS
from repro.core.em_ref import em_fit
from repro.core.nn_ref import nn_fit
from repro.core.params import TrainResult, init_gmm, init_nn
from repro.data import realsim
from repro.data.normalized import densify_pdf
from repro.gmm import train_f_gmm, train_m_gmm, train_s_gmm
from repro.nn import train_f_nn, train_m_nn, train_s_nn

ALGOS = ("m", "s", "f")  # the same order in every round
GMM_K = 5
NN_HIDDEN = 50
WARM_ITERS = 1  # the untimed warm round runs every code path once
SETUP_REPS = 3  # setup_s is the median of this many set-ups


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "gmm" or "nn"
    spec: realsim.DatasetSpec
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gmm-expedia2",
            "gmm",
            realsim.GMM_REAL["Expedia2(Not Sparse)"],
            "Table VI Expedia2: narrowest rows and largest nR, so F is mostly "
            "the fixed Spark pass floor and ships the largest stat vector",
        ),
        # Runs on request only, not in BENCHMARK.json: one run takes about
        # 85 s on a 4-core machine (M and S are 18 s each), too long to
        # repeat within the benchmark's time budget next to the other two.
        Workload(
            "gmm-expedia5",
            "gmm",
            realsim.GMM_REAL["Expedia5 (Augmented)"],
            "Table V Expedia5: d=225, so M and S are dense executor math and "
            "F's per-R-tuple terms scale with dR^2",
        ),
        Workload(
            "nn-walmart",
            "nn",
            realsim.NN_REAL["Walmart (Sparse)"],
            "Table VII Walmart (Sparse): the only NN workload, 301-column joined "
            "rows, F-NN half sigmoid math",
        ),
    )
}

TRAINERS = {
    "gmm": {"m": train_m_gmm, "s": train_s_gmm, "f": train_f_gmm},
    "nn": {"m": train_m_nn, "s": train_s_nn, "f": train_f_nn},
}

# The Tier-1 exactness tolerances, (rtol, atol) per compared field:
# tests/test_{gmm,nn}_exactness.py against the reference, and pairwise.
REF_TOL = {
    "gmm": {
        "history": (1e-9, 0.0),
        "pi": (1e-9, 0.0),
        "mu": (1e-8, 1e-10),
        "sigma": (1e-7, 1e-10),
    },
    "nn": {
        "history": (1e-10, 0.0),
        "w1": (1e-8, 1e-12),
        "b1": (1e-8, 1e-12),
        "w2": (1e-8, 1e-12),
        "b2": (1e-8, 1e-12),
    },
}
PAIR_TOL = {"gmm": REF_TOL["gmm"], "nn": {**REF_TOL["nn"], "w1": (1e-9, 1e-13)}}


@dataclass
class Relations:
    """The workload's inputs: pandas frames plus their cached Spark views."""

    s_pdf: object
    r_pdfs: list
    s_df: object
    r_dfs: list

    @property
    def d(self) -> int:
        return sum(
            sum(1 for c in f.columns if c.startswith(("xs_", "xr")))
            for f in (self.s_pdf, *self.r_pdfs)
        )

    def unpersist(self) -> None:
        for df in (self.s_df, *self.r_dfs):
            df.unpersist(blocking=True)


@dataclass
class Call:
    """One operation: a single trainer call, timed from outside."""

    phase: str  # "warm", "round<i>", "untraced", "traced"
    algo: str
    iters: int
    seconds: float
    result: TrainResult | None
    error: str | None = None


def set_up(spark, workload: Workload, seed: int, scale: float):
    """Generate and prepare the relations ``SETUP_REPS`` times; keep the last.

    Returns ``(relations, generate_seconds, prepare_seconds)`` with one entry
    per repetition in each list.
    """
    spec = dataclasses.replace(workload.spec, seed=seed)
    gen_s, prep_s, rel = [], [], None
    for _ in range(SETUP_REPS):
        if rel is not None:
            # Before the next set-up: the same data gives the same plan, and
            # Spark's cache is keyed by plan, so unpersisting afterwards
            # would drop the new cache too.
            rel.unpersist()
        t0 = time.perf_counter()
        s_pdf, r_pdfs = spec.generate_pdf(scale)
        t1 = time.perf_counter()
        s_df, r_dfs = prepare_relations(spark, s_pdf, r_pdfs)
        t2 = time.perf_counter()
        gen_s.append(t1 - t0)
        prep_s.append(t2 - t1)
        rel = Relations(s_pdf, r_pdfs, s_df, r_dfs)
    return rel, gen_s, prep_s


def make_init(model: str, d: int, seed: int):
    return init_gmm(d, GMM_K, seed) if model == "gmm" else init_nn(d, NN_HIDDEN, seed)


def call_trainer(model, algo, spark, rel: Relations, init, iters, tmpdir) -> TrainResult:
    kw = {"iters": iters} if model == "gmm" else {"epochs": iters}
    if algo == "m":
        kw["tmpdir"] = tmpdir
    return TRAINERS[model][algo](spark, rel.s_df, rel.r_dfs, init=init, **kw)


def run_round(model, spark, rel, init, iters, tmpdir, phase) -> list[Call]:
    """One M, S, F call each, back to back, each timed around the call."""
    calls = []
    for algo in ALGOS:
        t0 = time.perf_counter()
        try:
            res, err = call_trainer(model, algo, spark, rel, init, iters, tmpdir), None
        except Exception as e:  # a raising trainer is a failed operation
            traceback.print_exc(file=sys.stderr)
            res, err = None, f"{type(e).__name__}: {e}"
        calls.append(Call(phase, algo, iters, time.perf_counter() - t0, res, err))
    return calls


def timed_rounds(model, spark, rel, init, tmpdir, seconds: float) -> list[Call]:
    """Rounds back to back until another would end after ``seconds``; at least one."""
    calls: list[Call] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        calls += run_round(model, spark, rel, init, TABLE_ITERS, tmpdir, f"round{len(durations)}")
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(durations) > seconds:
            return calls


def reference(model: str, rel: Relations, init, iters: int) -> TrainResult:
    """The NumPy reference trainer on the densified join (ground truth)."""
    x, y = densify_pdf(rel.s_pdf, rel.r_pdfs)
    if model == "gmm":
        return em_fit(x, init, iters=iters)
    return nn_fit(x, y, init, epochs=iters)


def _mismatch(got: TrainResult, want: TrainResult, tol: dict) -> str | None:
    for field, (rtol, atol) in tol.items():
        if field == "history":
            a, b = got.history, want.history
        else:
            a, b = getattr(got.params, field), getattr(want.params, field)
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape or not np.allclose(a, b, rtol=rtol, atol=atol):
            return field
    return None


def gate(model: str, calls: list[Call], refs: dict[int, TrainResult]) -> list[str]:
    """Mark failed calls; returns one message per failed call.

    ``refs`` maps an iteration count to the reference result for it.
    """
    m_ok: dict[str, Call] = {}  # per phase, the M call that matched the reference
    failures = []
    for c in calls:
        if c.error is None:
            field = _mismatch(c.result, refs[c.iters], REF_TOL[model])
            if field is not None:
                c.error = f"{field} differs from the NumPy reference"
            elif c.algo != "m" and c.phase in m_ok:
                field = _mismatch(c.result, m_ok[c.phase].result, PAIR_TOL[model])
                if field is not None:
                    c.error = f"{field} differs from M in the same round"
        if c.error is not None:
            failures.append(f"{c.phase} {c.algo.upper()}: {c.error}")
        elif c.algo == "m":
            m_ok[c.phase] = c
    return failures


class PeakRss:
    """Peak resident set size of this process while the block runs, in MB.

    A thread samples ``/proc/self/statm`` every few milliseconds, so the
    peak of set-up work done before the block does not count.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _read_mb(self) -> float:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * self._page / 2**20

    def _sample(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, self._read_mb())
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, self._read_mb())
