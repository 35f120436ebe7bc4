"""Per-layer spans for the traced run, recorded from the benchmark's side.

Nothing in ``src/`` changes. The trainers bind their layer functions with
``from ... import``, so the wrappers go on the trainer modules' own names
(``repro.gmm.f_gmm.aggregate_partitions``, ...), for the length of one traced
round, and are restored afterwards. Spans (name, start, end, parent) stay in
memory; ``per_layer`` turns them into the per-layer metrics.

On the first ``aggregate_partitions`` call of each algorithm, outside every
timed span, the wrapper captures the pass's real input and measures:

* one 10k-row batch of it (the size of one Arrow batch), replayed through the
  pass's own batch function on the Spark driver: the whole batch, and the model's
  nonlinearity inside it (GMM ``log_responsibilities``; NN the activation's
  ``f`` and ``df``);
* the floor: the same call on the same DataFrame with a batch function that
  returns zeros of the same size, so only the Spark pass itself is left;
* the cloudpickle size of the batch function shipped with each pass.

Every per-layer metric applies to both models, so each workload reports them
all. A name maps to the layer function of the workload's model:

==========================  ===========================  =======================
metric                      GMM                          NN
==========================  ===========================  =======================
f.relational.collect_r_s    collect_dimension_tables     collect_dimension_tables
m.relational.materialize_s  join + Parquet write         join + Parquet write
f.driver.terms_ms           MultiwayTerms                reuse_terms
f.driver.assemble_ms        assemble_moments             finalize_factorized
<p>.driver.update_ms        mstep_from_moments           apply_gradients
dense|fact.act_ms_per_10k   log_responsibilities         ACTIVATIONS[...] f, df
==========================  ===========================  =======================
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass
from unittest import mock

import numpy as np
from pyspark import cloudpickle
from pyspark.sql.readwriter import DataFrameWriter

import bench
from repro.core.nn_ref import Activation
from repro.gmm import f_gmm, m_gmm, s_gmm, suffstats
from repro.nn import f_nn, m_nn, s_nn

REPLAY_ROWS = 10_000  # spark.sql.execution.arrow.maxRecordsPerBatch
REPLAY_REPS = 5
FLOOR_REPS = 3

TRAINER_MODULES = {
    "gmm": {"m": m_gmm, "s": s_gmm, "f": f_gmm},
    "nn": {"m": m_nn, "s": s_nn, "f": f_nn},
}
# Per-iteration calls on the Spark driver, per model, as the trainer modules name them.
DRIVER_CALLS = {
    "gmm": {
        "mstep_from_moments": "driver.update",
        "collect_dimension_tables": "relational.collect_r",
        "MultiwayTerms": "driver.terms",
        "assemble_moments": "driver.assemble",
    },
    "nn": {
        "apply_gradients": "driver.update",
        "collect_dimension_tables": "relational.collect_r",
        "reuse_terms": "driver.terms",
        "finalize_factorized": "driver.assemble",
    },
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _zeros_batch_fn(size: int):
    """A batch function that does no math: what is left is the Spark pass."""

    def zeros(pdf):
        return np.zeros(size)

    return zeros


class Tracer:
    """Spans and capture-time measurements of one traced round."""

    def __init__(self, spark, model: str) -> None:
        self.spark = spark
        self.model = model
        self.spans: list[Span] = []
        self.values: dict[str, float] = {}  # measured once, at capture
        self._stack: list[int] = []
        self._passes = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer call of the trainers, then restore the names."""
        trainers = bench.TRAINERS[self.model]
        with contextlib.ExitStack() as stack:

            def patch(owner, attr: str, value) -> None:
                stack.enter_context(mock.patch.object(owner, attr, value))

            parquet = DataFrameWriter.parquet  # only M writes Parquet
            patch(DataFrameWriter, "parquet", self.wrap("m.relational.materialize", parquet))
            for p, mod in TRAINER_MODULES[self.model].items():
                stack.enter_context(mock.patch.dict(trainers, {p: self.wrap(f"{p}.train", trainers[p])}))
                patch(mod, "aggregate_partitions", self._aggregate(p, mod.aggregate_partitions))
                for attr, layer in DRIVER_CALLS[self.model].items():
                    if hasattr(mod, attr):
                        patch(mod, attr, self.wrap(f"{p}.{layer}", getattr(mod, attr)))
            stack.callback(self.spark.sparkContext.setLocalProperty, "spark.jobGroup.id", None)
            yield self

    def _aggregate(self, p: str, real):
        def aggregate_partitions(df, batch_fn, size):
            if f"{p}.aggregate.floor_s" not in self.values:
                with self.span("capture"):
                    self._capture(p, real, df, batch_fn, size)
            group = f"perfbench-{p}-{self._passes}"
            self._passes += 1
            self.spark.sparkContext.setJobGroup(group, f"{p} pass")
            with self.span(f"{p}.aggregate.pass"):
                out = real(df, batch_fn, size)
            tasks = self._result_stage_tasks(group)
            self.values[f"{p}.aggregate.partitions"] = tasks
            self.values[f"{p}.aggregate.stat_bytes"] = 8 * size * tasks
            return out

        return aggregate_partitions

    def _capture(self, p, real, df, batch_fn, size) -> None:
        form = "fact" if p == "f" else "dense"
        if f"{form}.batch_ms_per_10k" not in self.values:
            pdf = df.limit(REPLAY_ROWS).toPandas()
            self._replay(form, batch_fn, pdf)
        floors = []
        for _ in range(FLOOR_REPS):
            t0 = time.perf_counter()
            real(df, _zeros_batch_fn(size), size)
            floors.append(time.perf_counter() - t0)
        self.values[f"{p}.aggregate.floor_s"] = statistics.median(floors)
        self.values[f"{p}.aggregate.closure_bytes"] = len(cloudpickle.dumps(batch_fn))

    def _replay(self, form: str, batch_fn, pdf) -> None:
        """Time ``batch_fn`` on ``pdf`` on the Spark driver, and its nonlinearity."""
        act_s: list[float] = []

        def timed(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    act_s.append(time.perf_counter() - t0)

            return wrapper

        def with_timed_activation(grad_stats):
            # The activation is the last positional argument of the NN stats.
            def wrapper(*args):
                act = args[-1]
                return grad_stats(
                    *args[:-1], Activation(act.name, timed(act.f), timed(act.df), act.additive)
                )

            return wrapper

        if self.model == "gmm":
            kernels = [(suffstats, "log_responsibilities", timed(suffstats.log_responsibilities))]
        else:
            kernels = [
                (m_nn, "dense_grad_stats", with_timed_activation(m_nn.dense_grad_stats)),
                (f_nn, "factorized_grad_stats", with_timed_activation(f_nn.factorized_grad_stats)),
            ]
        batch, act = [], []
        with contextlib.ExitStack() as stack:
            for owner, attr, fn in kernels:
                stack.enter_context(mock.patch.object(owner, attr, fn))
            for _ in range(REPLAY_REPS):
                act_s.clear()
                t0 = time.perf_counter()
                batch_fn(pdf)
                batch.append(time.perf_counter() - t0)
                act.append(sum(act_s))
        ms_per_10k = 1e3 * 1e4 / len(pdf)
        self.values[f"{form}.batch_ms_per_10k"] = statistics.median(batch) * ms_per_10k
        self.values[f"{form}.act_ms_per_10k"] = statistics.median(act) * ms_per_10k

    def _result_stage_tasks(self, group: str) -> int:
        """Tasks of the pass's last stage: one partial stat vector each."""
        st = self.spark.sparkContext.statusTracker()
        job = st.getJobInfo(max(st.getJobIdsForGroup(group)))
        return st.getStageInfo(max(job.stageIds)).numTasks


def per_layer(tracer: Tracer, untraced: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from one traced round.

    ``untraced`` holds the same round's per-algorithm totals with tracing off.
    """
    by_name: dict[str, list[float]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s.seconds)

    def med(name: str) -> float:
        return statistics.median(by_name[name])

    out: dict[str, tuple[float, str]] = {
        "f.relational.collect_r_s": (med("f.relational.collect_r"), "s"),
        "m.relational.materialize_s": (med("m.relational.materialize"), "s"),
        "f.driver.terms_ms": (1e3 * med("f.driver.terms"), "ms"),
        "f.driver.assemble_ms": (1e3 * med("f.driver.assemble"), "ms"),
    }
    for form in ("dense", "fact"):
        for kernel in ("batch", "act"):
            name = f"{form}.{kernel}_ms_per_10k"
            out[name] = (tracer.values[name], "ms")
    traced_total = 0.0
    for p in bench.ALGOS:
        out[f"{p}.aggregate.pass_s"] = (med(f"{p}.aggregate.pass"), "s")
        out[f"{p}.aggregate.calls"] = (len(by_name[f"{p}.aggregate.pass"]), "count")
        for key, unit in (("partitions", "count"), ("floor_s", "s"), ("closure_bytes", "bytes"), ("stat_bytes", "bytes")):
            out[f"{p}.aggregate.{key}"] = (tracer.values[f"{p}.aggregate.{key}"], unit)
        out[f"{p}.driver.update_ms"] = (1e3 * med(f"{p}.driver.update"), "ms")
        (train_idx,) = [i for i, s in enumerate(tracer.spans) if s.name == f"{p}.train"]
        train = tracer.spans[train_idx].seconds
        children = [s for s in tracer.spans if s.parent == train_idx]
        capture = sum(s.seconds for s in children if s.name == "capture")
        measured = sum(s.seconds for s in children if s.name != "capture")
        out[f"{p}.unaccounted_s"] = (train - capture - measured, "s")
        traced_total += train - capture
    base = sum(untraced.values())
    out["trace.overhead_pct"] = (100.0 * (traced_total - base) / base, "%")
    return out
