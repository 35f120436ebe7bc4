"""M/S/F training benchmark on the paper's Table VI/VII workloads.

Run from the repository root::

    python3 perfbench/run.py --workload gmm-expedia2 --seed 1 --seconds 42 --trace 0

One client runs M, S and F trainings back to back (a closed loop) on a
``local[nproc]`` Spark session that this script builds and pins. Each run:

1. generates the workload's relations from ``--seed`` and prepares them
   (to Spark, repartition, cache, count) ``bench.SETUP_REPS`` times; the
   median is ``setup_s``;
2. runs one untimed warm round of M, S and F on those relations;
3. with ``--trace 0``, runs timed rounds until ``--seconds`` are used (at
   least one) and reports the median wall time of each trainer call and the
   Spark driver's peak RSS during the rounds; with ``--trace 1``, runs one untimed
   round and one traced round and reports the per-layer metrics of
   ``layers.py``;
4. checks every call against the NumPy reference and against the round's M
   call, and stops Spark and every process it started.

The first full rounds after the warm round run slower while the JVM's JIT
compiles Spark's per-pass code (the first by about 25% on Expedia2), so
``--seconds`` should leave room for three rounds; their median discounts the
first.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go under ``.bench_work/`` in the repository root.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SHUFFLE_PARTITIONS = 64  # as in the Tier-1 test session and bench.session
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "m_total_s": "s",
    "s_total_s": "s",
    "f_total_s": "s",
    "driver_peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=None,
        help="row scale of the datasets (default: realsim.ROW_SCALE); for smoke tests",
    )
    return ap.parse_args(argv)


def driver_memory() -> str:
    """Half of MemTotal in whole GiB, clamped to 2..8 (the Tier-1 formula)."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def configure_environment() -> None:
    """Point Spark, the JVM and Python at scratch space inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")  # Python workers
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    # Spark runs nproc tasks at once, each in its own Python worker; a
    # multi-threaded BLAS in every worker would put more threads than cores
    # on the machine. Set before NumPy is first imported here or in a worker.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # For every JVM spark-submit starts, its launcher too; without
    # -XX:-UsePerfData a JVM writes /tmp/hsperfdata_<user> whatever the tmpdir.
    os.environ["JAVA_TOOL_OPTIONS"] = shlex.quote(f"-Djava.io.tmpdir={tmp}") + " -XX:-UsePerfData"
    nproc = len(os.sched_getaffinity(0))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc}]",
            f"--driver-memory {driver_memory()}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "pyspark-shell",
        ]
    )


def build_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM, which exits when its stdin closes."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def become_subreaper() -> None:
    """Adopt orphaned descendants (Spark's Python workers) so they can be reaped."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without it, orphans go to init; the JVM is still waited for


def _child_pids() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def reap_children(grace_s: float = 30.0) -> None:
    """Wait for every child process to end; kill what is left after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.05)


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def machine_info(spark, rel) -> dict:
    import numpy
    import pandas
    import pyarrow

    sc = spark.sparkContext
    with open("/proc/meminfo") as f:
        mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": mem_kb,
        "python": platform.python_version(),
        "java": sc._jvm.System.getProperty("java.version"),
        "spark": spark.version,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "s_partitions": rel.s_df.rdd.getNumPartitions(),
        "git_sha": git_sha(),
    }


def median_seconds(calls, algo: str) -> float:
    return statistics.median(c.seconds for c in calls if c.algo == algo)


def run(args) -> dict:
    import bench
    from repro.bench.tables import TABLE_ITERS
    from repro.data import realsim

    workload = bench.WORKLOADS[args.workload]
    model = workload.model
    scale = realsim.ROW_SCALE if args.scale is None else args.scale
    spark = build_session()
    tmpdir = tempfile.mkdtemp(prefix="m_", dir=WORK)
    try:
        rel, gen_s, prep_s = bench.set_up(spark, workload, args.seed, scale)
        init = bench.make_init(model, rel.d, args.seed)
        calls = bench.run_round(model, spark, rel, init, bench.WARM_ITERS, tmpdir, "warm")
        if args.trace:
            import layers

            untraced = bench.run_round(model, spark, rel, init, TABLE_ITERS, tmpdir, "untraced")
            tracer = layers.Tracer(spark, model)
            with tracer.installed():
                traced = bench.run_round(model, spark, rel, init, TABLE_ITERS, tmpdir, "traced")
            calls += untraced + traced
            metrics = layers.per_layer(tracer, {c.algo: c.seconds for c in untraced})
            metrics["data.generate_s"] = (statistics.median(gen_s), "s")
            metrics["harness.prepare_s"] = (statistics.median(prep_s), "s")
            metrics["warm.round_s"] = (sum(c.seconds for c in calls if c.phase == "warm"), "s")
            shown = untraced
        else:
            with bench.PeakRss() as rss:
                timed = bench.timed_rounds(model, spark, rel, init, tmpdir, args.seconds)
            calls += timed
            setups = [g + p for g, p in zip(gen_s, prep_s)]
            values = {
                "setup_s": statistics.median(setups),
                **{f"{a}_total_s": median_seconds(timed, a) for a in bench.ALGOS},
                "driver_peak_rss_mb": rss.peak_mb,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            shown = timed
        refs = {n: bench.reference(model, rel, init, n) for n in {c.iters for c in calls}}
        failures = bench.gate(model, calls, refs)
        info = machine_info(spark, rel)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        stop_session(spark)

    m, s, f = (median_seconds(shown, a) for a in bench.ALGOS)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# machine {json.dumps(info, sort_keys=True)}")
    for phase in dict.fromkeys(c.phase for c in calls):
        line = "  ".join(f"{c.algo.upper()} {c.seconds:.3f} s" for c in calls if c.phase == phase)
        print(f"# {phase}: {line}")
    print(f"# M {m:.3f} s  S {s:.3f} s  F {f:.3f} s  F vs min(M,S) {min(m, s) / f:.2f}x")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} = {value:.6g} {unit}")
    for line in failures:
        print(f"# FAILED {line}")
    return {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    configure_environment()
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    become_subreaper()
    try:
        result = run(args)
    finally:
        reap_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
