"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

A run must print every metric that BENCHMARK.json names, with its unit, and
a trainer that raises or whose trajectory is off must be counted as a failed
operation, not dropped.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from repro.core.em_ref import em_fit  # noqa: E402
from repro.data.normalized import densify_pdf  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_SCALE = 0.002  # about 2k S rows on Expedia2, 800 on Walmart


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_every_metric_with_its_unit(workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--scale", str(TOY_SCALE)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 9 if trace else result["attempted"] >= 6
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [*SPEC["command"], "--workload", "gmm-expedia2", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.fixture
def toy_gmm():
    """Tiny Expedia2 relations, and trainers that return the reference fit."""
    spec = bench.WORKLOADS["gmm-expedia2"].spec
    s_pdf, r_pdfs = spec.generate_pdf(TOY_SCALE)
    rel = bench.Relations(s_pdf, r_pdfs, s_df=None, r_dfs=[])
    x, _ = densify_pdf(s_pdf, r_pdfs)

    def exact(spark, s_df, r_dfs, *, init, iters, tmpdir=None):
        return em_fit(x, init, iters=iters)

    return rel, exact


def test_trajectory_mismatch_and_raise_count_as_failed(monkeypatch, toy_gmm):
    rel, exact = toy_gmm

    def off_by_a_little(*args, **kwargs):
        res = exact(*args, **kwargs)
        res.history[-1] *= 1 + 1e-6
        return res

    def raises(*args, **kwargs):
        raise FloatingPointError("diverged")

    monkeypatch.setitem(bench.TRAINERS, "gmm", {"m": exact, "s": raises, "f": off_by_a_little})
    init = bench.make_init("gmm", rel.d, seed=3)
    calls = bench.run_round("gmm", None, rel, init, 5, None, "round0")
    failures = bench.gate("gmm", calls, {5: bench.reference("gmm", rel, init, 5)})

    assert [c.algo for c in calls] == ["m", "s", "f"]  # nothing dropped
    assert all(c.seconds > 0 for c in calls)
    assert len(failures) == 2
    assert calls[0].error is None
    assert "FloatingPointError" in calls[1].error
    assert "history" in calls[2].error


def test_disagreement_with_m_counts_as_failed(monkeypatch, toy_gmm):
    rel, exact = toy_gmm

    def drifted_m(*args, **kwargs):
        res = exact(*args, **kwargs)
        res.params.sigma = res.params.sigma * (1 + 5e-8)  # inside the reference tolerance
        return res

    monkeypatch.setitem(bench.TRAINERS, "gmm", {"m": drifted_m, "s": exact, "f": exact})
    monkeypatch.setitem(bench.PAIR_TOL, "gmm", {"sigma": (1e-9, 0.0)})
    init = bench.make_init("gmm", rel.d, seed=3)
    calls = bench.run_round("gmm", None, rel, init, 5, None, "round0")
    failures = bench.gate("gmm", calls, {5: bench.reference("gmm", rel, init, 5)})

    assert len(failures) == 2
    assert calls[0].error is None
    assert all("differs from M" in c.error for c in calls[1:])
