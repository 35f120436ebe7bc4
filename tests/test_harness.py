"""Benchmark harness: matrix runs, agreement enforcement, table formatting."""
import re
import time

import pytest

import repro.gmm.f_gmm
from repro.bench.harness import Row, _check_agreement, format_rows, run_matrix
from repro.core.params import TrainResult, init_gmm
from repro.data.normalized import multiway_relations_pdf


@pytest.fixture(scope="module")
def tiny():
    return multiway_relations_pdf(n_s=600, n_rs=[8], d_s=2, d_rs=[2], seed=0, target=True)


def test_run_gmm_matrix_rows(spark, tiny):
    s, rs = tiny
    rows = run_matrix(spark, "GMM", "tiny", s, rs, size=2, iters=2)
    assert [row.algo for row in rows] == ["M-GMM", "S-GMM", "F-GMM"]
    assert all(row.dataset == "tiny" for row in rows)
    assert all(row.seconds > 0 for row in rows)


def test_run_nn_matrix_rows(spark, tiny):
    s, rs = tiny
    rows = run_matrix(spark, "NN", "tiny", s, rs, size=4, iters=2)
    assert [row.algo for row in rows] == ["M-NN", "S-NN", "F-NN"]


def test_seconds_time_the_whole_call(spark, tiny, monkeypatch):
    """A row's seconds include the trainer's setup, here F's R collection."""
    collect = repro.gmm.f_gmm.collect_dimension_tables

    def slow_collect(*args, **kwargs):
        time.sleep(2.0)
        return collect(*args, **kwargs)

    monkeypatch.setattr(repro.gmm.f_gmm, "collect_dimension_tables", slow_collect)
    s, rs = tiny
    rows = run_matrix(spark, "GMM", "tiny", s, rs, size=2, iters=1)
    assert {row.algo: row.seconds for row in rows}["F-GMM"] >= 2.0


def test_check_agreement_raises_on_divergence():
    p = init_gmm(2, 2, 0)
    ok = {"a": TrainResult(p, [1.0, 2.0]), "b": TrainResult(p.copy(), [1.0, 2.0])}
    _check_agreement(ok, "GMM", "ds")
    bad = {"a": TrainResult(p, [1.0, 2.0]), "b": TrainResult(p.copy(), [1.0, 9.0])}
    with pytest.raises(AssertionError, match="diverged"):
        _check_agreement(bad, "GMM", "ds")
    # Histories score the incoming parameters, so a diverged last update
    # shows only in the final params.
    last = p.copy()
    last.mu[1, 0] += 1e-3
    bad = {"a": TrainResult(p, [1.0, 2.0]), "b": TrainResult(last, [1.0, 2.0])}
    with pytest.raises(AssertionError, match="diverged on ds: mu of b"):
        _check_agreement(bad, "GMM", "ds")


def test_format_rows_layout():
    rows = [
        Row("ds1", "M-GMM", 10.0),
        Row("ds1", "S-GMM", 8.0),
        Row("ds1", "F-GMM", 2.0),
    ]
    out = format_rows(rows, "My Table")
    assert "My Table" in out
    assert "ds1" in out
    assert "M-GMM" in out and "F-GMM" in out
    # speedup = min(M,S)/F = 8/2 = 4x
    assert re.search(r"4\.00x", out)


def test_format_rows_multiple_datasets():
    rows = [
        Row("a", "M-NN", 4.0),
        Row("a", "F-NN", 1.0),
        Row("b", "M-NN", 6.0),
        Row("b", "F-NN", 3.0),
    ]
    out = format_rows(rows, "t")
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith(("a", "b"))) == 2
    assert "2.00x" in out  # dataset b: 6/3
