"""Benchmark harness: matrix runs, agreement enforcement, table formatting."""
import re

import pytest

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
    metrics = {row.final_metric for row in rows}
    assert max(metrics) - min(metrics) < 1e-6 * abs(rows[0].final_metric)


def test_run_nn_matrix_rows(spark, tiny):
    s, rs = tiny
    rows = run_matrix(spark, "NN", "tiny", s, rs, size=4, iters=2)
    assert [row.algo for row in rows] == ["M-NN", "S-NN", "F-NN"]
    assert rows[0].materialize_s > 0  # M materializes
    assert rows[2].materialize_s == 0.0  # F does not


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
        Row("ds1", "M-GMM", 10.0, 2.0, -1.0),
        Row("ds1", "S-GMM", 8.0, 0.0, -1.0),
        Row("ds1", "F-GMM", 2.0, 0.0, -1.0),
    ]
    out = format_rows(rows, "My Table")
    assert "My Table" in out
    assert "ds1" in out
    assert "M-GMM" in out and "F-GMM" in out
    # speedup = min(M,S)/F = 8/2 = 4x
    assert re.search(r"4\.00x", out)


def test_format_rows_multiple_datasets():
    rows = [
        Row("a", "M-NN", 4.0, 1.0, 0.5),
        Row("a", "F-NN", 1.0, 0.0, 0.5),
        Row("b", "M-NN", 6.0, 1.0, 0.4),
        Row("b", "F-NN", 3.0, 0.0, 0.4),
    ]
    out = format_rows(rows, "t")
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith(("a", "b"))) == 2
    assert "2.00x" in out  # dataset b: 6/3
