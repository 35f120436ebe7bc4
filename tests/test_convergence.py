"""Convergence-criterion mode (Eq. 6 threshold) on the Spark trainers."""
import numpy as np
import pytest

from repro.core.params import init_gmm
from repro.data.normalized import multiway_relations_pdf
from repro.gmm import train_f_gmm, train_m_gmm, train_s_gmm


@pytest.fixture(scope="module")
def relations(spark):
    s_pdf, r_pdfs = multiway_relations_pdf(n_s=800, n_rs=[10], d_s=2, d_rs=[2], seed=7)
    return spark.createDataFrame(s_pdf), [spark.createDataFrame(r) for r in r_pdfs]


def test_f_gmm_tol_stops_early(relations, spark):
    s_df, r_dfs = relations
    init = init_gmm(4, 2, 0)
    res = train_f_gmm(spark, s_df, r_dfs, init=init, iters=50, tol=50.0)
    assert len(res.history) < 50
    h = np.array(res.history)
    assert abs(h[-1] - h[-2]) < 50.0


def test_s_gmm_tol_stops_early(relations, spark):
    s_df, r_dfs = relations
    init = init_gmm(4, 2, 0)
    res = train_s_gmm(spark, s_df, r_dfs, init=init, iters=50, tol=50.0)
    assert len(res.history) < 50


def test_m_gmm_tol_stops_early(relations, spark, tmp_path):
    s_df, r_dfs = relations
    init = init_gmm(4, 2, 0)
    res = train_m_gmm(
        spark, s_df, r_dfs, init=init, iters=50, tol=50.0, tmpdir=str(tmp_path)
    )
    assert len(res.history) < 50


def test_tol_runs_agree_across_algorithms(relations, spark, tmp_path):
    """Same tol, same init -> all three stop at the same iteration with the
    same trajectory (convergence is a function of the shared loglik)."""
    s_df, r_dfs = relations
    init = init_gmm(4, 2, 3)
    rf = train_f_gmm(spark, s_df, r_dfs, init=init, iters=30, tol=10.0)
    rs = train_s_gmm(spark, s_df, r_dfs, init=init, iters=30, tol=10.0)
    rm = train_m_gmm(spark, s_df, r_dfs, init=init, iters=30, tol=10.0, tmpdir=str(tmp_path))
    assert len(rf.history) == len(rs.history) == len(rm.history)
    np.testing.assert_allclose(rf.history, rs.history, rtol=1e-9)
    np.testing.assert_allclose(rf.history, rm.history, rtol=1e-9)
