"""Multi-way (q >= 2) GMM exactness: Section V-C's generalization."""
import numpy as np
import pytest

from repro.core.em_ref import em_fit
from repro.core.params import init_gmm
from repro.data.normalized import densify_pdf, multiway_relations_pdf
from repro.gmm import train_f_gmm, train_m_gmm, train_s_gmm

CONFIGS = {
    "q2": dict(n_s=1200, n_rs=[20, 12], d_s=2, d_rs=[3, 2], k=2, iters=3, seed=0),
    "q3": dict(n_s=900, n_rs=[8, 6, 10], d_s=1, d_rs=[2, 3, 2], k=2, iters=3, seed=1),
}


@pytest.fixture(scope="module", params=list(CONFIGS), ids=list(CONFIGS))
def trained(request, spark, tmp_path_factory):
    cfg = CONFIGS[request.param]
    s_pdf, r_pdfs = multiway_relations_pdf(
        n_s=cfg["n_s"], n_rs=cfg["n_rs"], d_s=cfg["d_s"], d_rs=cfg["d_rs"], seed=cfg["seed"]
    )
    x, _ = densify_pdf(s_pdf, r_pdfs)
    d = cfg["d_s"] + sum(cfg["d_rs"])
    init = init_gmm(d, cfg["k"], cfg["seed"] + 20)
    ref = em_fit(x, init, iters=cfg["iters"])
    s_df = spark.createDataFrame(s_pdf)
    r_dfs = [spark.createDataFrame(r) for r in r_pdfs]
    tmpdir = str(tmp_path_factory.mktemp(f"mw_{request.param}"))
    results = {
        "M": train_m_gmm(spark, s_df, r_dfs, init=init, iters=cfg["iters"], tmpdir=tmpdir),
        "S": train_s_gmm(spark, s_df, r_dfs, init=init, iters=cfg["iters"]),
        "F": train_f_gmm(spark, s_df, r_dfs, init=init, iters=cfg["iters"]),
    }
    return cfg, ref, results


@pytest.mark.parametrize("algo", ["M", "S", "F"])
def test_params_match_reference(trained, algo):
    _, ref, results = trained
    res = results[algo]
    np.testing.assert_allclose(res.params.mu, ref.params.mu, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(res.params.sigma, ref.params.sigma, rtol=1e-7, atol=1e-10)
    np.testing.assert_allclose(res.params.pi, ref.params.pi, rtol=1e-9)


@pytest.mark.parametrize("algo", ["M", "S", "F"])
def test_history_matches_reference(trained, algo):
    _, ref, results = trained
    np.testing.assert_allclose(results[algo].history, ref.history, rtol=1e-9)


def test_f_cross_blocks_nonzero(trained):
    """The learned q-way covariance couples features across attribute tables
    (off-diagonal R_a-R_b blocks are not structurally zero), i.e. the
    general-GMM case genuinely exercises Eq. 23's cross terms."""
    cfg, _, results = trained
    sigma = results["F"].params.sigma
    d_s = cfg["d_s"]
    a_lo, a_hi = d_s, d_s + cfg["d_rs"][0]
    b_lo = d_s + cfg["d_rs"][0]
    cross = sigma[:, a_lo:a_hi, b_lo:]
    assert np.abs(cross).max() > 0
