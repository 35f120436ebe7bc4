"""Reference EM trainer: textbook properties + the raw-moment M-step identity.

The key test here validates the DESIGN.md claim that the fused raw-moment
M-step equals the paper's centered two-pass form (Eq. 3-4) exactly: an
independent textbook implementation (centered scatter with the new mu) is
written inside the test and compared against ``mstep_from_moments``.
"""
import numpy as np
import pytest

from repro.core.em_ref import (
    dense_suffstats,
    em_fit,
    em_iterate,
    loglikelihood,
    mstep_from_moments,
)
from repro.core.linalg import dense_quadratic, log_responsibilities, precisions_and_logdets
from repro.core.params import init_gmm
from repro.data.normalized import gaussian_mixture_features


@pytest.fixture(scope="module")
def data():
    return gaussian_mixture_features(2000, 4, seed=0, k_true=3)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [1, 2, 4])
def test_loglik_monotone(data, seed, k):
    """EM's defining property: Eq. 6 is non-decreasing across iterations."""
    res = em_fit(data, init_gmm(4, k, seed), iters=6)
    h = np.array(res.history)
    assert np.all(np.diff(h) >= -1e-6 * np.abs(h[:-1]))


def test_final_loglik_matches_loglikelihood_fn(data):
    init = init_gmm(4, 2, 0)
    res = em_fit(data, init, iters=3)
    # history[-1] is the loglik of the params *entering* the last iteration;
    # evaluating the params from the second-to-last iteration must match it.
    res2 = em_fit(data, init, iters=2)
    np.testing.assert_allclose(loglikelihood(data, res2.params), res.history[-1], rtol=1e-10)


def test_recovers_separated_clusters():
    rng = np.random.default_rng(1)
    x = np.concatenate(
        [rng.normal(-8, 0.5, size=(500, 2)), rng.normal(8, 0.5, size=(500, 2))]
    )
    res = em_fit(x, init_gmm(2, 2, 3), iters=30)
    mus = sorted(res.params.mu[:, 0])
    assert abs(mus[0] + 8) < 0.5 and abs(mus[1] - 8) < 0.5
    np.testing.assert_allclose(res.params.pi, [0.5, 0.5], atol=0.05)


@pytest.mark.parametrize("k", [1, 3])
def test_mstep_valid_distribution(data, k):
    init = init_gmm(4, k, 0)
    prec, logdet = precisions_and_logdets(init.sigma)
    quad = dense_quadratic(data, init.mu, prec)
    gamma, _ = log_responsibilities(quad, init.pi, logdet, 4)
    nk, sx, sxx = dense_suffstats(data, gamma)
    p = mstep_from_moments(nk, sx, sxx)
    np.testing.assert_allclose(p.pi.sum(), 1.0, rtol=1e-12)
    for i in range(k):
        np.testing.assert_allclose(p.sigma[i], p.sigma[i].T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(p.sigma[i]) > 0)


def test_raw_moment_mstep_equals_centered_two_pass(data):
    """DESIGN.md Section 2: Sxx/Nk - mu mu^T == centered scatter with new mu."""
    init = init_gmm(4, 3, 2)
    prec, logdet = precisions_and_logdets(init.sigma)
    quad = dense_quadratic(data, init.mu, prec)
    gamma, _ = log_responsibilities(quad, init.pi, logdet, 4)
    nk, sx, sxx = dense_suffstats(data, gamma)
    ours = mstep_from_moments(nk, sx, sxx, reg_covar=0.0)
    # Independent textbook implementation (Algorithm 1 Lines 13-21): first
    # pass for mu (Eq. 3), second centered pass for Sigma (Eq. 4).
    for i in range(3):
        mu_i = (gamma[:, i : i + 1] * data).sum(axis=0) / gamma[:, i].sum()
        np.testing.assert_allclose(ours.mu[i], mu_i, rtol=1e-9)
        diff = data - mu_i
        sig_i = (gamma[:, i, None, None] * np.einsum("nd,ne->nde", diff, diff)).sum(
            axis=0
        ) / gamma[:, i].sum()
        np.testing.assert_allclose(ours.sigma[i], sig_i, rtol=1e-7, atol=1e-10)


def test_reg_covar_added_to_diagonal(data):
    init = init_gmm(4, 2, 0)
    prec, logdet = precisions_and_logdets(init.sigma)
    quad = dense_quadratic(data, init.mu, prec)
    gamma, _ = log_responsibilities(quad, init.pi, logdet, 4)
    nk, sx, sxx = dense_suffstats(data, gamma)
    p0 = mstep_from_moments(nk, sx, sxx, reg_covar=0.0)
    p1 = mstep_from_moments(nk, sx, sxx, reg_covar=0.5)
    np.testing.assert_allclose(p1.sigma - p0.sigma, np.tile(0.5 * np.eye(4), (2, 1, 1)), atol=1e-12)


def test_tol_early_stop(data):
    res = em_fit(data, init_gmm(4, 2, 0), iters=100, tol=1e3)
    assert len(res.history) < 100


def test_em_iterate_deterministic(data):
    init = init_gmm(4, 2, 5)
    p1, ll1 = em_iterate(data, init)
    p2, ll2 = em_iterate(data, init)
    assert ll1 == ll2
    np.testing.assert_array_equal(p1.mu, p2.mu)
    np.testing.assert_array_equal(p1.sigma, p2.sigma)


def test_single_component_closed_form(data):
    """K=1: one EM step lands on the sample mean/covariance regardless of init."""
    p, _ = em_iterate(data, init_gmm(4, 1, 0), reg_covar=0.0)
    np.testing.assert_allclose(p.mu[0], data.mean(axis=0), rtol=1e-9)
    np.testing.assert_allclose(p.sigma[0], np.cov(data.T, bias=True), rtol=1e-7)
    assert p.pi[0] == pytest.approx(1.0)
