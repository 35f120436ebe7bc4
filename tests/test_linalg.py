"""The factorized decompositions (Eq. 7-24) are exact — block vs dense.

These are the paper's central algebraic claims: the Mahalanobis quadratic
form of a joined tuple equals the sum of the UL/UR/LL/LR block terms
(binary, the q=1 case), and of the (q+1)^2 block terms (multi-way), with
every R-side term computed from the normalized relations alone.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linalg import (
    MultiwayTerms,
    block_offsets,
    dense_quadratic,
    factorized_quadratic_multiway,
    log_responsibilities,
    precisions_and_logdets,
)


def _random_spd(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


def _random_gmm(d: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=(k, d))
    sigma = np.stack([_random_spd(d, rng) for _ in range(k)])
    pi = rng.dirichlet(np.ones(k))
    return pi, mu, sigma


# ---------------------------------------------------------------------------
# block_offsets / precisions
# ---------------------------------------------------------------------------


def test_block_offsets_basic():
    assert block_offsets([3, 2, 4]) == [0, 3, 5, 9]
    assert block_offsets([]) == [0]
    assert block_offsets([7]) == [0, 7]


@pytest.mark.parametrize("d", [1, 2, 5, 12])
@pytest.mark.parametrize("k", [1, 3])
def test_precisions_invert_and_logdet(d, k):
    rng = np.random.default_rng(d * 10 + k)
    sigma = np.stack([_random_spd(d, rng) for _ in range(k)])
    prec, logdet = precisions_and_logdets(sigma)
    for i in range(k):
        np.testing.assert_allclose(prec[i] @ sigma[i], np.eye(d), atol=1e-8)
        sign, ld = np.linalg.slogdet(sigma[i])
        assert sign > 0
        np.testing.assert_allclose(logdet[i], ld, rtol=1e-10)


def test_precisions_raise_on_non_spd():
    """A collapsed covariance raises ``LinAlgError`` naming its component."""
    sigma = -np.eye(3)[None]
    with pytest.raises(np.linalg.LinAlgError, match="component 0"):
        precisions_and_logdets(sigma)
    sigma = np.tile(np.eye(3), (3, 1, 1))
    sigma[1] = 0.0  # only component 1 is singular
    with pytest.raises(np.linalg.LinAlgError, match="component 1: covariance"):
        precisions_and_logdets(sigma)


# ---------------------------------------------------------------------------
# dense quadratic + responsibilities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_dense_quadratic_matches_direct(seed):
    rng = np.random.default_rng(seed)
    d, k, n = 5, 3, 40
    pi, mu, sigma = _random_gmm(d, k, seed)
    prec, _ = precisions_and_logdets(sigma)
    x = rng.normal(size=(n, d))
    quad = dense_quadratic(x, mu, prec)
    for i in range(k):
        for j in range(0, n, 7):
            diff = x[j] - mu[i]
            np.testing.assert_allclose(quad[j, i], diff @ prec[i] @ diff, rtol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_responsibilities_normalize_and_match_direct(seed):
    d, k, n = 4, 3, 60
    rng = np.random.default_rng(seed + 50)
    pi, mu, sigma = _random_gmm(d, k, seed + 50)
    prec, logdet = precisions_and_logdets(sigma)
    x = rng.normal(size=(n, d))
    quad = dense_quadratic(x, mu, prec)
    gamma, ll = log_responsibilities(quad, pi, logdet, d)
    np.testing.assert_allclose(gamma.sum(axis=1), np.ones(n), rtol=1e-12)
    # direct (unstable) evaluation of Eq. 1-2 for cross-checking
    dens = np.empty((n, k))
    for i in range(k):
        diff = x - mu[i]
        q = np.einsum("nd,nd->n", diff @ prec[i], diff)
        dens[:, i] = pi[i] * np.exp(-0.5 * q) / np.sqrt(
            (2 * np.pi) ** d * np.exp(logdet[i])
        )
    np.testing.assert_allclose(gamma, dens / dens.sum(axis=1, keepdims=True), rtol=1e-8)
    np.testing.assert_allclose(ll, np.log(dens.sum(axis=1)), rtol=1e-8)


# ---------------------------------------------------------------------------
# factorization: binary (Eq. 7-12) is the q=1 case of multi-way (Eq. 19-21)
# ---------------------------------------------------------------------------


def _assert_factorized_equals_dense(d_s, d_rs, k):
    seed = sum(d_rs) * 10 + d_s + k
    rng = np.random.default_rng(seed)
    d = d_s + sum(d_rs)
    _, mu, sigma = _random_gmm(d, k, seed)
    prec, _ = precisions_and_logdets(sigma)
    n = 40
    xs = rng.normal(size=(n, d_s))
    xrs = [rng.normal(size=(rng.integers(3, 9), dr)) for dr in d_rs]
    fk_idx = [rng.integers(0, xr.shape[0], size=n) for xr in xrs]
    x = np.concatenate([xs] + [xr[idx] for xr, idx in zip(xrs, fk_idx)], axis=1)
    if not d_rs:  # q = 0 is M/S's form on joined rows: the dense one, bit for bit
        quad_f = factorized_quadratic_multiway(xs, [], mu, prec, None)
        np.testing.assert_array_equal(quad_f, dense_quadratic(x, mu, prec))
        return
    terms = MultiwayTerms(xrs, mu, prec, [d_s, *d_rs])
    quad_f = factorized_quadratic_multiway(xs, fk_idx, mu, prec, terms)
    np.testing.assert_allclose(quad_f, dense_quadratic(x, mu, prec), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("d_s,d_r", [(1, 1), (2, 3), (5, 15), (7, 2), (3, 30)])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_factorized_binary_equals_dense(d_s, d_r, k):
    """Eq. 9-12's UL + UR + LL + LR: the q-way terms with one attribute table."""
    _assert_factorized_equals_dense(d_s, [d_r], k)


@pytest.mark.parametrize(
    "d_s,d_rs", [(2, [3]), (2, [3, 4]), (3, [2, 2, 5]), (1, [1, 1]), (4, [6, 3, 2, 5]), (5, [])]
)
@pytest.mark.parametrize("k", [1, 3])
def test_factorized_multiway_equals_dense(d_s, d_rs, k):
    _assert_factorized_equals_dense(d_s, d_rs, k)


def test_factorized_terms_shapes():
    """Only the terms the kernel reads: no ``pd`` for the last table, which
    the cross terms read only through ``u``."""
    rng = np.random.default_rng(0)
    d_s, d_rs, n_rs, k = 3, [4, 2], [6, 5], 2
    _, mu, sigma = _random_gmm(d_s + sum(d_rs), k, 0)
    prec, _ = precisions_and_logdets(sigma)
    xrs = [rng.normal(size=(n_r, d_r)) for n_r, d_r in zip(n_rs, d_rs)]
    terms = MultiwayTerms(xrs, mu, prec, [d_s, *d_rs])
    assert [pd.shape for pd in terms.pd] == [(6, k, 4)]
    assert [c.shape for c in terms.c] == [(6, k), (5, k)]
    assert [w.shape for w in terms.w0] == [(6, k, d_s), (5, k, d_s)]
    assert {key: u.shape for key, u in terms.u.items()} == {(1, 2): (5, k, 4)}
    binary = MultiwayTerms(xrs[:1], mu[:, : d_s + 4], prec[:, : d_s + 4, : d_s + 4], [d_s, 4])
    assert binary.pd == [] and binary.u == {}


@settings(max_examples=15, deadline=None)
@given(q=st.integers(1, 3), k=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_factorized_multiway_equals_dense_hypothesis(q, k, seed):
    rng = np.random.default_rng(seed)
    d_s = int(rng.integers(1, 4))
    d_rs = [int(rng.integers(1, 4)) for _ in range(q)]
    d = d_s + sum(d_rs)
    _, mu, sigma = _random_gmm(d, k, seed)
    prec, _ = precisions_and_logdets(sigma)
    n = 15
    xs = rng.normal(size=(n, d_s))
    xrs = [rng.normal(size=(4, dr)) for dr in d_rs]
    fk_idx = [rng.integers(0, 4, size=n) for _ in range(q)]
    x = np.concatenate([xs] + [xr[idx] for xr, idx in zip(xrs, fk_idx)], axis=1)
    terms = MultiwayTerms(xrs, mu, prec, [d_s, *d_rs])
    np.testing.assert_allclose(
        factorized_quadratic_multiway(xs, fk_idx, mu, prec, terms),
        dense_quadratic(x, mu, prec),
        rtol=1e-8,
        atol=1e-8,
    )
