"""Single-node reference EM trainer for full-covariance GMMs.

Ground truth for the exactness tests: every Spark trainer (M/S/F, binary and
multi-way) must reproduce this trainer's parameter trajectory to floating-point
reassociation when given the same init, because the paper's decompositions are
exact (Section V-B, "the correctness of the calculation can be guaranteed").

The M-step uses the raw-moment form ``Sigma_k = Sxx_k / N_k - mu_k mu_k^T``,
which is algebraically identical to the paper's centered two-pass form
(Eq. 4) because ``mu_k = Sx_k / N_k`` — see DESIGN.md Section 2. The same
``mstep_from_moments`` routine is shared verbatim by the Spark trainers.
"""
from __future__ import annotations

import numpy as np

from repro.core.linalg import dense_quadratic, log_responsibilities, precisions_and_logdets
from repro.core.params import NO_ROWS, GMMParams, TrainResult


def dense_suffstats(
    x: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw-moment sufficient statistics of one batch.

    Returns ``(Nk (K,), Sx (K, d), Sxx (K, d, d))`` with
    ``Sxx[k] = sum_n gamma_nk x_n x_n^T`` — the unfactorized O(N d^2)
    computation the baselines pay (Eq. 14 before decomposition).
    """
    k = gamma.shape[1]
    d = x.shape[1]
    nk = gamma.sum(axis=0)
    sx = gamma.T @ x
    sxx = np.empty((k, d, d))
    for i in range(k):
        sxx[i] = x.T @ (gamma[:, i : i + 1] * x)
    return nk, sx, sxx


def mstep_from_moments(
    nk: np.ndarray,
    sx: np.ndarray,
    sxx: np.ndarray,
    reg_covar: float = 1e-6,
) -> GMMParams:
    """M-step (Eq. 3-5) from raw moments; shared by every trainer.

    ``reg_covar`` adds a small ridge to the covariance diagonal — standard
    practice to keep Cholesky factorizable when a component collapses.
    Zero total weight (no rows) raises a ``ValueError``.
    """
    n = nk.sum()  # Eq. 5: N = sum_k N_k
    if n == 0:
        raise ValueError(NO_ROWS)
    k, d = sx.shape
    pi = nk / n
    mu = sx / nk[:, None]
    sigma = sxx / nk[:, None, None] - np.einsum("kd,ke->kde", mu, mu)
    sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
    sigma[:, np.arange(d), np.arange(d)] += reg_covar
    return GMMParams(pi=pi, mu=mu, sigma=sigma)


def em_iterate(
    x: np.ndarray, params: GMMParams, reg_covar: float = 1e-6
) -> tuple[GMMParams, float]:
    """One fused E+M iteration over a dense matrix; returns (params, loglik).

    The log-likelihood reported is that of the *incoming* parameters (Eq. 6),
    matching what Algorithm 1 would observe at the top of the iteration.
    """
    prec, logdet = precisions_and_logdets(params.sigma)
    quad = dense_quadratic(x, params.mu, prec)
    gamma, ll = log_responsibilities(quad, params.pi, logdet, params.d)
    nk, sx, sxx = dense_suffstats(x, gamma)
    return mstep_from_moments(nk, sx, sxx, reg_covar), float(ll.sum())


def em_fit(
    x: np.ndarray,
    init: GMMParams,
    iters: int = 10,
    tol: float | None = None,
) -> TrainResult:
    """Run EM for ``iters`` iterations (or until the loglik delta < ``tol``).

    ``tol`` is the paper's convergence criterion on Eq. 6; the benchmark
    harness fixes ``iters`` instead so all algorithms do identical work.
    """
    params = init.copy()
    history: list[float] = []
    for _ in range(iters):
        params, ll = em_iterate(x, params)
        if tol is not None and history and abs(ll - history[-1]) < tol:
            history.append(ll)
            break
        history.append(ll)
    return TrainResult(params=params, history=history)


def loglikelihood(x: np.ndarray, params: GMMParams) -> float:
    """Total data log-likelihood under ``params`` (Eq. 6)."""
    prec, logdet = precisions_and_logdets(params.sigma)
    quad = dense_quadratic(x, params.mu, prec)
    _, ll = log_responsibilities(quad, params.pi, logdet, params.d)
    return float(ll.sum())
