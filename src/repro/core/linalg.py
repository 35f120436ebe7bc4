"""Block linear algebra for the paper's factorized decompositions.

Implements, in vectorized NumPy:

* the factorization of Eq. 7-12 and its multi-way generalization, Eq. 19-21:
  the quadratic form ``(x - mu)^T I (x - mu)`` split into block terms where
  every term touching only ``x_R`` is precomputed once per R tuple (a binary
  join is the q=1 case, whose terms are Eq. 9-12's ``UL + UR + LL + LR``; at
  q=0 only the S block is left: M-GMM / S-GMM's form on joined rows);
* the dense quadratic form, used only by the reference trainer and the tests;
* responsibility (E-step) computation from quadratic forms, shared verbatim by
  every trainer so that exactness across M/S/F is down to float reassociation.

Feature layout convention: the joined vector is ``[x_S | x_R1 | ... | x_Rq]``
(S first, then the attribute tables in order), matching Table I of the paper
where ``d = dS + dR``.
"""
from __future__ import annotations

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))


def block_offsets(dims: list[int]) -> list[int]:
    """Cumulative offsets [0, d0, d0+d1, ...] for a feature partition."""
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out


def precisions_and_logdets(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component precision matrices ``Sigma_k^{-1}`` and ``log|Sigma_k|``.

    Uses Cholesky-based inversion for stability; raises ``LinAlgError`` if a
    covariance has collapsed (callers regularize via ``reg_covar`` upstream).
    """
    k, d, _ = sigma.shape
    prec = np.empty_like(sigma)
    logdet = np.empty(k)
    for i in range(k):
        chol = np.linalg.cholesky(sigma[i])
        logdet[i] = 2.0 * np.log(np.diag(chol)).sum()
        li = np.linalg.inv(chol)  # Sigma^{-1} = L^{-T} L^{-1}
        prec[i] = li.T @ li
    return prec, logdet


def dense_quadratic(x: np.ndarray, mu: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """Unfactorized quadratic forms ``q[n, k] = (x_n - mu_k)^T I_k (x_n - mu_k)``.

    The reference trainer's per-tuple O(d^2) computation (paper Section V-B
    cost analysis); the Spark trainers get it as the q=0 factorized form.
    """
    n = x.shape[0]
    k = mu.shape[0]
    quad = np.empty((n, k))
    for i in range(k):
        diff = x - mu[i]
        quad[:, i] = np.einsum("nd,nd->n", diff @ prec[i], diff)
    return quad


def log_responsibilities(
    quad: np.ndarray, pi: np.ndarray, logdet: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """E-step: responsibilities and per-row log-likelihood from quadratics.

    ``gamma[n, k] = pi_k N(x_n | mu_k, Sigma_k) / sum_j pi_j N(...)`` (Eq. 2),
    computed in log space with a logsumexp for stability. Returns
    ``(gamma (N,K), loglik (N,))``.
    """
    logw = np.log(pi)[None, :] - 0.5 * (d * _LOG_2PI + logdet[None, :] + quad)
    m = logw.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logw - m).sum(axis=1))
    gamma = np.exp(logw - lse[:, None])
    return gamma, lse


# ---------------------------------------------------------------------------
# Multi-way factorization (Eq. 19-21)
# ---------------------------------------------------------------------------


class MultiwayTerms:
    """Per-attribute-table reusable terms for the q-way factorized E-step.

    For each table ``i`` in ``1..q`` (S is table 0) precomputes, per R_i tuple
    and component:

    * ``pd[i][r, k, :]``  = ``x_Ri[r] - mu_Ri[k]`` (Eq. 20, computed once);
    * ``c[i][r, k]``      = ``PD_i^T I_ii PD_i`` (reused diagonal term);
    * ``w0[i][r, k, :]``  = ``I_0i PD_i`` (dS-vector for the S-cross term);
    * ``u[(i, j)][r, k, :]`` = ``I_ij PD_j[r]`` for i < j (dRi-vector), so the
      Ri-Rj cross term per S tuple is a dRi dot product of two table lookups.
    """

    def __init__(
        self,
        xrs: list[np.ndarray],
        mu: np.ndarray,
        prec: np.ndarray,
        dims: list[int],
    ) -> None:
        # dims = [dS, dR1, ..., dRq]
        off = block_offsets(dims)
        k = mu.shape[0]
        q = len(xrs)
        self.pd: list[np.ndarray] = []
        self.c: list[np.ndarray] = []
        self.w0: list[np.ndarray] = []
        self.u: dict[tuple[int, int], np.ndarray] = {}
        d_s = dims[0]
        for t in range(1, q + 1):
            xr = xrs[t - 1]
            n_r, d_r = xr.shape
            pd = np.empty((n_r, k, d_r))
            c = np.empty((n_r, k))
            w0 = np.empty((n_r, k, d_s))
            for i in range(k):
                pdi = xr - mu[i, off[t] : off[t + 1]]
                i_tt = prec[i, off[t] : off[t + 1], off[t] : off[t + 1]]
                i_0t = prec[i, :d_s, off[t] : off[t + 1]]
                pd[:, i, :] = pdi
                c[:, i] = np.einsum("nd,nd->n", pdi @ i_tt, pdi)
                w0[:, i, :] = pdi @ i_0t.T
            self.pd.append(pd)
            self.c.append(c)
            self.w0.append(w0)
        for a in range(1, q + 1):
            for b in range(a + 1, q + 1):
                # u[(a,b)][r, k, :] = I_ab @ PD_b[r]  (dRa-vector per R_b tuple)
                n_rb = xrs[b - 1].shape[0]
                d_ra = dims[a]
                u = np.empty((n_rb, k, d_ra))
                for i in range(k):
                    i_ab = prec[i, off[a] : off[a + 1], off[b] : off[b + 1]]
                    u[:, i, :] = self.pd[b - 1][:, i, :] @ i_ab.T
                self.u[(a, b)] = u


def factorized_quadratic_multiway(
    xs: np.ndarray,
    fk_idx: list[np.ndarray],
    mu: np.ndarray,
    prec: np.ndarray,
    terms: MultiwayTerms | None,
) -> np.ndarray:
    """Eq. 19 for a batch of S tuples: sum of (q+1)^2 small block terms.

    ``q[n,k] = PD_S^T I_00 PD_S + sum_i (2 PD_S . w0_i[fk_i] + c_i[fk_i])
               + sum_{i<j} 2 PD_i[fk_i] . u_ij[fk_j]``.

    ``q = len(fk_idx)``; with ``q = 0`` (``xs`` is a whole joined row) only the
    first term is left and ``terms`` is not read, so it may be ``None``.
    """
    n, d_s = xs.shape
    k = mu.shape[0]
    q = len(fk_idx)
    quad = np.empty((n, k))
    for i in range(k):
        pd_s = xs - mu[i, :d_s]
        i_ss = prec[i, :d_s, :d_s]
        acc = np.einsum("nd,nd->n", pd_s @ i_ss, pd_s)
        for t in range(1, q + 1):
            idx = fk_idx[t - 1]
            acc = acc + 2.0 * np.einsum(
                "nd,nd->n", pd_s, terms.w0[t - 1][idx, i, :]
            ) + terms.c[t - 1][idx, i]
        for a in range(1, q + 1):
            for b in range(a + 1, q + 1):
                pa = terms.pd[a - 1][fk_idx[a - 1], i, :]
                ub = terms.u[(a, b)][fk_idx[b - 1], i, :]
                acc = acc + 2.0 * np.einsum("nd,nd->n", pa, ub)
        quad[:, i] = acc
    return quad
