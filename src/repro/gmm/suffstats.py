"""GMM sufficient statistics in the factorized form of Section V.

One kernel serves all three trainers. The only statistics accumulated over
the scanned relation are

* ``nk, ll`` — component masses and the running log-likelihood (Eq. 5-6);
* ``a = sum gamma x_S``, ``b = sum gamma x_S x_S^T`` — the S-side blocks;
* per attribute table t: ``g_t[k, r] = sum_{n: fk_t(n)=r} gamma_nk`` — the
  per-FK responsibility masses (the paper's reuse counts), and
  ``h_t[k, r, :] = sum_{n: fk_t(n)=r} gamma_nk x_S`` — for the S-R_t cross
  scatter block (Eq. 16-17);
* per table pair a<b: ``c_ab[k, r, :] = sum_{n: fk_a=r} gamma_nk x_Rb[fk_b]``
  — for the R_a-R_b cross blocks of the multi-way scatter (Eq. 23-24).

``assemble_moments`` then reconstitutes the full-d raw moments with one small
matmul per block against the dimension tables' feature matrices — each R tuple
participates once, which is precisely the factorization's saving. Where that
finishing runs is F's choice of return form (``factorized_return``): in each
batch, over the R rows the batch references, when the full-d moments are the
smaller vector, else once per pass on the driver.

F-GMM scans S with q attribute tables. M-GMM and S-GMM scan the joined ``T``
as a fact table with no attribute table (q = 0): then ``x_S`` is the whole
joined row, ``(nk, a, b)`` are the unfactorized ``(Nk, Sx, Sxx)`` at O(N d^2)
and ``assemble_moments(stats, [])`` only copies them out.
"""
from __future__ import annotations

import numpy as np

from repro.core.aggregate import StatLayout, segment_sums
from repro.core.linalg import (
    MultiwayTerms,
    block_offsets,
    factorized_quadratic_multiway,
    log_responsibilities,
    precisions_and_logdets,
)
from repro.core.params import GMMParams
from repro.core.relational import distinct_rows, features, fk_rows


def gmm_payload(params: GMMParams) -> dict:
    """Driver-side per-iteration derivations shared by all trainers."""
    prec, logdet = precisions_and_logdets(params.sigma)
    return {
        "pi": params.pi,
        "mu": params.mu,
        "prec": prec,
        "logdet": logdet,
        "d": params.d,
    }


def factorized_layout(k: int, d_s: int, n_rs: list[int], d_rs: list[int]) -> StatLayout:
    shapes: dict[str, tuple] = {
        "nk": (k,),
        "a": (k, d_s),
        "b": (k, d_s, d_s),
        "ll": (),
    }
    q = len(n_rs)
    for t in range(1, q + 1):
        shapes[f"g{t}"] = (k, n_rs[t - 1])
        shapes[f"h{t}"] = (k, n_rs[t - 1], d_s)
    for a in range(1, q + 1):
        for b in range(a + 1, q + 1):
            shapes[f"c{a}_{b}"] = (k, n_rs[a - 1], d_rs[b - 1])
    return StatLayout(shapes)


def factorized_return(
    k: int, d_s: int, xrs: list[np.ndarray]
) -> tuple[StatLayout, list[np.ndarray]]:
    """The vector each F-GMM task returns, and the R matrices the driver
    finishes it against.

    Of the two forms, the smaller one: the full-d moments, ``K(1+d+d^2)+1``
    floats as M and S return, which each batch finishes over the R rows it
    references (the driver then finishes against ``[]``); or the per-R-tuple
    sums ``g_t, h_t, c_ab`` of the module docstring,
    ``K(1+dS+dS^2)+1 + K sum_t nRt(1+dS) + K sum_{a<b} nRa dRb`` floats,
    which the driver finishes against all of ``xrs`` once per pass. Finishing
    in a batch costs ``K nu (dS dR + dR^2)`` per table for its ``nu`` distinct
    FKs, so narrow R tables with many tuples return moments and wide R tables
    with few tuples return sums.
    """
    d_rs = [xr.shape[1] for xr in xrs]
    moments = factorized_layout(k, d_s + sum(d_rs), [], [])
    sums = factorized_layout(k, d_s, [xr.shape[0] for xr in xrs], d_rs)
    return (moments, []) if moments.size <= sums.size else (sums, xrs)


def make_factorized_batch_fn(
    payload: dict,
    terms: MultiwayTerms | None,
    xrs: list[np.ndarray],
    fk_names: list[str],
    layout: StatLayout,
):
    """Batch of fact tuples (its packed ``x`` of width ``d_S``) -> flat stats.

    The E-step uses the factorized quadratic form (per-R-tuple ``terms``
    precomputed once on the driver); the M-step contributions are the small
    per-FK aggregates described in the module docstring; F-GMM never forms a
    wide joined row. When ``layout`` holds full-d moments (``factorized_return``),
    the batch takes those aggregates over its own distinct FKs and finishes
    them with ``assemble_moments`` against those R rows, so its work is
    bounded by its size, not by nR. With ``xrs = fk_names = []`` the batch is
    the joined rows themselves and ``terms`` may be ``None`` (M-GMM, S-GMM).
    """
    k, d_out = layout.shapes["a"]
    q = len(xrs)
    d_s = payload["d"] - sum(xr.shape[1] for xr in xrs)
    n_rs = [xr.shape[0] for xr in xrs]
    finish = d_out > d_s  # the layout holds full-d moments

    def batch_fn(batch) -> np.ndarray:
        xs = features(batch, d_s)
        fk_idx = fk_rows(batch, fk_names, n_rs)
        quad = factorized_quadratic_multiway(
            xs, fk_idx, payload["mu"], payload["prec"], terms
        )
        gamma, ll = log_responsibilities(
            quad, payload["pi"], payload["logdet"], payload["d"]
        )
        if finish:
            uniq, rows = distinct_rows(fk_idx)
            xrs_b = [xr[u] for xr, u in zip(xrs, uniq)]  # the R rows this batch references
        else:
            rows, xrs_b = fk_idx, xrs
        stats: dict[str, np.ndarray] = {
            "nk": gamma.sum(axis=0),
            "a": gamma.T @ xs,
            "ll": ll.sum(),
        }
        b = np.empty((k, d_s, d_s))
        for i in range(k):
            b[i] = xs.T @ (gamma[:, i : i + 1] * xs)
        stats["b"] = b
        for t, (idx, xr) in enumerate(zip(rows, xrs_b), start=1):
            n_r = xr.shape[0]
            g = np.empty((k, n_r))
            h = np.empty((k, n_r, d_s))
            for i in range(k):
                g[i] = np.bincount(idx, weights=gamma[:, i], minlength=n_r)
                h[i] = segment_sums(idx, gamma[:, i : i + 1] * xs, n_r)
            stats[f"g{t}"] = g
            stats[f"h{t}"] = h
        for a in range(1, q + 1):
            for bt in range(a + 1, q + 1):
                xb = xrs_b[bt - 1][rows[bt - 1]]  # (B, dRb) gathered once
                c = np.empty((k, xrs_b[a - 1].shape[0], xb.shape[1]))
                for i in range(k):
                    c[i] = segment_sums(rows[a - 1], gamma[:, i : i + 1] * xb, c.shape[1])
                stats[f"c{a}_{bt}"] = c
        if finish:
            nk, sx, sxx, ll_sum = assemble_moments(stats, xrs_b)
            stats = {"nk": nk, "a": sx, "b": sxx, "ll": ll_sum}
        return layout.pack(stats)

    return batch_fn


def assemble_moments(
    stats: dict[str, np.ndarray], xrs: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Reconstitute full-d raw moments from factorized stats (Eq. 13-24).

    Each dimension-table feature matrix enters once per block: O(nR) work in
    place of the baselines' O(N) — the M-step side of F-GMM's savings.
    Returns ``(nk, sx (K,d), sxx (K,d,d), ll)``.
    """
    q = len(xrs)
    k, d_s = stats["a"].shape
    off = block_offsets([d_s] + [xr.shape[1] for xr in xrs])
    d = off[-1]
    sx = np.zeros((k, d))
    sxx = np.zeros((k, d, d))
    sx[:, :d_s] = stats["a"]
    sxx[:, :d_s, :d_s] = stats["b"]
    for t in range(1, q + 1):
        lo, hi = off[t], off[t + 1]
        xr = xrs[t - 1]
        g = stats[f"g{t}"]  # (K, nRt)
        h = stats[f"h{t}"]  # (K, nRt, dS)
        for i in range(k):
            sx[i, lo:hi] = g[i] @ xr
            sr = h[i].T @ xr  # (dS, dRt): sum gamma x_S x_Rt^T
            sxx[i, :d_s, lo:hi] = sr
            sxx[i, lo:hi, :d_s] = sr.T
            sxx[i, lo:hi, lo:hi] = xr.T @ (g[i][:, None] * xr)
    for a in range(1, q + 1):
        for bt in range(a + 1, q + 1):
            alo, ahi = off[a], off[a + 1]
            blo, bhi = off[bt], off[bt + 1]
            c = stats[f"c{a}_{bt}"]  # (K, nRa, dRb)
            xa = xrs[a - 1]
            for i in range(k):
                ab = xa.T @ c[i]  # (dRa, dRb)
                sxx[i, alo:ahi, blo:bhi] = ab
                sxx[i, blo:bhi, alo:ahi] = ab.T
    return stats["nk"], sx, sxx, float(stats["ll"])
