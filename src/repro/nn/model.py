"""Factorized NN forward/backward computation (paper Section VI-A).

Forward, layer 1 (Section VI-A1): ``a = W_S x_S + (sum_t W_Rt x_Rt + b)``.
The parenthesized per-R-tuple vectors ``T2_t = x_Rt W_Rt^T`` are computed
once per R tuple per epoch (weights are constant within an epoch) and looked
up by FK for every fact tuple — the reused calculation that F-NN exploits.
Factorization stops after layer 1: Section VI-A2 shows exactness beyond it
requires an *additive* activation and costs more ops than it saves even then
(see ``repro.core.nn_ref.ACTIVATIONS`` and tests/test_activations.py).

Backward (Section VI-A3): ``dE/dW1 = [PG_S | PG_R1 | ...]`` (Eq. 28-32);
``PG_Rt = (per-FK sums of delta)^T x_Rt`` — a per-FK reduction over the
fact table followed by one small matmul in which each R tuple enters once,
instead of the dense ``delta^T X`` over the N x d joined matrix. F-NN does
both per batch, over the batch's distinct FKs (``w1_sums``), so each batch
returns the q = 0 statistics M-NN and S-NN return. That finishing is linear
in dR, ``nh nu dRt`` for a batch's ``nu`` distinct FKs, where F-GMM's
``x_R^T diag(g) x_R`` is quadratic, so F-NN finishes in every batch while
F-GMM chooses (``repro.gmm.suffstats.factorized_return``). The hidden
delta ``(o - y) w2 * f'(a)`` takes ``f'`` from the forward output ``h = f(a)``
(``Activation.df``), so each batch evaluates the nonlinearity once.

One kernel serves all three trainers: M-NN and S-NN run it on the joined
rows with no attribute table (q = 0), where ``W_S`` is all of ``W1`` and the
statistics are the unfactorized full-batch gradients (``dense_grad_stats``).

Gradients are accumulated *unnormalized* (plain sums over rows) so partition
partials add exactly; the driver divides by N once (``finalize_factorized``),
making every trainer's update bitwise-comparable to the dense reference.
"""
from __future__ import annotations

import numpy as np

from repro.core.aggregate import StatLayout, segment_sums
from repro.core.linalg import block_offsets
from repro.core.nn_ref import Activation
from repro.core.params import NO_ROWS, NNParams


def split_w1(w1: np.ndarray, d_s: int, d_rs: list[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split input->hidden weights into the S block and per-R-table blocks."""
    off = block_offsets([d_s, *d_rs])
    return w1[:, :d_s], [w1[:, lo:hi] for lo, hi in zip(off[1:], off[2:])]


def reuse_terms(p: NNParams, xrs: list[np.ndarray], d_s: int) -> list[np.ndarray]:
    """Per-epoch per-R-tuple partial pre-activations ``T2_t = x_Rt W_Rt^T``.

    One (nRt, nh) matrix per attribute table, computed once per epoch —
    nR rows of work in place of N.
    """
    _, w_blocks = split_w1(p.w1, d_s, [xr.shape[1] for xr in xrs])
    return [xr @ w.T for xr, w in zip(xrs, w_blocks)]


# ---------------------------------------------------------------------------
# Gradient statistics (raw sums; finalize divides by N)
# ---------------------------------------------------------------------------


def factorized_grad_layout(nh: int, d: int) -> StatLayout:
    """The unnormalized full-d gradient sums every NN task returns."""
    return StatLayout(
        {"w1s": (nh, d), "b1": (nh,), "w2": (nh,), "b2": (), "loss": (), "n": ()}
    )


def factorized_grad_stats(
    xs: np.ndarray,
    fk_idx: list[np.ndarray],
    y: np.ndarray,
    p: NNParams,
    w1s: np.ndarray,
    t2s: list[np.ndarray],
    act: Activation,
) -> dict[str, np.ndarray]:
    """Unnormalized gradient stats touching only normalized inputs (F-NN).

    Forward uses the factorized layer-1 pre-activation (T2 lookups); backward
    emits ``w1s`` directly and, for each attribute table, only the per-FK
    delta sums ``d_t``, from which ``w1_sums`` finishes
    ``PG_Rt = d_t^T x_Rt``. With no attribute table (``fk_idx = t2s = []``)
    these are the full gradients.
    """
    a1 = xs @ w1s.T + p.b1
    for t2, idx in zip(t2s, fk_idx):
        a1 += t2[idx]
    h = act.f(a1)
    o = h @ p.w2 + p.b2
    err = o - y
    delta = np.outer(err, p.w2) * act.df(h)
    stats = {
        "w1s": delta.T @ xs,
        "b1": delta.sum(axis=0),
        "w2": h.T @ err,
        "b2": err.sum(),
        "loss": 0.5 * float(err @ err),
        "n": float(len(y)),
    }
    for t, (t2, idx) in enumerate(zip(t2s, fk_idx), start=1):
        stats[f"d{t}"] = segment_sums(idx, delta, t2.shape[0])
    return stats


def dense_grad_stats(
    x: np.ndarray, y: np.ndarray, p: NNParams, act: Activation
) -> dict[str, np.ndarray]:
    """Unnormalized full gradients over joined rows (M-NN, S-NN): q = 0."""
    return factorized_grad_stats(x, [], y, p, p.w1, [], act)


def w1_sums(stats: dict[str, np.ndarray], xrs: list[np.ndarray]) -> np.ndarray:
    """Unnormalized ``dE/dW1 = [PG_S | PG_R1 | ...]`` from factorized raw sums.

    Completes ``PG_Rt = d_t^T x_Rt`` (Eq. 29/32), each row of ``xrs[t-1]``
    entering once; ``xrs`` are the R rows the per-FK sums ``d_t`` are over.
    """
    blocks = [stats["w1s"]]
    for t, xr in enumerate(xrs, start=1):
        blocks.append(stats[f"d{t}"].T @ xr)
    return np.concatenate(blocks, axis=1)


def finalize_factorized(stats: dict[str, np.ndarray]) -> tuple[dict[str, np.ndarray], float]:
    """(grads, loss) from the full-d raw sums of ``factorized_grad_layout``.

    Raises a ``ValueError`` when the sums cover no rows.
    """
    n = float(stats["n"])
    if n == 0:
        raise ValueError(NO_ROWS)
    grads = {
        "w1": stats["w1s"] / n,
        "b1": stats["b1"] / n,
        "w2": stats["w2"] / n,
        "b2": float(stats["b2"]) / n,
    }
    return grads, float(stats["loss"]) / n
