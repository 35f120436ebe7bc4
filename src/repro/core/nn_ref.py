"""Dense NN math + single-node reference trainer (paper Section VI).

The network is the paper's: one hidden layer of ``nh`` units with activation
``f``, a linear output unit, squared error ``E = 1/(2N) sum (o - y)^2``.
Training is full-batch gradient descent so that M-NN, S-NN and F-NN are
bitwise-comparable (Section VI notes the discussion applies equally to batch,
mini-batch and SGD; SGD merely permutes R's keys per epoch).

Also hosts the activation-function zoo and the additivity predicate used by the
Section VI-A2 analysis tests (only solutions of the Cauchy equation
``f(x + y) = f(x) + f(y)`` admit exact factorization beyond layer 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import NNParams, TrainResult


@dataclass(frozen=True)
class Activation:
    """An activation function, its derivative, and whether it is additive."""

    name: str
    f: callable
    df: callable  # derivative as a function of the pre-activation a
    additive: bool


def _sigmoid(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


ACTIVATIONS: dict[str, Activation] = {
    "sigmoid": Activation(
        "sigmoid", _sigmoid, lambda a: _sigmoid(a) * (1.0 - _sigmoid(a)), additive=False
    ),
    "tanh": Activation("tanh", np.tanh, lambda a: 1.0 - np.tanh(a) ** 2, additive=False),
    "relu": Activation(
        # ReLU is only *piecewise* additive (additive when both summands share
        # a sign, Section VI-A2) — not additive in general.
        "relu", lambda a: np.maximum(a, 0.0), lambda a: (a > 0).astype(a.dtype), additive=False
    ),
    "identity": Activation("identity", lambda a: a, lambda a: np.ones_like(a), additive=True),
}


def forward(x: np.ndarray, p: NNParams, act: Activation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense forward pass. Returns (a1 (N, nh), h (N, nh), o (N,))."""
    a1 = x @ p.w1.T + p.b1
    h = act.f(a1)
    o = h @ p.w2 + p.b2
    return a1, h, o


def loss(o: np.ndarray, y: np.ndarray) -> float:
    """E = 1/(2N) sum (o - y)^2 (Section VI-A3)."""
    return float(0.5 * np.mean((o - y) ** 2))


def output_delta(o: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dE/do for the mean-squared error above."""
    return (o - y) / o.shape[0]


def hidden_delta(dout: np.ndarray, a1: np.ndarray, p: NNParams, act: Activation) -> np.ndarray:
    """Backprop through the output layer: dE/da1 (N, nh)."""
    return np.outer(dout, p.w2) * act.df(a1)


def dense_gradients(
    x: np.ndarray, y: np.ndarray, p: NNParams, act: Activation
) -> tuple[dict[str, np.ndarray], float]:
    """Full-batch gradients over the dense (joined) feature matrix.

    The quantity M-NN and S-NN compute per epoch (with F-NN's kernel at
    q = 0): ``dE/dW1 = delta^T X`` touches the entire N x d matrix (Eq. 28
    before decomposition).
    """
    a1, h, o = forward(x, p, act)
    ell = loss(o, y)
    dout = output_delta(o, y)
    delta = hidden_delta(dout, a1, p, act)
    grads = {
        "w1": delta.T @ x,
        "b1": delta.sum(axis=0),
        "w2": h.T @ dout,
        "b2": float(dout.sum()),
    }
    return grads, ell


def apply_gradients(p: NNParams, grads: dict[str, np.ndarray], lr: float) -> NNParams:
    """One gradient-descent step; shared by every trainer for exactness."""
    return NNParams(
        w1=p.w1 - lr * grads["w1"],
        b1=p.b1 - lr * grads["b1"],
        w2=p.w2 - lr * grads["w2"],
        b2=p.b2 - lr * grads["b2"],
    )


def nn_fit(
    x: np.ndarray,
    y: np.ndarray,
    init: NNParams,
    epochs: int = 10,
    lr: float = 0.1,
    activation: str = "sigmoid",
) -> TrainResult:
    """Reference full-batch GD trainer over a dense matrix (ground truth)."""
    act = ACTIVATIONS[activation]
    p = init.copy()
    history: list[float] = []
    for _ in range(epochs):
        grads, ell = dense_gradients(x, y, p, act)
        history.append(ell)
        p = apply_gradients(p, grads, lr)
    return TrainResult(params=p, history=history)
