"""Model parameter containers and deterministic initializers.

Every trainer (M/S/F, binary and multi-way, Spark and reference) takes an
explicit initial parameter object so that the exactness tests can hand the
*same* initialization to all of them and require identical trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The one error every trainer, reference and Spark alike, raises for empty input.
NO_ROWS = "no rows to train on: the fact table (or its join) is empty"


@dataclass
class GMMParams:
    """Parameters of a K-component full-covariance Gaussian mixture.

    ``pi``: (K,) mixing weights, ``mu``: (K, d) means, ``sigma``: (K, d, d)
    covariance matrices (symmetric positive definite).
    """

    pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    @property
    def k(self) -> int:
        return self.pi.shape[0]

    @property
    def d(self) -> int:
        return self.mu.shape[1]

    def copy(self) -> "GMMParams":
        return GMMParams(self.pi.copy(), self.mu.copy(), self.sigma.copy())


def init_gmm(d: int, k: int, seed: int = 0) -> GMMParams:
    """Deterministic GMM init: standard-normal means, identity covariances.

    Suitable for the standardized feature distributions produced by
    ``repro.data``; the exactness tests only need *some* shared init, and the
    runtime evaluation is insensitive to where EM starts (iteration counts are
    fixed).
    """
    g = np.random.default_rng(seed)
    return GMMParams(
        pi=np.full(k, 1.0 / k),
        mu=g.normal(0.0, 1.0, size=(k, d)),
        sigma=np.tile(np.eye(d), (k, 1, 1)),
    )


@dataclass
class NNParams:
    """Parameters of a 1-hidden-layer regression network (paper Section VI).

    ``w1``: (nh, d) input->hidden weights, ``b1``: (nh,) hidden biases,
    ``w2``: (nh,) hidden->output weights, ``b2``: scalar output bias.
    The output unit is linear; the loss is E = 1/(2N) sum (o - y)^2.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    @property
    def nh(self) -> int:
        return self.w1.shape[0]

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    def copy(self) -> "NNParams":
        return NNParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), float(self.b2))


def init_nn(d: int, nh: int, seed: int = 0) -> NNParams:
    """Deterministic Glorot-style init shared by every NN trainer."""
    g = np.random.default_rng(seed)
    s1 = np.sqrt(2.0 / (d + nh))
    s2 = np.sqrt(2.0 / (nh + 1))
    return NNParams(
        w1=g.normal(0.0, s1, size=(nh, d)),
        b1=np.zeros(nh),
        w2=g.normal(0.0, s2, size=nh),
        b2=0.0,
    )


@dataclass
class TrainResult:
    """Uniform result record returned by every trainer.

    ``params`` is the final model, ``history`` the per-iteration scalar being
    tracked (GMM: log-likelihood; NN: training loss). A trainer keeps no
    clock: callers time the whole call from outside.
    """

    params: object
    history: list = field(default_factory=list)
