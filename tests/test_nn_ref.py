"""Dense NN math: numerical gradient checks and training sanity."""
import numpy as np
import pytest

from repro.core.nn_ref import (
    ACTIVATIONS,
    apply_gradients,
    dense_gradients,
    forward,
    loss,
    nn_fit,
)
from repro.core.params import NNParams, init_nn


def _tiny(seed=0, n=20, d=3, nh=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return x, y, init_nn(d, nh, seed)


def _flatten(p: NNParams) -> np.ndarray:
    return np.concatenate([p.w1.ravel(), p.b1, p.w2, [p.b2]])


def _unflatten(v: np.ndarray, nh: int, d: int) -> NNParams:
    i = nh * d
    return NNParams(
        w1=v[:i].reshape(nh, d),
        b1=v[i : i + nh],
        w2=v[i + nh : i + 2 * nh],
        b2=float(v[-1]),
    )


@pytest.mark.parametrize("act_name", ["sigmoid", "tanh", "identity"])
@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_numerical(act_name, seed):
    """Central-difference check of every parameter gradient."""
    x, y, p = _tiny(seed)
    act = ACTIVATIONS[act_name]
    grads, _ = dense_gradients(x, y, p, act)
    flat_g = _flatten(
        NNParams(w1=grads["w1"], b1=grads["b1"], w2=grads["w2"], b2=grads["b2"])
    )
    v0 = _flatten(p)
    eps = 1e-6
    num = np.empty_like(v0)
    for i in range(len(v0)):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += eps
        vm[i] -= eps
        _, op = forward(x, _unflatten(vp, p.nh, p.d), act)
        _, om = forward(x, _unflatten(vm, p.nh, p.d), act)
        num[i] = (loss(op, y) - loss(om, y)) / (2 * eps)
    np.testing.assert_allclose(flat_g, num, rtol=1e-5, atol=1e-7)


def test_gradients_match_numerical_relu():
    """ReLU: check on a net whose pre-activations are far from the kink."""
    x, y, p = _tiny(1)
    p = p.copy()
    p.b1 += 3.0  # push all units into the active region
    act = ACTIVATIONS["relu"]
    grads, _ = dense_gradients(x, y, p, act)
    eps = 1e-6
    g_b2_num = (
        loss(forward(x, NNParams(p.w1, p.b1, p.w2, p.b2 + eps), act)[1], y)
        - loss(forward(x, NNParams(p.w1, p.b1, p.w2, p.b2 - eps), act)[1], y)
    ) / (2 * eps)
    np.testing.assert_allclose(grads["b2"], g_b2_num, rtol=1e-5)


@pytest.mark.parametrize("act_name", ["sigmoid", "tanh", "relu"])
def test_training_reduces_loss(act_name):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(400, 5))
    y = np.tanh(x @ rng.normal(size=5)) + 0.05 * rng.normal(size=400)
    res = nn_fit(x, y, init_nn(5, 16, 2), epochs=30, lr=0.5, activation=act_name)
    assert res.history[-1] < res.history[0] * 0.9


def test_apply_gradients_step():
    _, _, p = _tiny(2)
    grads = {
        "w1": np.ones_like(p.w1),
        "b1": np.ones_like(p.b1),
        "w2": np.ones_like(p.w2),
        "b2": 1.0,
    }
    p2 = apply_gradients(p, grads, lr=0.25)
    np.testing.assert_allclose(p.w1 - p2.w1, 0.25)
    np.testing.assert_allclose(p.b1 - p2.b1, 0.25)
    np.testing.assert_allclose(p.w2 - p2.w2, 0.25)
    assert p.b2 - p2.b2 == pytest.approx(0.25)


def test_loss_definition():
    o = np.array([1.0, 2.0, 3.0])
    y = np.array([0.0, 2.0, 5.0])
    # E = 1/(2N) sum (o-y)^2 = (1 + 0 + 4) / 6
    assert loss(o, y) == pytest.approx(5.0 / 6.0)


def test_fit_history_length_and_determinism():
    x, y, p = _tiny(3, n=50)
    r1 = nn_fit(x, y, p, epochs=7, lr=0.1)
    r2 = nn_fit(x, y, p, epochs=7, lr=0.1)
    assert len(r1.history) == 7
    assert r1.history == r2.history
    np.testing.assert_array_equal(r1.params.w1, r2.params.w1)
