"""Section VI-A2: which activations admit exact factorization beyond layer 1.

The paper argues factorized reuse at the second layer is exact only for
*additive* activations (solutions of the Cauchy equation f(x+y)=f(x)+f(y)),
that sigmoid/tanh are not additive, and that ReLU is additive only when both
summands share a sign. These tests check the ``additive`` flags empirically
and demonstrate the layer-2 decomposition of Eq. 27 succeeding/failing
accordingly.
"""
import numpy as np
import pytest

from repro.core.nn_ref import ACTIVATIONS
from repro.core.params import init_nn


def _is_additive_on(f, xs, ys, tol=1e-9):
    return np.allclose(f(xs + ys), f(xs) + f(ys), atol=tol)


SAMPLES = np.linspace(-3, 3, 13)
GRID_X, GRID_Y = np.meshgrid(SAMPLES, SAMPLES)


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "identity"])
def test_additive_flag_matches_empirical_check(name):
    act = ACTIVATIONS[name]
    empirical = _is_additive_on(act.f, GRID_X.ravel(), GRID_Y.ravel())
    assert empirical == act.additive


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "identity"])
def test_df_of_forward_output_is_the_derivative(name):
    """``df`` takes ``h = f(a)``: ``df(f(a))`` is f'(a) (off ReLU's kink)."""
    act = ACTIVATIONS[name]
    a = np.linspace(-6.0, 6.0, 200)  # even count: 0 is not a sample
    eps = 1e-6
    numeric = (act.f(a + eps) - act.f(a - eps)) / (2 * eps)
    np.testing.assert_allclose(act.df(act.f(a)), numeric, rtol=1e-7, atol=1e-9)


def test_sigmoid_matches_long_double_reference():
    a = np.linspace(-50.0, 50.0, 100_001)
    exact = 1.0 / (1.0 + np.exp(-a.astype(np.longdouble)))
    err = np.abs(ACTIVATIONS["sigmoid"].f(a) - exact)
    assert float(err.max()) <= 2e-16


def test_sigmoid_saturates_without_floating_point_errors():
    a = np.array([-1e3, -40.0, 0.0, 40.0, 1e3])
    with np.errstate(all="raise"):
        h = ACTIVATIONS["sigmoid"].f(a)
    assert h[0] == 0.0 and h[2] == 0.5 and h[-1] == 1.0


def test_relu_additive_for_same_sign_only():
    """The paper's observation: ReLU(x+y)=ReLU(x)+ReLU(y) iff x,y same sign."""
    relu = ACTIVATIONS["relu"].f
    pos = np.abs(GRID_X.ravel())
    assert _is_additive_on(relu, pos, np.abs(GRID_Y.ravel()))
    assert _is_additive_on(relu, -pos, -np.abs(GRID_Y.ravel()))
    assert not _is_additive_on(relu, np.array([2.0]), np.array([-1.0]))


@pytest.mark.parametrize("name", ["sigmoid", "tanh"])
def test_sigmoid_tanh_not_additive(name):
    f = ACTIVATIONS[name].f
    assert not _is_additive_on(f, np.array([1.0]), np.array([1.0]))


def _layer2_direct(x, p2w1, p2b1, w2, b2, f):
    a1 = x @ p2w1.T + p2b1
    return f(a1 @ w2 + b2)


def _layer2_factorized(xs, xr_row, w1s, w1r, b1, w2, b2, f):
    """Eq. 27: l = f( sum_j w2_j f(T1_j) + sum_j w2_j f(T2_j) + b2 )."""
    t1 = xs @ w1s.T  # per-S partial pre-activations (no bias)
    t2 = xr_row @ w1r.T + b1  # per-R reusable term, bias folded in
    return f(f(t1) @ w2 + f(t2) @ w2 + b2)


@pytest.mark.parametrize("seed", range(4))
def test_layer2_factorization_exact_for_additive(seed):
    """With an additive f, splitting f across T1/T2 (Eq. 27) is exact."""
    rng = np.random.default_rng(seed)
    d_s, d_r, nh = 3, 4, 5
    p = init_nn(d_s + d_r, nh, seed)
    f = ACTIVATIONS["identity"].f
    xs = rng.normal(size=(10, d_s))
    xr_row = rng.normal(size=d_r)
    x = np.concatenate([xs, np.tile(xr_row, (10, 1))], axis=1)
    w2 = rng.normal(size=nh)
    direct = _layer2_direct(x, p.w1, p.b1, w2, 0.3, f)
    fact = _layer2_factorized(xs, xr_row, p.w1[:, :d_s], p.w1[:, d_s:], p.b1, w2, 0.3, f)
    np.testing.assert_allclose(direct, fact, rtol=1e-10)


@pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu"])
def test_layer2_factorization_breaks_for_nonadditive(name):
    """With sigmoid/tanh/ReLU the Eq. 27 split is NOT exact in general —
    why F-NN stops factorizing after the first layer."""
    rng = np.random.default_rng(9)
    d_s, d_r, nh = 3, 4, 5
    p = init_nn(d_s + d_r, nh, 9)
    f = ACTIVATIONS[name].f
    xs = rng.normal(size=(10, d_s))
    xr_row = rng.normal(size=d_r)
    x = np.concatenate([xs, np.tile(xr_row, (10, 1))], axis=1)
    w2 = rng.normal(size=nh)
    direct = _layer2_direct(x, p.w1, p.b1, w2, 0.3, f)
    fact = _layer2_factorized(xs, xr_row, p.w1[:, :d_s], p.w1[:, d_s:], p.b1, w2, 0.3, f)
    assert not np.allclose(direct, fact, rtol=1e-4)


def test_layer1_factorization_exact_for_any_activation():
    """Layer 1 (Section VI-A1) needs no additivity: the split happens *before*
    f is applied, so it is exact for every activation — this is F-NN."""
    rng = np.random.default_rng(11)
    d_s, d_r, nh = 3, 4, 6
    p = init_nn(d_s + d_r, nh, 11)
    xs = rng.normal(size=(8, d_s))
    xr_row = rng.normal(size=d_r)
    x = np.concatenate([xs, np.tile(xr_row, (8, 1))], axis=1)
    for name, act in ACTIVATIONS.items():
        direct = act.f(x @ p.w1.T + p.b1)
        t2 = xr_row @ p.w1[:, d_s:].T + p.b1  # reused per R tuple
        fact = act.f(xs @ p.w1[:, :d_s].T + t2)
        np.testing.assert_allclose(direct, fact, rtol=1e-12, err_msg=name)
