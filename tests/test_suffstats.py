"""StatLayout machinery + the factorized M-step assembly (pure NumPy).

The assembly test is the M-step half of the paper's exactness claim: the
factorized per-FK aggregates reconstituted by ``assemble_moments`` must equal
the dense ``sum gamma x x^T`` over the joined matrix, for binary and
multi-way joins, and for no attribute table at all (q = 0, M/S's form).
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.aggregate import StatLayout, segment_sums
from repro.core.em_ref import dense_suffstats
from repro.gmm.suffstats import assemble_moments, factorized_layout


# ---------------------------------------------------------------------------
# StatLayout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shapes",
    [
        {"a": (3,), "b": (2, 2)},
        {"x": ()},
        {"nk": (5,), "sx": (5, 7), "sxx": (5, 7, 7), "ll": ()},
    ],
)
def test_layout_roundtrip(shapes):
    layout = StatLayout(shapes)
    rng = np.random.default_rng(0)
    stats = {k: rng.normal(size=s) if s else np.float64(rng.normal()) for k, s in shapes.items()}
    flat = layout.pack(stats)
    assert flat.shape == (layout.size,)
    back = layout.unpack(flat)
    for k in shapes:
        np.testing.assert_array_equal(np.asarray(stats[k]), back[k])


def test_layout_addition_is_statwise():
    layout = StatLayout({"a": (2,), "b": ()})
    f1 = layout.pack({"a": np.array([1.0, 2.0]), "b": 3.0})
    f2 = layout.pack({"a": np.array([10.0, 20.0]), "b": 30.0})
    s = layout.unpack(f1 + f2)
    np.testing.assert_array_equal(s["a"], [11.0, 22.0])
    assert s["b"] == 33.0


def test_layout_pack_shape_mismatch_raises():
    layout = StatLayout({"a": (2,)})
    with pytest.raises(AssertionError):
        layout.pack({"a": np.zeros(3)})


@pytest.mark.parametrize(
    "q,n_rs,d_rs", [(1, [5], [3]), (2, [4, 6], [2, 3]), (3, [2, 3, 4], [1, 2, 3]), (0, [], [])]
)
def test_factorized_layout_keys(q, n_rs, d_rs):
    layout = factorized_layout(2, 3, n_rs, d_rs)
    keys = set(layout.shapes)
    expect = {"nk", "a", "b", "ll"}
    for t in range(1, q + 1):
        expect |= {f"g{t}", f"h{t}"}
    for a in range(1, q + 1):
        for b in range(a + 1, q + 1):
            expect.add(f"c{a}_{b}")
    assert keys == expect
    assert layout.shapes["b"] == (2, 3, 3)
    for t in range(1, q + 1):
        assert layout.shapes[f"g{t}"] == (2, n_rs[t - 1])


# ---------------------------------------------------------------------------
# segment sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_segment_sums_match_pandas_groupby(seed):
    rng = np.random.default_rng(seed)
    n, n_r, d = 200, 7, 3
    fk = rng.integers(0, n_r, size=n)
    w = rng.random(n)
    v = rng.normal(size=(n, d))
    got_scalar = segment_sums(fk, w[:, None], n_r)[:, 0]
    got_vec = segment_sums(fk, w[:, None] * v, n_r)
    df = pd.DataFrame({"fk": fk, "w": w})
    exp_scalar = df.groupby("fk")["w"].sum().reindex(range(n_r), fill_value=0.0)
    np.testing.assert_allclose(got_scalar, exp_scalar.to_numpy(), rtol=1e-12)
    for j in range(d):
        df["wv"] = w * v[:, j]
        exp = df.groupby("fk")["wv"].sum().reindex(range(n_r), fill_value=0.0)
        np.testing.assert_allclose(got_vec[:, j], exp.to_numpy(), rtol=1e-12)


def test_segment_sums_empty_groups_are_zero():
    out = segment_sums(np.array([0, 0]), np.array([[1.0], [2.0]]), 5)
    np.testing.assert_array_equal(out[:, 0], [3.0, 0, 0, 0, 0])


# ---------------------------------------------------------------------------
# factorized M-step assembly == dense moments
# ---------------------------------------------------------------------------


def _factorized_stats_manual(gamma, xs, fk_idx, xrs):
    """Accumulate the factorized stats directly (no Spark), as the batch fn does."""
    k = gamma.shape[1]
    d_s = xs.shape[1]
    q = len(xrs)
    stats = {"nk": gamma.sum(0), "a": gamma.T @ xs, "ll": 0.0}
    b = np.empty((k, d_s, d_s))
    for i in range(k):
        b[i] = xs.T @ (gamma[:, i : i + 1] * xs)
    stats["b"] = b
    for t in range(1, q + 1):
        n_r = xrs[t - 1].shape[0]
        g = segment_sums(fk_idx[t - 1], gamma, n_r).T
        h = np.stack([segment_sums(fk_idx[t - 1], gamma[:, [i]] * xs, n_r) for i in range(k)])
        stats[f"g{t}"] = g
        stats[f"h{t}"] = h
    for a in range(1, q + 1):
        for bt in range(a + 1, q + 1):
            xb = xrs[bt - 1][fk_idx[bt - 1]]
            n_ra = xrs[a - 1].shape[0]
            stats[f"c{a}_{bt}"] = np.stack(
                [segment_sums(fk_idx[a - 1], gamma[:, [i]] * xb, n_ra) for i in range(k)]
            )
    return stats


@pytest.mark.parametrize(
    "d_s,d_rs,n_rs",
    [(2, [3], [5]), (3, [2, 4], [4, 6]), (1, [1, 1, 2], [3, 2, 4]), (5, [15], [8]), (4, [], [])],
)
@pytest.mark.parametrize("k", [1, 3])
def test_assemble_moments_equals_dense(d_s, d_rs, n_rs, k):
    rng = np.random.default_rng(k * 7 + sum(d_rs))
    n = 120
    xs = rng.normal(size=(n, d_s))
    xrs = [rng.normal(size=(n_r, d_r)) for n_r, d_r in zip(n_rs, d_rs)]
    fk_idx = [rng.integers(0, n_r, size=n) for n_r in n_rs]
    gamma = rng.dirichlet(np.ones(k), size=n)
    x = np.concatenate([xs] + [xr[idx] for xr, idx in zip(xrs, fk_idx)], axis=1)

    nk_d, sx_d, sxx_d = dense_suffstats(x, gamma)
    stats = _factorized_stats_manual(gamma, xs, fk_idx, xrs)
    nk_f, sx_f, sxx_f, _ = assemble_moments(stats, xrs)

    np.testing.assert_allclose(nk_f, nk_d, rtol=1e-10)
    np.testing.assert_allclose(sx_f, sx_d, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(sxx_f, sxx_d, rtol=1e-8, atol=1e-8)
    if not d_rs:  # q = 0 is M/S's form on joined rows: the dense moments, bit for bit
        np.testing.assert_array_equal(sx_f, sx_d)
        np.testing.assert_array_equal(sxx_f, sxx_d)


def test_assemble_moments_symmetric_blocks():
    rng = np.random.default_rng(2)
    n, d_s, k = 50, 2, 2
    xs = rng.normal(size=(n, d_s))
    xrs = [rng.normal(size=(3, 2)), rng.normal(size=(4, 3))]
    fk_idx = [rng.integers(0, 3, size=n), rng.integers(0, 4, size=n)]
    gamma = rng.dirichlet(np.ones(k), size=n)
    stats = _factorized_stats_manual(gamma, xs, fk_idx, xrs)
    _, _, sxx, _ = assemble_moments(stats, xrs)
    for i in range(k):
        np.testing.assert_allclose(sxx[i], sxx[i].T, rtol=1e-10, atol=1e-12)
