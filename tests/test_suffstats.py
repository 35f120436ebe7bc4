"""StatLayout machinery + the factorized M-step assembly (pure NumPy).

The assembly test is the M-step half of the paper's exactness claim: the
factorized per-FK aggregates reconstituted by ``assemble_moments`` must equal
the dense ``sum gamma x x^T`` over the joined matrix, for binary and
multi-way joins, and for no attribute table at all (q = 0, M/S's form).
F's batch function runs that assembly itself, over the R tuples its batch
references, and returns the q = 0 layout, when that is the smaller of its two
return forms (last section).
"""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.aggregate import StatLayout, segment_sums
from repro.core.em_ref import dense_suffstats
from repro.core.linalg import MultiwayTerms, factorized_quadratic_multiway, log_responsibilities
from repro.core.params import init_gmm
from repro.data.normalized import fk_cols
from repro.gmm.suffstats import (
    assemble_moments,
    factorized_layout,
    factorized_return,
    gmm_payload,
    make_factorized_batch_fn,
)


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
    """A ValueError naming the stat, not an ``assert`` that ``python -O`` strips."""
    layout = StatLayout({"n": (), "a": (2, 3)})
    with pytest.raises(ValueError, match=r"'a' has shape \(3, 2\), layout declares \(2, 3\)"):
        layout.pack({"n": 1.0, "a": np.zeros((3, 2))})


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


# ---------------------------------------------------------------------------
# F's batch function returns full-d moments, finished over its distinct FKs
# ---------------------------------------------------------------------------


def _fact_batch(xs, fk_idx, **cols):
    """An F pass batch ``S(cols, x, fk_1..fk_q)`` with 1-based FKs."""
    arrays = {name: pa.array(v) for name, v in cols.items()}
    arrays["x"] = pa.array([list(row) for row in xs], type=pa.list_(pa.float64()))
    for t, idx in enumerate(fk_idx, start=1):
        arrays[f"fk_{t}"] = pa.array(idx + 1)
    return pa.RecordBatch.from_pydict(arrays)


def _partial_fks(rng, n_r, n):
    """FK rows of a batch that references only some R tuples: the even rows
    but the last one, so R tuples no fact tuple references sit in between and
    at the end."""
    return rng.choice(np.arange(0, n_r - 1, 2), size=n)


@pytest.mark.parametrize("q", [1, 2])
def test_f_batch_returns_moments_in_the_q0_layout(q):
    """Whatever nR, an F-GMM batch returns the q = 0 layout M and S return,
    holding the full-d moments ``assemble_moments`` makes of the raw per-FK
    stats over all nR rows."""
    rng = np.random.default_rng(q)
    n, d_s, k = 80, 2, 3
    d_rs = [3, 2][:q]
    d = d_s + sum(d_rs)
    params = init_gmm(d, k, q)
    payload = gmm_payload(params)
    layout = factorized_layout(k, d, [], [])
    for n_rs in ([7, 5][:q], [40, 9][:q]):
        xs = rng.normal(size=(n, d_s))
        xrs = [rng.normal(size=(n_r, d_r)) for n_r, d_r in zip(n_rs, d_rs)]
        fk_idx = [_partial_fks(rng, n_r, n) for n_r in n_rs]
        terms = MultiwayTerms(xrs, params.mu, payload["prec"], [d_s, *d_rs])
        batch_fn = make_factorized_batch_fn(payload, terms, xrs, fk_cols(q), layout)
        got = batch_fn(_fact_batch(xs, fk_idx))
        assert got.shape == (layout.size,) == (k * (1 + d + d * d) + 1,)

        quad = factorized_quadratic_multiway(xs, fk_idx, params.mu, payload["prec"], terms)
        gamma, ll = log_responsibilities(quad, params.pi, payload["logdet"], d)
        stats = _factorized_stats_manual(gamma, xs, fk_idx, xrs)
        stats["ll"] = ll.sum()
        nk, sx, sxx, ll_sum = assemble_moments(stats, xrs)
        want = layout.pack({"nk": nk, "a": sx, "b": sxx, "ll": ll_sum})
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize(
    "d_s,n_rs,d_rs,form",
    [
        (7, [400], [14], "moments"),  # narrow R, many tuples (Expedia2's shape)
        (7, [30], [218], "sums"),  # wide R, few tuples (Expedia5's shape)
        (2, [40, 9], [3, 2], "moments"),
        (2, [6, 5], [30, 20], "sums"),
    ],
)
def test_f_returns_the_smaller_form_and_the_driver_finishes_it(d_s, n_rs, d_rs, form):
    """``factorized_return`` picks the smaller of the full-d moments and the
    per-R-tuple sums; either way the driver's ``assemble_moments`` against
    the R matrices it is handed gives the same moments."""
    rng = np.random.default_rng(len(n_rs))
    n, k = 60, 3
    q = len(n_rs)
    d = d_s + sum(d_rs)
    params = init_gmm(d, k, q)
    payload = gmm_payload(params)
    xs = rng.normal(size=(n, d_s))
    xrs = [rng.normal(size=(n_r, d_r)) for n_r, d_r in zip(n_rs, d_rs)]
    fk_idx = [_partial_fks(rng, n_r, n) for n_r in n_rs]

    layout, driver_xrs = factorized_return(k, d_s, xrs)
    moments = factorized_layout(k, d, [], [])
    sums = factorized_layout(k, d_s, n_rs, d_rs)
    assert layout.size == min(moments.size, sums.size)
    assert (layout.shapes, len(driver_xrs)) == (
        (moments.shapes, 0) if form == "moments" else (sums.shapes, q)
    )

    terms = MultiwayTerms(xrs, params.mu, payload["prec"], [d_s, *d_rs])
    batch_fn = make_factorized_batch_fn(payload, terms, xrs, fk_cols(q), layout)
    got = assemble_moments(layout.unpack(batch_fn(_fact_batch(xs, fk_idx))), driver_xrs)

    quad = factorized_quadratic_multiway(xs, fk_idx, params.mu, payload["prec"], terms)
    gamma, ll = log_responsibilities(quad, params.pi, payload["logdet"], d)
    stats = _factorized_stats_manual(gamma, xs, fk_idx, xrs)
    stats["ll"] = ll.sum()
    want = assemble_moments(stats, xrs)
    for g, w, name in zip(got, want, ("nk", "sx", "sxx", "ll")):
        np.testing.assert_allclose(g, w, rtol=1e-12, err_msg=name)
