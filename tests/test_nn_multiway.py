"""Multi-way (q >= 2) NN exactness: Section VI-B's generalization.

The Spark-free kernel test covers q = 0 too, the form M-NN and S-NN run on
joined rows, and F-NN's batch function, which finishes ``PG_Rt`` over the R
tuples its batch references and returns M's and S's q = 0 layout.
"""
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pytest

from repro.core.nn_ref import ACTIVATIONS, dense_gradients, nn_fit
from repro.core.params import init_nn
from repro.data.normalized import densify_pdf, fk_cols, multiway_relations_pdf
from repro.nn import train_f_nn, train_m_nn, train_s_nn
from repro.nn.f_nn import _make_batch_fn
from repro.nn.model import (
    factorized_grad_layout,
    factorized_grad_stats,
    finalize_factorized,
    reuse_terms,
    split_w1,
    w1_sums,
)

CONFIGS = {
    "q2": dict(n_s=1200, n_rs=[15, 10], d_s=2, d_rs=[3, 2], nh=5, epochs=3, seed=0),
    "q3": dict(n_s=800, n_rs=[6, 8, 5], d_s=1, d_rs=[2, 2, 3], nh=4, epochs=3, seed=1),
}


@pytest.fixture(scope="module", params=list(CONFIGS), ids=list(CONFIGS))
def trained(request, spark, tmp_path_factory):
    cfg = CONFIGS[request.param]
    s_pdf, r_pdfs = multiway_relations_pdf(
        n_s=cfg["n_s"],
        n_rs=cfg["n_rs"],
        d_s=cfg["d_s"],
        d_rs=cfg["d_rs"],
        seed=cfg["seed"],
        target=True,
    )
    x, y = densify_pdf(s_pdf, r_pdfs)
    d = cfg["d_s"] + sum(cfg["d_rs"])
    init = init_nn(d, cfg["nh"], cfg["seed"] + 40)
    kw = dict(epochs=cfg["epochs"], lr=0.1, activation="sigmoid")
    ref = nn_fit(x, y, init, **kw)
    s_df = spark.createDataFrame(s_pdf)
    r_dfs = [spark.createDataFrame(r) for r in r_pdfs]
    tmpdir = str(tmp_path_factory.mktemp(f"mwnn_{request.param}"))
    results = {
        "M": train_m_nn(spark, s_df, r_dfs, init=init, tmpdir=tmpdir, **kw),
        "S": train_s_nn(spark, s_df, r_dfs, init=init, **kw),
        "F": train_f_nn(spark, s_df, r_dfs, init=init, **kw),
    }
    return cfg, ref, results


@pytest.mark.parametrize("algo", ["M", "S", "F"])
def test_weights_match_reference(trained, algo):
    _, ref, results = trained
    np.testing.assert_allclose(results[algo].params.w1, ref.params.w1, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(results[algo].params.b1, ref.params.b1, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("algo", ["M", "S", "F"])
def test_history_matches_reference(trained, algo):
    _, ref, results = trained
    np.testing.assert_allclose(results[algo].history, ref.history, rtol=1e-10)


@pytest.mark.parametrize("act_name", ["sigmoid", "tanh", "relu"])
@pytest.mark.parametrize("d_rs", [[], [3], [2, 4]], ids=["q0", "q1", "q2"])
def test_factorized_kernel_equals_dense_gradients(d_rs, act_name):
    rng = np.random.default_rng(len(d_rs))
    n, d_s, nh = 60, 3, 5
    xs = rng.normal(size=(n, d_s))
    xrs = [rng.normal(size=(7, d_r)) for d_r in d_rs]
    fk_idx = [rng.integers(0, 7, size=n) for _ in d_rs]
    y = rng.normal(size=n)
    x = np.concatenate([xs] + [xr[idx] for xr, idx in zip(xrs, fk_idx)], axis=1)
    p = init_nn(x.shape[1], nh, len(d_rs))
    act = ACTIVATIONS[act_name]
    w1s, _ = split_w1(p.w1, d_s, d_rs)
    stats = factorized_grad_stats(xs, fk_idx, y, p, w1s, reuse_terms(p, xrs, d_s), act)
    grads, ell = finalize_factorized({**stats, "w1s": w1_sums(stats, xrs)})
    ref, ref_ell = dense_gradients(x, y, p, act)
    assert ell == pytest.approx(ref_ell, rel=1e-10)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(grads[name], ref[name], rtol=1e-10, err_msg=name)


@pytest.mark.parametrize("q", [1, 2])
def test_f_batch_returns_gradient_sums_in_the_q0_layout(q):
    """Whatever nR, an F-NN batch returns the q = 0 layout M and S return,
    holding the gradient sums ``w1_sums`` makes of the per-FK delta sums over
    all nR rows. The batch references only some R tuples
    (the even rows but the last), so it finishes over fewer rows than nR."""
    rng = np.random.default_rng(q)
    n, d_s, nh = 70, 3, 4
    d_rs = [2, 4][:q]
    d = d_s + sum(d_rs)
    p = init_nn(d, nh, q)
    act = ACTIVATIONS["sigmoid"]
    w1s, _ = split_w1(p.w1, d_s, d_rs)
    layout = factorized_grad_layout(nh, d)
    fks = fk_cols(q)
    for n_rs in ([7, 5][:q], [40, 9][:q]):
        xs = rng.normal(size=(n, d_s))
        y = rng.normal(size=n)
        xrs = [rng.normal(size=(n_r, d_r)) for n_r, d_r in zip(n_rs, d_rs)]
        fk_idx = [rng.choice(np.arange(0, n_r - 1, 2), size=n) for n_r in n_rs]
        batch = pa.RecordBatch.from_pydict(
            {"y": y, "x": pa.array([list(r) for r in xs], type=pa.list_(pa.float64()))}
            | {name: idx + 1 for name, idx in zip(fks, fk_idx)}
        )
        t2s = reuse_terms(p, xrs, d_s)
        batch_fn = _make_batch_fn(p, w1s, t2s, act, fks, SimpleNamespace(value=xrs), layout)
        got = batch_fn(batch)
        assert got.shape == (layout.size,) == (nh * (d + 2) + 3,)

        stats = factorized_grad_stats(xs, fk_idx, y, p, w1s, t2s, act)
        pg_rs = [stats[f"d{t}"].T @ xr for t, xr in enumerate(xrs, start=1)]
        stats["w1s"] = np.concatenate([stats["w1s"], *pg_rs], axis=1)
        np.testing.assert_allclose(got, layout.pack(stats), rtol=1e-12)
