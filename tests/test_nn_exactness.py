"""The paper's central NN claim: M-NN, S-NN and F-NN compute identical
full-batch gradient-descent trajectories to the dense reference trainer,
for every supported activation (layer-1 factorization needs no additivity).
"""
import numpy as np
import pytest

from repro.core.nn_ref import nn_fit
from repro.core.params import init_nn
from repro.data.normalized import densify_pdf, multiway_relations_pdf
from repro.nn import train_f_nn, train_m_nn, train_s_nn

CONFIGS = {
    "sigmoid": dict(n_s=1500, n_r=25, d_s=3, d_r=4, nh=6, epochs=4, lr=0.2, act="sigmoid", seed=0),
    "tanh": dict(n_s=1000, n_r=12, d_s=2, d_r=3, nh=5, epochs=3, lr=0.1, act="tanh", seed=1),
    "relu": dict(n_s=1000, n_r=12, d_s=2, d_r=5, nh=8, epochs=3, lr=0.05, act="relu", seed=2),
    "sparse": dict(
        n_s=1200, n_r=20, d_s=6, d_r=8, nh=5, epochs=3, lr=0.2, act="sigmoid",
        seed=3, sparse=True,
    ),
}


@pytest.fixture(scope="module", params=list(CONFIGS), ids=list(CONFIGS))
def trained(request, spark, tmp_path_factory):
    cfg = CONFIGS[request.param]
    s_pdf, r_pdfs = multiway_relations_pdf(
        n_s=cfg["n_s"],
        n_rs=[cfg["n_r"]],
        d_s=cfg["d_s"],
        d_rs=[cfg["d_r"]],
        seed=cfg["seed"],
        target=True,
        sparse_s=cfg.get("sparse", False),
        sparse_r=cfg.get("sparse", False),
    )
    x, y = densify_pdf(s_pdf, r_pdfs)
    init = init_nn(cfg["d_s"] + cfg["d_r"], cfg["nh"], cfg["seed"] + 30)
    kw = dict(epochs=cfg["epochs"], lr=cfg["lr"], activation=cfg["act"])
    ref = nn_fit(x, y, init, **kw)
    s_df, r_dfs = spark.createDataFrame(s_pdf), [spark.createDataFrame(r) for r in r_pdfs]
    tmpdir = str(tmp_path_factory.mktemp(f"mnn_{request.param}"))
    results = {
        "M": train_m_nn(spark, s_df, r_dfs, init=init, tmpdir=tmpdir, **kw),
        "S": train_s_nn(spark, s_df, r_dfs, init=init, **kw),
        "F": train_f_nn(spark, s_df, r_dfs, init=init, **kw),
    }
    return cfg, ref, results


ALGOS = ["M", "S", "F"]


@pytest.mark.parametrize("algo", ALGOS)
def test_weights_match_reference(trained, algo):
    _, ref, results = trained
    p, r = results[algo].params, ref.params
    np.testing.assert_allclose(p.w1, r.w1, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(p.b1, r.b1, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(p.w2, r.w2, rtol=1e-8, atol=1e-12)
    assert p.b2 == pytest.approx(r.b2, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("algo", ALGOS)
def test_loss_trajectory_matches_reference(trained, algo):
    cfg, ref, results = trained
    assert len(results[algo].history) == cfg["epochs"]
    np.testing.assert_allclose(results[algo].history, ref.history, rtol=1e-10)


def test_all_three_pairwise_identical(trained):
    _, _, results = trained
    for a in ("S", "F"):
        np.testing.assert_allclose(
            results[a].params.w1, results["M"].params.w1, rtol=1e-9, atol=1e-13
        )


def test_loss_decreases(trained):
    _, _, results = trained
    for res in results.values():
        assert res.history[-1] < res.history[0]
