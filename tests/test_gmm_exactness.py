"""The paper's central GMM claim: M-GMM, S-GMM and F-GMM produce the *same*
model as each other and as the single-node reference EM on the densified
table — "without any loss in accuracy" (Sections V-B, VII).

Each configuration's trainers run once in a module-scoped fixture; the tests
then assert the individual agreement properties.
"""
import numpy as np
import pytest

from repro.core.em_ref import em_fit
from repro.core.params import init_gmm
from repro.data.normalized import densify_pdf, multiway_relations_pdf
from repro.gmm import train_f_gmm, train_m_gmm, train_s_gmm

CONFIGS = {
    "small": dict(n_s=1500, n_r=30, d_s=3, d_r=4, k=3, iters=4, seed=0),
    "k1": dict(n_s=1000, n_r=10, d_s=2, d_r=2, k=1, iters=3, seed=1),
    "wide_r": dict(n_s=1200, n_r=15, d_s=2, d_r=12, k=2, iters=3, seed=2),
    "rr_one": dict(n_s=400, n_r=400, d_s=3, d_r=3, k=2, iters=3, seed=3),
}


@pytest.fixture(scope="module", params=list(CONFIGS), ids=list(CONFIGS))
def trained(request, spark, tmp_path_factory):
    cfg = CONFIGS[request.param]
    s_pdf, r_pdfs = multiway_relations_pdf(
        n_s=cfg["n_s"], n_rs=[cfg["n_r"]], d_s=cfg["d_s"], d_rs=[cfg["d_r"]], seed=cfg["seed"]
    )
    x, _ = densify_pdf(s_pdf, r_pdfs)
    init = init_gmm(cfg["d_s"] + cfg["d_r"], cfg["k"], cfg["seed"] + 10)
    ref = em_fit(x, init, iters=cfg["iters"])
    s_df, r_dfs = spark.createDataFrame(s_pdf), [spark.createDataFrame(r) for r in r_pdfs]
    tmpdir = str(tmp_path_factory.mktemp(f"mgmm_{request.param}"))
    results = {
        "M": train_m_gmm(spark, s_df, r_dfs, init=init, iters=cfg["iters"], tmpdir=tmpdir),
        "S": train_s_gmm(spark, s_df, r_dfs, init=init, iters=cfg["iters"]),
        "F": train_f_gmm(spark, s_df, r_dfs, init=init, iters=cfg["iters"]),
    }
    return cfg, ref, results


ALGOS = ["M", "S", "F"]


@pytest.mark.parametrize("algo", ALGOS)
def test_means_match_reference(trained, algo):
    _, ref, results = trained
    np.testing.assert_allclose(
        results[algo].params.mu, ref.params.mu, rtol=1e-8, atol=1e-10
    )


@pytest.mark.parametrize("algo", ALGOS)
def test_covariances_match_reference(trained, algo):
    _, ref, results = trained
    np.testing.assert_allclose(
        results[algo].params.sigma, ref.params.sigma, rtol=1e-7, atol=1e-10
    )


@pytest.mark.parametrize("algo", ALGOS)
def test_mixing_weights_match_reference(trained, algo):
    _, ref, results = trained
    np.testing.assert_allclose(results[algo].params.pi, ref.params.pi, rtol=1e-9)


@pytest.mark.parametrize("algo", ALGOS)
def test_loglik_trajectory_matches_reference(trained, algo):
    """Not just the final model: the whole per-iteration trajectory (Eq. 6)."""
    cfg, ref, results = trained
    assert len(results[algo].history) == cfg["iters"]
    np.testing.assert_allclose(results[algo].history, ref.history, rtol=1e-9)


def test_all_three_algorithms_pairwise_identical(trained):
    _, _, results = trained
    for a in ("S", "F"):
        np.testing.assert_allclose(
            results[a].params.mu, results["M"].params.mu, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            results[a].params.sigma, results["M"].params.sigma, rtol=1e-7, atol=1e-10
        )


def test_loglik_monotone_on_spark_trainers(trained):
    _, _, results = trained
    for res in results.values():
        h = np.array(res.history)
        assert np.all(np.diff(h) >= -1e-6 * np.abs(h[:-1]))


def test_collapsed_covariance_names_the_iteration(spark, tmp_path):
    """M, S and F stop on a singular covariance with one message naming the
    iteration and the component, raised on the driver before any pass."""
    s_pdf, r_pdfs = multiway_relations_pdf(n_s=200, n_rs=[10], d_s=2, d_rs=[2], seed=0)
    init = init_gmm(4, 3, 0)
    init.sigma[1] = 0.0
    s_df, r_dfs = spark.createDataFrame(s_pdf), [spark.createDataFrame(r) for r in r_pdfs]
    trainers = {
        "M": lambda: train_m_gmm(spark, s_df, r_dfs, init=init, iters=2, tmpdir=str(tmp_path)),
        "S": lambda: train_s_gmm(spark, s_df, r_dfs, init=init, iters=2),
        "F": lambda: train_f_gmm(spark, s_df, r_dfs, init=init, iters=2),
    }
    messages = set()
    for train in trainers.values():
        with pytest.raises(np.linalg.LinAlgError, match="^iteration 0: component 1: ") as e:
            train()
        messages.add(str(e.value))
    assert messages == {"iteration 0: component 1: covariance not positive definite"}
