"""Normalized-schema generators: schema invariants, determinism, densify."""
import numpy as np
import pandas as pd
import pytest

from repro.data.normalized import (
    densify_pdf,
    fk_cols,
    gaussian_mixture_features,
    infer_dims,
    multiway_relations_pdf,
    one_hot_features,
    r_feature_cols,
    s_feature_cols,
)


def test_column_name_helpers():
    assert s_feature_cols(2) == ["xs_0", "xs_1"]
    assert r_feature_cols(2, 3) == ["xr3_0", "xr3_1"]
    assert fk_cols(2) == ["fk_1", "fk_2"]


@pytest.mark.parametrize("n_s,n_r,d_s,d_r", [(100, 10, 2, 3), (500, 7, 1, 1), (50, 50, 4, 2)])
def test_binary_schema(n_s, n_r, d_s, d_r):
    s, [r] = multiway_relations_pdf(n_s=n_s, n_rs=[n_r], d_s=d_s, d_rs=[d_r], seed=0)
    assert list(s.columns) == ["sid", *s_feature_cols(d_s), "fk_1"]
    assert list(r.columns) == ["rid", *r_feature_cols(d_r, 1)]
    assert len(s) == n_s and len(r) == n_r
    assert (r["rid"].to_numpy() == np.arange(1, n_r + 1)).all()
    assert s["fk_1"].between(1, n_r).all()
    assert (s["sid"].to_numpy() == np.arange(1, n_s + 1)).all()


def test_binary_schema_with_target():
    s, _ = multiway_relations_pdf(n_s=50, n_rs=[5], d_s=2, d_rs=[2], seed=0, target=True)
    assert list(s.columns[:2]) == ["sid", "y"]
    assert s["y"].dtype == np.float64


def test_multiway_schema():
    s, rs = multiway_relations_pdf(n_s=80, n_rs=[8, 5, 3], d_s=2, d_rs=[3, 1, 2], seed=1)
    assert len(rs) == 3
    for t, (r, n_r, d_r) in enumerate(zip(rs, [8, 5, 3], [3, 1, 2]), start=1):
        assert list(r.columns) == ["rid", *r_feature_cols(d_r, t)]
        assert len(r) == n_r
        assert s[f"fk_{t}"].between(1, n_r).all()


def test_multiway_rejects_mismatched_table_lists():
    with pytest.raises(ValueError, match="n_rs has 2 entries but d_rs has 1"):
        multiway_relations_pdf(n_s=10, n_rs=[4, 5], d_s=1, d_rs=[2], seed=0)


@pytest.mark.parametrize("seed", [0, 7])
def test_determinism(seed):
    a_s, [a_r] = multiway_relations_pdf(n_s=60, n_rs=[6], d_s=2, d_rs=[2], seed=seed)
    b_s, [b_r] = multiway_relations_pdf(n_s=60, n_rs=[6], d_s=2, d_rs=[2], seed=seed)
    pd.testing.assert_frame_equal(a_s, b_s)
    pd.testing.assert_frame_equal(a_r, b_r)


def test_different_seeds_differ():
    a_s, _ = multiway_relations_pdf(n_s=60, n_rs=[6], d_s=2, d_rs=[2], seed=0)
    b_s, _ = multiway_relations_pdf(n_s=60, n_rs=[6], d_s=2, d_rs=[2], seed=1)
    assert not a_s[s_feature_cols(2)].equals(b_s[s_feature_cols(2)])


def test_densify_matches_pandas_merge():
    s, [r] = multiway_relations_pdf(n_s=40, n_rs=[5], d_s=2, d_rs=[3], seed=2, target=True)
    x, y = densify_pdf(s, [r])
    merged = s.merge(r, left_on="fk_1", right_on="rid", how="inner").sort_values("sid")
    expect = merged[[*s_feature_cols(2), *r_feature_cols(3, 1)]].to_numpy()
    np.testing.assert_allclose(x, expect)
    np.testing.assert_allclose(y, merged["y"].to_numpy())


def test_densify_multiway_shape_and_values():
    s, rs = multiway_relations_pdf(n_s=30, n_rs=[4, 6], d_s=1, d_rs=[2, 3], seed=3)
    x, y = densify_pdf(s, rs)
    assert x.shape == (30, 6)
    assert y is None
    # spot-check row 0 against manual FK lookups
    fk1, fk2 = s.loc[0, "fk_1"], s.loc[0, "fk_2"]
    np.testing.assert_allclose(x[0, 1:3], rs[0].loc[fk1 - 1, r_feature_cols(2, 1)].to_numpy())
    np.testing.assert_allclose(x[0, 3:6], rs[1].loc[fk2 - 1, r_feature_cols(3, 2)].to_numpy())


def test_infer_dims_reads_pandas_frames():
    s, rs = multiway_relations_pdf(n_s=20, n_rs=[4, 3], d_s=2, d_rs=[3, 1], seed=0, target=True)
    assert infer_dims(s, rs) == (2, [3, 1])
    assert infer_dims(s, rs[:1]) == (2, [3])


def test_densify_rejects_bare_r_frame():
    s, [r] = multiway_relations_pdf(n_s=20, n_rs=[4], d_s=2, d_rs=[3], seed=0)
    with pytest.raises(TypeError, match="list of attribute tables .* got DataFrame"):
        densify_pdf(s, r)


def test_gaussian_mixture_features_stats():
    x = gaussian_mixture_features(5000, 3, seed=0, k_true=4)
    assert x.shape == (5000, 3)
    assert np.isfinite(x).all()
    assert x.std() > 1.0  # mixture of spread-out centers, not a point mass


@pytest.mark.parametrize("width", [1, 5, 10, 23, 126])
def test_one_hot_blocks(width):
    x = one_hot_features(200, width, seed=1)
    assert x.shape == (200, width)
    assert set(np.unique(x)) <= {0.0, 1.0}
    # every row has the same number of ones (one per block)
    ones = x.sum(axis=1)
    assert (ones == ones[0]).all()
    assert 1 <= ones[0] <= max(1, width // 5)


def test_sparse_flags_apply_one_hot():
    s, [r] = multiway_relations_pdf(
        n_s=50, n_rs=[5], d_s=4, d_rs=[6], seed=4, sparse_s=True, sparse_r=True
    )
    assert set(np.unique(s[s_feature_cols(4)].to_numpy())) <= {0.0, 1.0}
    assert set(np.unique(r[r_feature_cols(6, 1)].to_numpy())) <= {0.0, 1.0}


def test_target_depends_on_r_features():
    """y must carry signal from the joined R features (the join matters)."""
    s, rs = multiway_relations_pdf(n_s=4000, n_rs=[10], d_s=1, d_rs=[5], seed=5, target=True)
    x, y = densify_pdf(s, rs)
    # correlation of y with the R part of the joined features is material
    r_part = x[:, 1:]
    corr = max(abs(np.corrcoef(r_part[:, j], y)[0, 1]) for j in range(5))
    assert corr > 0.1
