"""DuckDB-oracle checks of every relational step the trainers rely on.

``assert_equivalent`` runs the reference SQL in DuckDB over the same input
frames and diffs sorted rows against the Spark result — this is what catches
a wrong join or a broken aggregation rather than just "it ran".
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.relational import (
    collect_dimension_tables,
    denormalize,
    infer_dims,
    joined_feature_cols,
    s_input_cols,
)
from repro.data.normalized import (
    binary_relations_pdf,
    multiway_relations_pdf,
    to_spark,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def binary(spark):
    s_pdf, r_pdf = binary_relations_pdf(n_s=500, n_r=12, d_s=2, d_r=3, seed=0, target=True)
    return s_pdf, r_pdf, to_spark(spark, s_pdf), to_spark(spark, r_pdf)


@pytest.fixture(scope="module")
def threeway(spark):
    s_pdf, r_pdfs = multiway_relations_pdf(
        n_s=400, n_rs=[8, 5], d_s=1, d_rs=[2, 2], seed=1
    )
    return s_pdf, r_pdfs, to_spark(spark, s_pdf), [to_spark(spark, r) for r in r_pdfs]


def test_denormalize_binary_matches_sql_join(binary):
    s_pdf, r_pdf, s_df, r_df = binary
    t = denormalize(s_df, [r_df])
    sql = """
        SELECT s.sid, s.xs_0, s.xs_1, r.xr1_0, r.xr1_1, r.xr1_2
        FROM s JOIN r ON s.fk_1 = r.rid
    """
    assert_equivalent(t, sql, s=s_pdf, r=r_pdf)


def test_denormalize_binary_with_target(binary):
    s_pdf, r_pdf, s_df, r_df = binary
    t = denormalize(s_df, [r_df], extra_cols=["y"])
    sql = """
        SELECT s.sid, s.y, s.xs_0, s.xs_1, r.xr1_0, r.xr1_1, r.xr1_2
        FROM s JOIN r ON s.fk_1 = r.rid
    """
    assert_equivalent(t, sql, s=s_pdf, r=r_pdf)


def test_denormalize_preserves_cardinality(binary):
    s_pdf, _, s_df, r_df = binary
    assert denormalize(s_df, [r_df]).count() == len(s_pdf)  # N = nS (Table I)


def test_denormalize_multiway_matches_sql_join(threeway):
    s_pdf, r_pdfs, s_df, r_dfs = threeway
    t = denormalize(s_df, r_dfs)
    sql = """
        SELECT s.sid, s.xs_0, r1.xr1_0, r1.xr1_1, r2.xr2_0, r2.xr2_1
        FROM s JOIN r1 ON s.fk_1 = r1.rid JOIN r2 ON s.fk_2 = r2.rid
    """
    assert_equivalent(t, sql, s=s_pdf, r1=r_pdfs[0], r2=r_pdfs[1])


def test_per_fk_gamma_aggregation_catalyst_vs_sql_vs_numpy(spark, binary):
    """The factorized per-FK responsibility sums (g_t in suffstats): the
    Catalyst groupBy, the DuckDB GROUP BY and the NumPy bincount used inside
    F-GMM must all agree."""
    s_pdf, r_pdf, _, _ = binary
    rng = np.random.default_rng(5)
    aug = s_pdf.copy()
    aug["gamma0"] = rng.random(len(aug))
    aug_df = to_spark(spark, aug)
    agg = aug_df.groupBy("fk_1").agg(F.sum("gamma0").alias("gsum"))
    sql = "SELECT fk_1, SUM(gamma0) AS gsum FROM s GROUP BY fk_1"
    assert_equivalent(agg, sql, s=aug)
    # NumPy path (what the F-GMM batch fn computes)
    from repro.gmm.suffstats import _segment_sums

    got = _segment_sums(
        aug["fk_1"].to_numpy() - 1, aug["gamma0"].to_numpy(), None, len(r_pdf)
    )
    exp = (
        aug.groupby("fk_1")["gamma0"].sum().reindex(range(1, len(r_pdf) + 1), fill_value=0.0)
    )
    np.testing.assert_allclose(got, exp.to_numpy(), rtol=1e-9)


def test_per_fk_weighted_feature_aggregation_vs_sql(spark, binary):
    """h_t in suffstats: per-FK sums of gamma * x_S, Catalyst vs DuckDB."""
    s_pdf, _, _, _ = binary
    rng = np.random.default_rng(6)
    aug = s_pdf.copy()
    aug["gamma0"] = rng.random(len(aug))
    aug_df = to_spark(spark, aug)
    agg = aug_df.groupBy("fk_1").agg(
        F.sum(F.col("gamma0") * F.col("xs_0")).alias("gx0"),
        F.sum(F.col("gamma0") * F.col("xs_1")).alias("gx1"),
    )
    sql = """
        SELECT fk_1, SUM(gamma0 * xs_0) AS gx0, SUM(gamma0 * xs_1) AS gx1
        FROM s GROUP BY fk_1
    """
    assert_equivalent(agg, sql, s=aug)


def test_infer_dims_and_joined_cols(binary, threeway):
    _, _, s_df, r_df = binary
    assert infer_dims(s_df, [r_df]) == (2, [3])
    _, _, s3, r3 = threeway
    assert infer_dims(s3, r3) == (1, [2, 2])
    assert joined_feature_cols(1, [2, 2]) == [
        "xs_0", "xr1_0", "xr1_1", "xr2_0", "xr2_1",
    ]


def test_collect_dimension_tables_order_and_values(threeway):
    s_pdf, r_pdfs, _, r_dfs = threeway
    xrs = collect_dimension_tables(r_dfs)
    for xr, r_pdf, t in zip(xrs, r_pdfs, [1, 2]):
        cols = [c for c in r_pdf.columns if c.startswith(f"xr{t}_")]
        np.testing.assert_allclose(xr, r_pdf.sort_values("rid")[cols].to_numpy())


def test_collect_dimension_tables_rejects_non_contiguous_rid(spark):
    """A rid gap must raise even under ``python -O`` and name the table."""
    good = pd.DataFrame({"rid": [1, 2], "xr1_0": [0.1, 0.2]})
    bad = pd.DataFrame({"rid": [1, 3, 4], "xr2_0": [0.1, 0.2, 0.3]})
    with pytest.raises(ValueError, match="R2: rid must be the contiguous range"):
        collect_dimension_tables([to_spark(spark, good), to_spark(spark, bad)])


def test_s_input_cols_excludes_r_features():
    cols = s_input_cols(2, 2, extra_cols=["y"])
    assert cols == ["y", "xs_0", "xs_1", "fk_1", "fk_2"]
    assert not any(c.startswith("xr") for c in cols)
