"""Benchmark-local fixtures: session warmup + cached prepared relations.

The warmup runs every pipeline (join, Parquet write/read, mapInPandas,
broadcast) once before any measurement, so first-use JVM/Arrow costs are not
attributed to whichever algorithm happens to run first (see DESIGN.md).
"""
import pytest

from repro.bench.harness import prepare_relations, warmup


@pytest.fixture(scope="session", autouse=True)
def _warm(spark):
    warmup(spark)


@pytest.fixture(scope="module")
def relations(request, spark):
    """Cached Spark relations of one ``repro.bench.tables.Config``.

    Parametrized indirectly by each suite, so M, S and F of one configuration
    share a single generation and cache.
    """
    cfg = request.param
    s_df, r_dfs = prepare_relations(spark, *cfg.generate_pdf())
    yield cfg, s_df, r_dfs
    s_df.unpersist()
    for r in r_dfs:
        r.unpersist()
