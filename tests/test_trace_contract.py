"""The names the traced benchmark run wraps are the names the trainers call.

``perfbench/layers.py`` times each pass by patching layer functions on the six
trainer modules themselves (``TRAINER_MODULES``, ``DRIVER_CALLS``). A trainer
that called one of them through another module, or not once per iteration,
would silently drop out of the trace; this test catches that at toy size.
"""
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from repro.bench.harness import make_init, train  # noqa: E402
from repro.data.normalized import multiway_relations_pdf  # noqa: E402

ITERS = 2
# Driver calls made once per training, not once per iteration.
ONCE = {"collect_dimension_tables"}


@pytest.fixture(scope="module")
def relations(spark):
    s_pdf, r_pdfs = multiway_relations_pdf(
        n_s=300, n_rs=[6], d_s=2, d_rs=[2], seed=0, target=True
    )
    return spark.createDataFrame(s_pdf), [spark.createDataFrame(r) for r in r_pdfs]


@pytest.mark.parametrize("model", list(layers.TRAINER_MODULES))
@pytest.mark.parametrize("algo", ["m", "s", "f"])
def test_every_traced_name_is_called_per_iteration(spark, relations, tmp_path, model, algo):
    mod = layers.TRAINER_MODULES[model][algo]
    names = ["aggregate_partitions"] + [a for a in layers.DRIVER_CALLS[model] if hasattr(mod, a)]
    if algo == "f":  # F makes every driver call the trace reports
        assert len(names) == 1 + len(layers.DRIVER_CALLS[model])
    else:  # M and S finish with F's calls at q = 0: the update and the assembly
        assert sorted(layers.DRIVER_CALLS[model][a] for a in names[1:]) == [
            "driver.assemble",
            "driver.update",
        ]
    mocks = {a: mock.Mock(wraps=getattr(mod, a)) for a in names}
    s_df, r_dfs = relations
    with mock.patch.multiple(mod, **mocks):
        res = train(
            model.upper(),
            algo.upper(),
            spark,
            s_df,
            r_dfs,
            init=make_init(model.upper(), 4, 2),
            iters=ITERS,
            tmpdir=str(tmp_path),
        )
    assert len(res.history) == ITERS
    for a, m in mocks.items():
        assert m.call_count == (1 if a in ONCE else ITERS), a
