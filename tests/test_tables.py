"""The six evaluation artifacts that ``jobs/run.py`` runs are pinned (no Spark).

Each config is pinned by a digest: the first 16 hex digits of the SHA-256 of
``repr([(name, spec, size, scale), ...])`` over the artifact's configs.
"""
import hashlib
import runpy
from pathlib import Path

import pytest

from repro.bench.tables import ARTIFACTS

# name -> (model, iters, number of configs, configs digest)
EXPECTED = {
    "table6": ("GMM", 5, 8, "3779ac1fc1ccd686"),
    "table7": ("NN", 5, 3, "3def9ba6345b4ef8"),
    "fig3": ("GMM", 3, 9, "586fcce6014a9d14"),
    "fig4": ("GMM", 3, 6, "169099bac16c9b09"),
    "fig5": ("NN", 3, 9, "86609136dd8efbb8"),
    "fig6": ("NN", 3, 6, "ffbc9d051900ff00"),
}


def test_artifact_names():
    assert list(ARTIFACTS) == list(EXPECTED)


@pytest.mark.parametrize("name", EXPECTED)
def test_artifact_definition(name):
    art = ARTIFACTS[name]
    configs = repr([(c.spec.name, c.spec, c.size, c.scale) for c in art.configs])
    digest = hashlib.sha256(configs.encode()).hexdigest()[:16]
    assert (art.model, art.iters, len(art.configs), digest) == EXPECTED[name]
    assert (art.paper is not None) == name.startswith("table")


def test_run_rejects_unknown_artifact():
    main = runpy.run_path(str(Path(__file__).resolve().parents[1] / "jobs" / "run.py"))["main"]
    with pytest.raises(SystemExit) as exc:
        main(["table8"])
    assert exc.value.code == 2
