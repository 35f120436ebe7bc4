"""Validation in ``src/`` raises named exceptions, never ``assert``.

``python -O`` strips ``assert`` statements, so a check written as one
silently disappears. ``repro/oracle.py`` is exempt: asserting is its job.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
EXEMPT = {SRC / "oracle.py"}


def test_no_assert_statements_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in EXEMPT
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.rglob("*.py")), f"no sources under {SRC}"
    assert not found, f"assert statements (stripped by python -O): {found}"
