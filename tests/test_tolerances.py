"""Every numerical tolerance is defined once, in coniccond/tolerances.py."""

import ast
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coniccond"
TABLE = PACKAGE / "tolerances.py"


def _e_notation_floats(path):
    """(line, text) of each float literal in e-notation; comments and strings are skipped."""
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            text = token.string.lower()
            if token.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                yield token.start[0], token.string


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p != TABLE),
                         ids=lambda p: p.name)
def test_no_tolerance_literal_outside_the_table(path):
    found = [f"{path.name}:{line}: {text}" for line, text in _e_notation_floats(path)]
    assert not found, "define these in tolerances.py:\n" + "\n".join(found)


def test_table_imports_nothing():
    tree = ast.parse(TABLE.read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
