"""The package checks its results with explicit raises, never with ``assert``,
which ``python -O`` strips: a re-verification must run in every mode."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rainbowmatch"


def test_package_has_no_assert_statement():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
