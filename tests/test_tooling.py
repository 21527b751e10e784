"""Checks on the package source itself."""

import ast
from pathlib import Path

import luspec

SRC = Path(luspec.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements; invariant checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
