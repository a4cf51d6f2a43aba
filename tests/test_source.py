"""Checks on the library source itself."""

import ast
from pathlib import Path

import halfcross


def test_no_assert_statements_in_library():
    # assert statements vanish under python -O, and AssertionError reads as a
    # failed assert; runtime checks must raise a typed error
    found = []
    for path in sorted(Path(halfcross.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                isinstance(raised, ast.Name) and raised.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
