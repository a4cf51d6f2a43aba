"""Checks on the library source itself."""

import ast
from pathlib import Path

import halfcross


def test_no_assert_statements_in_library():
    # assert statements vanish under python -O; runtime checks must raise
    found = []
    for path in sorted(Path(halfcross.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
