"""Static checks on the package source."""

from __future__ import annotations

import ast
import pathlib

import monoidlab

PACKAGE = pathlib.Path(monoidlab.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so soundness re-checks in the
    # package raise AssertionError explicitly instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
