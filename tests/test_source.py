"""Checks on the package source: no assert statements, Python 3.10 grammar,
and the acceptance criteria met under ``python -O``."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import monoidlab

PACKAGE = pathlib.Path(monoidlab.__file__).resolve().parent
REPO = pathlib.Path(__file__).resolve().parents[1]


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


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # grammar added later (``except*``, PEP 695 type parameters, ...) even
    # when a newer interpreter runs the tests.
    rejected = []
    for path in sorted(PACKAGE.rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(PACKAGE)}:{exc.lineno}: {exc.msg}")
    assert rejected == []


def test_acceptance_criteria_pass_under_optimized_interpreter():
    # python -O strips assert statements from the package, not from test
    # modules, which pytest rewrites: every criterion must still be met
    # with the package's soundness re-checks running as explicit raises.
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "tests/test_acceptance.py", "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The one warning is pytest's notice that -O is in effect.
    assert re.fullmatch(r"17 passed(, 1 warning)? in .+", proc.stdout.splitlines()[-1]), proc.stdout
