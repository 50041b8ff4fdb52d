"""Checks on the package source: no assert statements, Python 3.10 grammar,
no import cycle between its modules, one owner for per-monoid data, and the
acceptance criteria met under ``python -O``."""

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


def _intra_package_imports(path: pathlib.Path, modules: set[str]) -> set[str]:
    """The package modules that ``path`` imports anywhere in its body,
    function-level imports included (``__init__`` for the package itself)."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] if node.module else []
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names = [f"monoidlab.{node.module}"]
            else:
                names = [f"monoidlab.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "monoidlab":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return found - {path.stem}


def test_package_imports_form_no_cycle():
    # A cycle between modules, even one hidden behind a function-level
    # import, makes the import order matter; the modules must form layers.
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in paths}
    graph = {path.stem: _intra_package_imports(path, modules) for path in paths}
    # The walk must see deduction's imports, or an empty graph would pass.
    assert graph["deduction"] >= {"equations", "monoids", "words"}
    # Peel off modules that import nothing left; a cycle is what remains.
    while leaves := {m for m, deps in graph.items() if not deps}:
        graph = {m: deps - leaves for m, deps in graph.items() if m not in leaves}
    assert graph == {}


def test_per_monoid_data_has_one_owner():
    # Data computed from a monoid lives in that instance's memo
    # (``FiniteMonoid._cached``).  A function-level cache would key it by
    # ``==``, which ignores ``factors`` and ``factor_words``, and ``id()``
    # is reused once an instance is collected; so the package may use
    # neither, except the catalog's cache of the instances themselves.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == (
                    "monoids", "_catalog_cached"):
                allowed.update(ast.walk(node.decorator_list[0]))
        for node in ast.walk(tree):
            if node in allowed:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "functools" and node.attr in ("lru_cache", "cache"):
                name = node.attr
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                name = ",".join(a.name for a in node.names if a.name in ("lru_cache", "cache"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "id":
                name = "id("
            else:
                continue
            if name:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert found == []


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
