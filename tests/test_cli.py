"""End-to-end tests for the command-line interface.

Every command is exercised through click's test runner (``verify-paper``
also in a ``python -O`` subprocess); assertions pin the exit-code contract
(0 affirmative, 1 negative/undecided, 2 usage) and the exact text of the
most load-bearing outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from monoidlab.cli import main

runner = CliRunner()


def run(*args):
    return runner.invoke(main, args)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_holds():
    result = run("check", "E1", "x y y x = x x y y")
    assert result.exit_code == 0
    assert result.output == "holds in E^1 (36 substitutions)\n"


def test_check_fails_with_witness():
    result = run("check", "E1", "x^2 y^2 h x^2 y^2 = x^2 y^2 h y^2 x^2")
    assert result.exit_code == 1
    assert result.output == "fails in E^1 at h=a x=b y=c: 0 != ac\n"


def test_check_json():
    result = run("check", "--json", "E1", "x^2 y^2 h x^2 y^2 = x^2 y^2 h y^2 x^2")
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["monoid"] == "E^1" and data["holds"] is False
    assert data["witness"] == {"h": "a", "x": "b", "y": "c"}
    assert (data["lhs_value"], data["rhs_value"]) == ("0", "ac")

    result = run("check", "--json", "Q^1", "x^2 y^2 = y^2 x^2")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["holds"] is True and data["witness"] is None
    assert data["checked"] == 36


OVER_BUDGET = "x1 x2 x3 x4 x5 x6 x7 x8 = x2 x1 x3 x4 x5 x6 x7 x8"  # 9^8 > 10^7 in M(xyxy)
BUDGET_TEXT = "identity over 8 variables needs 43046721 substitutions in M(xyxy) (budget 10000000)"


@pytest.mark.parametrize(
    "args, subject",
    [
        (("check", "M(xyxy)", OVER_BUDGET), {"identity": OVER_BUDGET}),
        (("isoterm", "M(xyxy)", OVER_BUDGET.split(" = ")[0]),
         {"word": OVER_BUDGET.split(" = ")[0]}),
    ],
)
def test_over_budget_is_undecided(args, subject):
    result = run(*args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"undecided: {BUDGET_TEXT}\n"

    result = run(args[0], "--json", *args[1:])
    assert result.exit_code == 1
    assert json.loads(result.stdout) == {"monoid": "M(xyxy)", "error": BUDGET_TEXT, **subject}
    assert result.stderr == f"undecided: {BUDGET_TEXT}\n"


@pytest.mark.parametrize(
    "args",
    [
        ("check", "Zonk", "x = y"),          # unknown monoid
        ("check", "E1", "x y"),              # no equals sign
        ("check", "E1", "x = 2x"),           # bad word syntax
        ("isoterm", "E1", "2x"),             # bad word syntax
        ("member", "Zonk", "E1"),
        ("lattice", "validate", "Fig9"),
        ("deduce", "--rules", "/no/such/file", "x = y"),
        ("verify-paper", "--manifest", "/no/such/file"),
    ],
)
def test_usage_errors_exit_2(args):
    result = run(*args)
    assert result.exit_code == 2
    assert "Error:" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ("check", "E", "x = y"),
        ("isoterm", "E", "x y"),
        ("member", "E", "E^1"),
    ],
    ids=["check", "isoterm", "member"],
)
def test_semigroup_where_a_monoid_is_needed_exits_2(args):
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        "Error: E has no identity element; adjoin one first (adjoin_identity)\n"
    )


# ---------------------------------------------------------------------------
# isoterm / member
# ---------------------------------------------------------------------------


def test_isoterm_not_isoterm():
    result = run("isoterm", "M(x)", "x^2")
    assert result.exit_code == 1
    assert result.output == "not an isoterm: M(x) also satisfies x^2 = x^3\n"


def test_isoterm_certified():
    result = run("isoterm", "M(xyxy)", "x y x y")
    assert result.exit_code == 0
    assert result.output.startswith("certified: x y x y")


def test_isoterm_json():
    result = run("isoterm", "--json", "M(x)", "x^2")
    data = json.loads(result.output)
    assert data["verdict"] == "not_isoterm" and data["witness"] == "x^3"


def test_member_verdicts():
    result = run("member", "M(x)", "M(xy)")
    assert result.exit_code == 0
    assert result.output == "member: M(x) lies in the variety of M(xy)\n"

    result = run("member", "L2^1", "Q^1")
    assert result.exit_code == 1
    assert result.output == ("not a member: x1^2 x2^2 = x2 x1^2 x2 "
                             "holds in Q^1 but fails in L2^1\n")

    result = run("member", "--json", "L2^1", "Q^1")
    data = json.loads(result.output)
    assert data["verdict"] == "not_member"
    assert data["witness"] == "x1^2 x2^2 = x2 x1^2 x2"


# ---------------------------------------------------------------------------
# deduce / canonical / sigma classify
# ---------------------------------------------------------------------------


@pytest.fixture()
def basis_rules(tmp_path):
    path = tmp_path / "basis.rules"
    path.write_text(
        "# four defining identities\n"
        "x^3 = x^2\n"
        "x^2 y x = x y x\n"
        "x y x^2 = x y x\n"
        "x y^2 x = x^2 y^2\n"
    )
    return str(path)


def test_deduce_found(basis_rules):
    result = run("deduce", "--rules", basis_rules, "x^2 y^2 x^2 = x^2 y^2")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "found: 4 words (explored 17)"
    assert lines[1] == "  x^2 y^2 x^2"
    assert "via rule" in lines[2] and lines[-1].endswith("x y^2 x = x^2 y^2 with [x=x y=y] in context (1, 1)")


def test_deduce_json(basis_rules):
    result = run("deduce", "--json", "--rules", basis_rules, "x^2 y^2 x^2 = x^2 y^2")
    data = json.loads(result.output)
    assert data["status"] == "found" and data["explored"] == 17
    assert len(data["script"]["words"]) == 4


def test_deduce_exhausted(basis_rules):
    result = run("deduce", "--rules", basis_rules, "--max-length", "6",
                 "x^2 y^2 = y^2 x^2")
    assert result.exit_code == 1
    assert result.output.startswith("space_exhausted: no derivation within bounds")


def test_deduce_empty_rules(tmp_path):
    empty = tmp_path / "empty.rules"
    empty.write_text("# nothing\n")
    result = run("deduce", "--rules", str(empty), "x = y")
    assert result.exit_code == 2 and "no rules found" in result.output


def test_canonical():
    result = run("canonical", "x y x y x")
    assert result.exit_code == 0
    assert result.output == ("canonical: x^2 y^2\n"
                             "chain: 6 words\n"
                             "structure: [x y]\n")


def test_canonical_json():
    result = run("canonical", "--json", "x^2 h y x y x")
    data = json.loads(result.output)
    assert data["canonical"] == "x^2 h y^2 x^2"
    assert data["blocks"] == [["x"], ["y", "x"]]
    assert data["separators"] == ["h"]


def test_sigma_classify():
    result = run("sigma", "classify", "x^2 h1 x^2 y^2 = x^2 h1 y^2 x^2")
    assert result.exit_code == 0
    assert "stage 1" in result.output

    result = run("sigma", "classify", "x^2 y^2 h1 x^2 y^2 = x^2 y^2 h1 y^2 x^2")
    assert result.exit_code == 0
    assert "limit" in result.output


def test_sigma_classify_rejects_unreducible():
    result = run("sigma", "classify", "x y = y x")
    assert result.exit_code == 1
    assert "separator" in result.output


def test_sigma_classify_coinciding_sides():
    result = run("sigma", "classify", "x^2 h y^2 = x^2 h y^2")
    assert result.exit_code == 0
    assert result.output == ("identity: x^2 h y^2 = x^2 h y^2\n"
                             "no lambda identities: the sides coincide\n")


def test_sigma_classify_json():
    result = run("sigma", "classify", "--json", "x^2 h1 x^2 y^2 = x^2 h1 y^2 x^2")
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "identity": "x^2 h1 x^2 y^2 = x^2 h1 y^2 x^2",
        "lambdas": [{
            "class": "stage 1",
            "classified_as": "x^2 h1 x^2 y^2 = x^2 h1 y^2 x^2",
            "lambda": "y^2 h1 x^2 y^2 = y^2 h1 y^2 x^2",
        }],
    }


def test_sigma_classify_json_rejects_unreducible():
    result = run("sigma", "classify", "--json", "x y = y x")
    assert result.exit_code == 1
    assert json.loads(result.output) == {
        "identity": "x y = y x", "error": "words must share separator sequence",
    }


def test_rees_bad_word_exits_2():
    result = run("monoid", "rees", "x1y")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        "Error: cannot parse token 'x1y': multi-character variables must be "
        "separated by spaces or dots\n"
    )


def test_deduce_bad_rule_line_exits_2(tmp_path):
    path = tmp_path / "F"
    path.write_text("x^3 = x^2\n# a comment\nx y z\n")
    result = run("deduce", "--rules", str(path), "x = y")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        f"Error: {path}:3: identity text must have exactly one '=': 'x y z'\n"
    )


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def test_lattice_validate_bundled():
    result = run("lattice", "validate", "Fig1")
    assert result.exit_code == 0
    assert result.output == "Fig1: 15 nodes, 22 covers, lattice\n"

    result = run("lattice", "validate", "Fig4", "--depth", "5")
    assert result.exit_code == 0
    assert result.output == "Fig4: 18 nodes, 21 covers, lattice\n"


def test_lattice_validate_file_with_problems(tmp_path):
    path = tmp_path / "bad.poset"
    path.write_text(
        "poset bad\n"
        "node o\nnode x\nnode y\nnode p\nnode q\n"
        "cover o x\ncover o y\ncover x p\ncover y p\ncover x q\ncover y q\n"
    )
    result = run("lattice", "validate", str(path))
    assert result.exit_code == 1
    assert "no least upper bound for (x, y): minimal bounds ['p', 'q']" in result.output

    result = run("lattice", "validate", "--json", str(path))
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["ok"] is False and len(data["problems"]) == 3


def test_lattice_dot():
    result = run("lattice", "dot", "Fig2")
    assert result.exit_code == 0
    assert result.output.startswith('digraph "Fig2" {')
    assert result.output.count(" -> ") == 8

    result = run("lattice", "dot", "--json", "Fig2")
    data = json.loads(result.output)
    assert data["name"] == "Fig2" and data["dot"].startswith('digraph "Fig2"')


@pytest.mark.parametrize(
    "text, message",
    [
        ("poset c\nnode a\nnode b\ncover a b\ncover b a\n",
         "cover relation of 'c' has a cycle"),
        ("poset g\nnode a\ncover ghost a\n",
         "could not rank the nodes of 'g': a cover names an undeclared node"),
    ],
    ids=["cycle", "undeclared-node"],
)
def test_lattice_dot_malformed_file_exits_2(tmp_path, text, message):
    path = tmp_path / "bad.poset"
    path.write_text(text)
    result = run("lattice", "dot", str(path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"Error: {message}\n")


# ---------------------------------------------------------------------------
# monoid subcommands
# ---------------------------------------------------------------------------


def test_monoid_show_and_roundtrip(tmp_path):
    result = run("monoid", "show", "L2")
    assert result.exit_code == 0
    assert result.output == ("monoid L2\nelements a b\nidentity -\n"
                             "table\na a\nb b\n")
    # The printed file parses back to the same monoid.
    path = tmp_path / "l2.monoid"
    path.write_text(result.output)
    again = run("monoid", "show", str(path))
    assert again.output == result.output


def test_monoid_show_json():
    result = run("monoid", "show", "--json", "N2^1")
    data = json.loads(result.output)
    assert len(data["elements"]) == 3 and data["name"] == "N2^1"
    assert data["identity"] == "1"


def test_monoid_adjoin1():
    result = run("monoid", "adjoin1", "L2")
    assert result.exit_code == 0
    assert result.output == ("monoid L2^1\nelements a b 1\nidentity 1\n"
                             "table\na a a\nb b b\na b 1\n")


def test_monoid_product():
    result = run("monoid", "product", "--json", "L2^1", "B0^1")
    data = json.loads(result.output)
    assert len(data["elements"]) == 15


def test_monoid_rees():
    result = run("monoid", "rees", "x y")
    assert result.exit_code == 0
    assert result.output.splitlines()[:2] == ["monoid M(xy)", "elements 1 x y xy 0"]

    two = run("monoid", "rees", "--json", "x y", "y x")
    data = json.loads(two.output)
    assert data["elements"] == ["1", "x", "y", "xy", "yx", "0"]


def test_monoid_validate_broken_table(tmp_path):
    path = tmp_path / "broken.monoid"
    path.write_text(
        "monoid broken\n"
        "elements e a b\n"
        "identity e\n"
        "table\n"
        "e a b\n"
        "a a a\n"
        "b b a\n"
    )
    result = run("monoid", "validate", str(path))
    assert result.exit_code == 1
    assert "associat" in result.output.lower()

    ok = run("monoid", "validate", "E^1")
    assert ok.exit_code == 0
    assert ok.output == "ok: E^1 is a monoid of order 6\n"


def test_monoid_validate_names_a_semigroup():
    result = run("monoid", "validate", "E")
    assert result.exit_code == 0
    assert result.output == "ok: E is a semigroup of order 5\n"
    result = run("monoid", "validate", "--json", "E")
    assert json.loads(result.output) == {"monoid": "E", "order": 5, "ok": True, "problems": []}


def test_monoid_show_malformed_file_exits_2(tmp_path):
    path = tmp_path / "BAD.monoid"
    path.write_text("monoid bad\nelements e a\nidentity e\ntable\ne a\n")
    result = run("monoid", "show", str(path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith("Error: expected 2 table rows, found 1\n")


def test_monoid_commands_accept_semigroups():
    assert run("monoid", "show", "E").exit_code == 0
    assert run("monoid", "validate", "E").exit_code == 0
    result = run("monoid", "product", "E", "L2")
    assert result.exit_code == 0
    assert result.output.splitlines()[:2] == [
        "monoid (E x L2)",
        "elements (0,a) (0,b) (a,a) (a,b) (ac,a) (ac,b) (b,a) (b,b) (c,a) (c,b)",
    ]


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def test_verify_paper_bundled():
    result = run("verify-paper")
    assert result.exit_code == 0
    assert result.output.endswith("39 passed, 0 failed: all expectations met\n")
    assert result.output.count("PASS") == 39 and "FAIL" not in result.output


def test_verify_paper_json():
    result = run("verify-paper", "--json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["ok"] is True and data["passed"] == 39 and data["failed"] == 0


def test_verify_paper_json_optimized_interpreter():
    # python -O strips assert statements: every expectation must still be
    # re-checked and met without them.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "monoidlab.cli", "verify-paper", "--json"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["ok"] is True and data["passed"] == 39 and data["failed"] == 0


def test_verify_paper_custom_manifest(tmp_path):
    path = tmp_path / "demo.manifest"
    path.write_text("expect-order L2^1 3\nexpect-order E^1 7\n")
    result = run("verify-paper", "--manifest", str(path))
    assert result.exit_code == 1
    assert "FAIL" in result.output and "order 6, expected 7" in result.output


def test_verify_paper_parse_error_aborts(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text("expect-order L2^1 3\nexpect-wat\n")
    result = run("verify-paper", "--manifest", str(path))
    assert result.exit_code == 2
    assert "manifest line 2" in result.output


def test_version_flag():
    result = run("--version")
    assert result.exit_code == 0 and "0.1.0" in result.output
