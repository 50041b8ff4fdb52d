"""Tests for the expectation-manifest parser and runner."""

from __future__ import annotations

import json

import pytest

from monoidlab.manifest import (
    ManifestError,
    bundled_manifest_text,
    parse_manifest,
    report_json,
    run_entries,
    run_manifest,
)
from monoidlab.words import parse_identity, parse_word


def test_parse_structured_fields():
    text = """
    # demo manifest
    expect-holds E^1 x^3 = x^2
    expect-fails L2^1 x^2 y^2 = y^2 x^2 @ x=a y=b
    expect-isoterm-verdict M(x) not_isoterm x^2
    expect-member-verdict L2^1 Q^1 not_member
    expect-derivation-valid commute_squares
    expect-order M(xyxy) 9
    expect-iso M(x) N2^1
    """
    entries = parse_manifest(text)
    assert [e.kind for e in entries] == [
        "expect-holds", "expect-fails", "expect-isoterm-verdict",
        "expect-member-verdict", "expect-derivation-valid",
        "expect-order", "expect-iso",
    ]
    assert [e.index for e in entries] == list(range(7))
    holds, fails, iso_t, memb, deriv, order, iso = entries
    assert holds.subjects == ("E^1",)
    assert holds.identity == parse_identity("x^3 = x^2")
    assert fails.pinned_witness == {"x": "a", "y": "b"}
    assert fails.identity == parse_identity("x^2 y^2 = y^2 x^2")
    assert iso_t.word == parse_word("x^2") and iso_t.expected == "not_isoterm"
    assert memb.subjects == ("L2^1", "Q^1") and memb.expected == "not_member"
    assert deriv.subjects == ("commute_squares",)
    assert order.expected == "9"
    assert iso.subjects == ("M(x)", "N2^1")
    assert entries[0].lineno == 3  # comments and blanks keep line numbers


@pytest.mark.parametrize(
    "line, message",
    [
        ("expect-wat E^1 x = y", "unknown kind"),
        ("expect-holds E^1", "needs a monoid and an identity"),
        ("expect-holds E^1 x ? y", "exactly one '='"),
        ("expect-fails E^1 x = y @ zap", "bad witness assignment"),
        ("expect-fails E^1 x = y @", "cannot parse token"),
        ("expect-isoterm-verdict M(x) sideways x", "unknown isoterm verdict"),
        ("expect-isoterm-verdict M(x) certified", "needs monoid, verdict, word"),
        ("expect-member-verdict A B perhaps", "unknown member verdict"),
        ("expect-member-verdict A B", "needs two monoids and a verdict"),
        ("expect-derivation-valid", "needs one script reference"),
        ("expect-order E^1 six", "needs a monoid and a number"),
        ("expect-order E^1 ²", "needs a monoid and a number"),
        ("expect-iso E^1", "needs two monoids"),
    ],
)
def test_parse_errors(line, message):
    with pytest.raises(ManifestError, match=message):
        parse_manifest(line)


def test_parse_error_reports_line_number():
    with pytest.raises(ManifestError, match="manifest line 3"):
        parse_manifest("# fine\nexpect-order E^1 6\nexpect-wat x\n")


def test_empty_manifest_passes():
    report = run_entries(parse_manifest("# nothing here\n\n"))
    assert report.ok and report.results == ()
    assert report.counts == (0, 0)
    assert "0 passed, 0 failed" in report.summary_text()


def test_bundled_manifest_all_pass():
    entries = parse_manifest(bundled_manifest_text())
    assert len(entries) == 39
    kinds = {}
    for e in entries:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    assert kinds == {
        "expect-order": 10,
        "expect-iso": 2,
        "expect-holds": 6,
        "expect-fails": 3,
        "expect-member-verdict": 3,
        "expect-isoterm-verdict": 2,
        "expect-derivation-valid": 13,
    }
    report = run_entries(entries, path="bundled")
    assert report.ok, report.summary_text()
    assert report.counts == (39, 0)
    assert report.summary_text().endswith("39 passed, 0 failed: all expectations met")


def test_run_manifest_reads_file(tmp_path):
    path = tmp_path / "small.manifest"
    path.write_text("expect-order L2^1 3\nexpect-holds Q^1 x^2 y^2 = y^2 x^2\n")
    report = run_manifest(path)
    assert report.ok and report.path == str(path)


def test_single_wrong_expectation_single_failure():
    text = (
        "expect-order L2^1 3\n"
        "expect-holds L2^1 x^2 y^2 = y^2 x^2\n"  # actually fails
        "expect-iso M(x) N2^1\n"
    )
    report = run_entries(parse_manifest(text))
    assert not report.ok
    assert report.counts == (2, 1)
    failed = [r for r in report.results if not r.passed]
    assert len(failed) == 1
    assert failed[0].entry.index == 1
    assert failed[0].detail == "fails at x=a y=b"
    assert failed[0].evidence["witness"] == {"x": "a", "y": "b"}
    assert failed[0].evidence["values"] == ["a", "b"]


def test_iso_entry_without_isomorphism_fails():
    # L2^1 and R2^1 are anti-isomorphic only
    report = run_entries(parse_manifest("expect-iso L2^1 R2^1\n"))
    assert report.counts == (0, 1)
    result = report.results[0]
    assert (result.passed, result.detail) == (False, "no isomorphism found")
    assert result.evidence == {"first": "L2^1", "second": "R2^1"}


def test_pinned_witness_is_reverified():
    good = "expect-fails E^1 x^2 y^2 h x^2 y^2 = x^2 y^2 h y^2 x^2 @ h=a x=b y=c"
    report = run_entries(parse_manifest(good))
    assert report.ok
    evidence = report.results[0].evidence
    assert evidence["pinned_values"] == ["0", "ac"]
    assert evidence["witness"] == {"h": "a", "x": "b", "y": "c"}

    # A substitution that does not refute the identity fails the entry
    # even though the identity does fail elsewhere.
    bad = "expect-fails E^1 x^2 y^2 h x^2 y^2 = x^2 y^2 h y^2 x^2 @ h=1 x=b y=b"
    report = run_entries(parse_manifest(bad))
    assert not report.ok
    assert "pinned witness does not refute" in report.results[0].detail


def test_expectation_direction_failures():
    text = (
        "expect-holds L2^1 x y = y x\n"          # fails -> entry fails
        "expect-fails E^1 x^3 = x^2\n"           # holds -> entry fails
        "expect-member-verdict L2^1 Q^1 member\n"  # verdict mismatch
        "expect-order E^1 7\n"
    )
    report = run_entries(parse_manifest(text))
    assert report.counts == (0, 4)
    details = [r.detail for r in report.results]
    assert details[0].startswith("fails at")
    assert details[1] == "holds but was expected to fail"
    assert details[2] == "verdict not_member, expected member"
    assert details[3] == "order 6, expected 7"


def test_runtime_error_becomes_failure():
    report = run_entries(parse_manifest("expect-order Zonk 4\n"))
    assert not report.ok
    assert report.results[0].detail.startswith("error: unknown catalog name")
    # quotes come unwrapped, not doubled
    assert not report.results[0].detail.startswith('error: "')


def test_derivation_entry_from_file_and_failure(tmp_path):
    from monoidlab.deduction import bundled_scripts

    script = bundled_scripts()["sigma_step_1"]
    path = tmp_path / "step.json"
    path.write_text(script.to_json())
    report = run_entries(parse_manifest(f"expect-derivation-valid {path}\n"))
    assert report.ok
    assert report.results[0].evidence["words"] == 2

    broken = script.to_dict()
    broken["words"][-1] = "x"  # endpoint no longer reachable
    bad_path = tmp_path / "broken.json"
    bad_path.write_text(json.dumps(broken))
    report = run_entries(parse_manifest(f"expect-derivation-valid {bad_path}\n"))
    assert not report.ok
    assert report.results[0].detail.startswith("invalid:")


def test_report_json_schema_and_determinism():
    text = "expect-order L2^1 3\nexpect-holds L2^1 x y = y x\n"
    report = run_entries(parse_manifest(text), path="demo")
    data = report.to_json_dict()
    assert data["manifest"] == "demo"
    assert data["ok"] is False
    assert data["passed"] == 1 and data["failed"] == 2 - 1
    assert [e["index"] for e in data["entries"]] == [0, 1]
    assert data["entries"][1]["evidence"]["witness"] == {"x": "a", "y": "b"}
    again = run_entries(parse_manifest(text), path="demo")
    assert report_json(report) == report_json(again)
    json.loads(report_json(report))  # well-formed
