"""Line-oriented expectation manifests.

A manifest is a plain-text file of executable expectations, one per
line, with ``#`` comments and blank lines ignored.  Each line reads
``<kind> <args...>``:

===========================  ====================================================
kind                         arguments
===========================  ====================================================
``expect-holds``             ``<monoid> <u> = <v>``
``expect-fails``             ``<monoid> <u> = <v> [@ <var>=<element> ...]``
``expect-isoterm-verdict``   ``<monoid> <verdict> <word...>``
``expect-member-verdict``    ``<A> <B> <verdict>``
``expect-derivation-valid``  ``<script>`` (bundled script name or JSON path)
``expect-order``             ``<monoid> <n>``
``expect-iso``               ``<A> <B>``
===========================  ====================================================

Monoid arguments are catalog names (``E^1``, ``M(xy)``, ...).  The
optional ``@`` clause of ``expect-fails`` pins a concrete refuting
substitution that the runner re-evaluates; the runner also records the
first witness found by the exhaustive search.

Parsing is strict and happens before any entry runs: a malformed line
aborts the whole manifest with a :class:`ManifestError` naming the line.
Execution is deterministic, entry by entry in file order, and each
result carries JSON-safe evidence (witnesses, verdict details, script
endpoints) sufficient to re-check the claim by hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .deduction import DerivationError, DerivationScript, bundled_script
from .equations import evaluate, isoterm, member, satisfies
from .monoids import catalog, find_isomorphism
from .words import Identity, Word, format_identity, format_word, parse_identity, parse_word

__all__ = [
    "ManifestError",
    "ManifestEntry",
    "EntryResult",
    "ManifestReport",
    "parse_manifest",
    "run_entries",
    "run_manifest",
    "bundled_manifest_text",
]

MANIFEST_KINDS = (
    "expect-holds",
    "expect-fails",
    "expect-isoterm-verdict",
    "expect-member-verdict",
    "expect-derivation-valid",
    "expect-order",
    "expect-iso",
)

_ISOTERM_VERDICTS = ("not_isoterm", "certified", "bounded_only")
_MEMBER_VERDICTS = ("member", "not_member", "unknown")


class ManifestError(ValueError):
    """A manifest line that cannot be parsed."""


@dataclass(frozen=True)
class ManifestEntry:
    """One executable expectation."""

    index: int  # position among entries (report order)
    lineno: int  # 1-based line number in the source text
    kind: str
    subjects: tuple[str, ...]  # monoid names or a script reference
    identity: Identity | None = None
    word: Word | None = None
    expected: str | None = None  # verdict name or order, as text
    pinned_witness: dict[str, str] | None = None
    source: str = ""


@dataclass(frozen=True)
class EntryResult:
    entry: ManifestEntry
    passed: bool
    detail: str  # one human-readable evidence line
    evidence: dict = field(default_factory=dict)  # JSON-safe re-check data


@dataclass(frozen=True)
class ManifestReport:
    path: str | None
    results: tuple[EntryResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> tuple[int, int]:
        """(passed, failed)."""
        npass = sum(1 for r in self.results if r.passed)
        return npass, len(self.results) - npass

    def summary_text(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status} [{r.entry.index:3d}] {r.entry.source} -- {r.detail}")
        npass, nfail = self.counts
        verdict = "all expectations met" if self.ok else f"{nfail} expectation(s) failed"
        lines.append(f"{npass} passed, {nfail} failed: {verdict}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "manifest": self.path,
            "ok": self.ok,
            "passed": self.counts[0],
            "failed": self.counts[1],
            "entries": [
                {
                    "index": r.entry.index,
                    "line": r.entry.lineno,
                    "kind": r.entry.kind,
                    "source": r.entry.source,
                    "passed": r.passed,
                    "detail": r.detail,
                    "evidence": r.evidence,
                }
                for r in self.results
            ],
        }


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _fail(lineno: int, message: str) -> ManifestError:
    return ManifestError(f"manifest line {lineno}: {message}")


def _parse_witness(text: str, lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in text.split():
        var, sep, element = token.partition("=")
        if not sep or not var or not element:
            raise _fail(lineno, f"bad witness assignment {token!r} (want var=element)")
        out[var] = element
    return out


def _parse_entry(index: int, lineno: int, line: str) -> ManifestEntry:
    kind, _, rest = line.partition(" ")
    rest = rest.strip()
    if kind not in MANIFEST_KINDS:
        raise _fail(lineno, f"unknown kind {kind!r}")
    try:
        if kind in ("expect-holds", "expect-fails"):
            subject, _, identity_text = rest.partition(" ")
            if not subject or not identity_text.strip():
                raise _fail(lineno, f"{kind} needs a monoid and an identity")
            pinned = None
            if kind == "expect-fails" and " @ " in identity_text:
                identity_text, _, witness_text = identity_text.partition(" @ ")
                pinned = _parse_witness(witness_text, lineno)
            ident = parse_identity(identity_text.strip())
            return ManifestEntry(index, lineno, kind, (subject,), identity=ident,
                                 pinned_witness=pinned, source=line)
        if kind == "expect-isoterm-verdict":
            parts = rest.split(None, 2)
            if len(parts) != 3:
                raise _fail(lineno, "expect-isoterm-verdict needs monoid, verdict, word")
            subject, verdict, word_text = parts
            if verdict not in _ISOTERM_VERDICTS:
                raise _fail(lineno, f"unknown isoterm verdict {verdict!r}")
            return ManifestEntry(index, lineno, kind, (subject,),
                                 word=parse_word(word_text), expected=verdict, source=line)
        if kind == "expect-member-verdict":
            parts = rest.split()
            if len(parts) != 3:
                raise _fail(lineno, "expect-member-verdict needs two monoids and a verdict")
            if parts[2] not in _MEMBER_VERDICTS:
                raise _fail(lineno, f"unknown member verdict {parts[2]!r}")
            return ManifestEntry(index, lineno, kind, (parts[0], parts[1]),
                                 expected=parts[2], source=line)
        if kind == "expect-derivation-valid":
            if not rest or len(rest.split()) != 1:
                raise _fail(lineno, "expect-derivation-valid needs one script reference")
            return ManifestEntry(index, lineno, kind, (rest,), source=line)
        if kind == "expect-order":
            parts = rest.split()
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise _fail(lineno, "expect-order needs a monoid and a number")
            return ManifestEntry(index, lineno, kind, (parts[0],), expected=parts[1],
                                 source=line)
        # expect-iso
        parts = rest.split()
        if len(parts) != 2:
            raise _fail(lineno, "expect-iso needs two monoids")
        return ManifestEntry(index, lineno, kind, (parts[0], parts[1]), source=line)
    except ManifestError:
        raise
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from exc


def parse_manifest(text: str) -> tuple[ManifestEntry, ...]:
    """Parse manifest text into entries; raises ManifestError on any bad line."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entries.append(_parse_entry(len(entries), lineno, line))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _resolve_script(ref: str) -> DerivationScript:
    """A bundled script name first, else a path to a script JSON file."""
    shipped = bundled_script(ref)
    if shipped is not None:
        return shipped
    with open(ref, encoding="utf-8") as handle:
        return DerivationScript.from_json(handle.read())


def _run_entry(entry: ManifestEntry) -> EntryResult:
    kind = entry.kind
    if kind in ("expect-holds", "expect-fails"):
        M = catalog(entry.subjects[0])
        res = satisfies(M, entry.identity)
        evidence: dict = {"monoid": M.name, "identity": format_identity(entry.identity),
                          "holds": res.holds, "checked": res.checked}
        if res.witness is not None:
            evidence["witness"] = dict(res.witness)
            evidence["values"] = [res.lhs_value, res.rhs_value]
        if kind == "expect-holds":
            detail = "holds" if res.holds else f"fails at {res.witness_text()}"
            return EntryResult(entry, res.holds, detail, evidence)
        if res.holds:
            return EntryResult(entry, False, "holds but was expected to fail", evidence)
        detail = f"fails at {res.witness_text()}"
        if entry.pinned_witness is not None:
            lhs = evaluate(M, entry.identity.lhs, entry.pinned_witness)
            rhs = evaluate(M, entry.identity.rhs, entry.pinned_witness)
            evidence["pinned_witness"] = dict(entry.pinned_witness)
            evidence["pinned_values"] = [lhs, rhs]
            if lhs == rhs:
                return EntryResult(entry, False,
                                   f"pinned witness does not refute ({lhs} = {rhs})", evidence)
            detail += "; pinned witness re-verified"
        return EntryResult(entry, True, detail, evidence)

    if kind == "expect-isoterm-verdict":
        M = catalog(entry.subjects[0])
        verdict = isoterm(M, entry.word)
        evidence = {"monoid": M.name, "word": format_word(entry.word),
                    "verdict": verdict.kind,
                    "details": {k: str(v) for k, v in sorted(verdict.details.items())}}
        if verdict.witness is not None:
            evidence["witness_word"] = format_word(verdict.witness)
        passed = verdict.kind == entry.expected
        detail = f"verdict {verdict.kind}" + ("" if passed else f", expected {entry.expected}")
        return EntryResult(entry, passed, detail, evidence)

    if kind == "expect-member-verdict":
        A, B = (catalog(name) for name in entry.subjects)
        verdict = member(A, B)
        evidence = {"candidate": A.name, "generator": B.name, "verdict": verdict.kind}
        if verdict.witness is not None:
            evidence["witness_identity"] = format_identity(verdict.witness)
        passed = verdict.kind == entry.expected
        detail = f"verdict {verdict.kind}" + ("" if passed else f", expected {entry.expected}")
        return EntryResult(entry, passed, detail, evidence)

    if kind == "expect-derivation-valid":
        script = _resolve_script(entry.subjects[0])
        evidence = {"script": entry.subjects[0], "rules": len(script.rules),
                    "words": len(script.words),
                    "proves": format_identity(script.identity())}
        try:
            script.check()
        except DerivationError as exc:
            return EntryResult(entry, False, f"invalid: {exc}", evidence)
        return EntryResult(entry, True,
                           f"{len(script.words)} words prove {evidence['proves']}", evidence)

    if kind == "expect-order":
        M = catalog(entry.subjects[0])
        expected = int(entry.expected)
        evidence = {"monoid": M.name, "order": M.order, "expected": expected}
        passed = M.order == expected
        detail = f"order {M.order}" + ("" if passed else f", expected {expected}")
        return EntryResult(entry, passed, detail, evidence)

    # expect-iso
    A, B = (catalog(name) for name in entry.subjects)
    mapping = find_isomorphism(A, B)
    evidence = {"first": A.name, "second": B.name}
    if mapping is None:
        return EntryResult(entry, False, "no isomorphism found", evidence)
    evidence["isomorphism"] = {a: mapping[a] for a in A.elements}
    return EntryResult(entry, True, "isomorphic", evidence)


def _error_text(exc: BaseException) -> str:
    # KeyError stringifies to the repr of its argument; unwrap it.
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def run_entries(entries, path: str | None = None) -> ManifestReport:
    """Execute parsed entries in order; failures never stop the run."""
    results = []
    for entry in entries:
        try:
            results.append(_run_entry(entry))
        except Exception as exc:  # bad monoid name, missing script file, ...
            message = _error_text(exc)
            results.append(EntryResult(entry, False, f"error: {message}",
                                       {"error": message}))
    return ManifestReport(path, tuple(results))


def run_manifest(path) -> ManifestReport:
    """Parse and execute the manifest file at ``path``."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return run_entries(parse_manifest(text), path=str(path))


def bundled_manifest_text() -> str:
    """The expectation manifest shipped with the package."""
    from importlib import resources

    return resources.files("monoidlab").joinpath("data/paper.manifest").read_text()


def report_json(report: ManifestReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
