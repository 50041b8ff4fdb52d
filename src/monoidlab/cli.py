"""Command-line front end.

Every subcommand is a thin wrapper over the library: it parses the
arguments, calls exactly one library entry point, prints the result, and
maps the outcome to an exit code:

* ``0`` — the command ran and the answer is affirmative (identity holds,
  membership confirmed, isoterm certified, derivation found, lattice
  valid, all manifest expectations met);
* ``1`` — the command ran but the answer is negative or undecided (a
  refuting witness was found, membership refuted or inconclusive, no
  derivation within bounds, validation problems, failed expectations);
* ``2`` — usage errors: unknown names, unreadable files, unparsable
  words/identities/manifests, a semigroup where a monoid is needed, a
  poset that cannot be ranked.  Diagnostics go to the error stream.

``--json`` on any subcommand emits a single machine-readable JSON object
instead of text; exit codes are unchanged.  Witness substitutions print
as ``x=b y=c h=a`` with monoid element labels on the right.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NoReturn

import click

from . import __version__
from .deduction import (
    DerivationError,
    canonical_decomposition,
    derive_bounded,
    lambda_reduce,
    sigma_classify,
    to_canonical,
)
from .equations import BudgetExceededError, isoterm, member, satisfies
from .lattice import (
    dot_export,
    figure_names,
    load_figure,
    parse_poset_text,
    poset_to_json_dict,
    validate_lattice,
)
from .manifest import (
    ManifestError,
    _error_text,
    bundled_manifest_text,
    parse_manifest,
    run_entries,
)
from .monoids import (
    FiniteMonoid,
    NeedsIdentityError,
    adjoin_identity,
    catalog,
    direct_product,
    format_monoid_text,
    load_monoid_file,
    monoid_to_json_dict,
    rees_quotient,
    validate,
)
from .words import format_identity, format_word, parse_identity, parse_word

json_option = click.option(
    "--json", "as_json", is_flag=True,
    help="Emit a single JSON object instead of text.",
)


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _emit_monoid(M: FiniteMonoid, as_json: bool) -> None:
    if as_json:
        _emit_json(monoid_to_json_dict(M))
    else:
        click.echo(format_monoid_text(M), nl=False)


def _resolve_monoid(ref: str) -> FiniteMonoid:
    """A catalog name, or a path to a monoid file."""
    try:
        if os.path.exists(ref):
            return load_monoid_file(ref)
        return catalog(ref)
    except Exception as exc:
        raise click.UsageError(_error_text(exc)) from exc


def _resolve_proper_monoid(ref: str) -> FiniteMonoid:
    """As _resolve_monoid, for commands that need an identity element."""
    M = _resolve_monoid(ref)
    try:
        M.require_identity()
    except NeedsIdentityError as exc:
        raise click.UsageError(str(exc)) from exc
    return M


def _parse_identity_arg(text: str):
    try:
        return parse_identity(text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_word_arg(text: str):
    try:
        return parse_word(text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Equational reasoning over finite monoids."""


# ---------------------------------------------------------------------------
# monoid show | validate | product | rees | adjoin1
# ---------------------------------------------------------------------------


@main.group()
def monoid() -> None:
    """Construct and inspect finite monoids."""


@monoid.command("show")
@click.argument("target")
@json_option
def monoid_show(target: str, as_json: bool) -> None:
    """Print a monoid (catalog name or monoid file) with its full table."""
    _emit_monoid(_resolve_monoid(target), as_json)


@monoid.command("validate")
@click.argument("target")
@json_option
def monoid_validate(target: str, as_json: bool) -> None:
    """Check associativity and the identity element; exit 1 on problems."""
    M = _resolve_monoid(target)
    report = validate(M)
    if as_json:
        _emit_json({"monoid": M.name, "order": M.order, "ok": report.ok,
                    "problems": list(report.problems)})
    elif report.ok:
        kind = "semigroup" if M.identity is None else "monoid"
        click.echo(f"ok: {M.name or '(unnamed)'} is a {kind} of order {M.order}")
    else:
        for problem in report.problems:
            click.echo(problem)
    if not report.ok:
        sys.exit(1)


@monoid.command("product")
@click.argument("first")
@click.argument("second")
@json_option
def monoid_product(first: str, second: str, as_json: bool) -> None:
    """Direct product of two monoids, printed as a monoid file."""
    P = direct_product(_resolve_monoid(first), _resolve_monoid(second))
    _emit_monoid(P, as_json)


@monoid.command("rees")
@click.argument("words", nargs=-1, required=True)
@json_option
def monoid_rees(words: tuple[str, ...], as_json: bool) -> None:
    """Monoid of all factors of the given words, with a zero for the rest."""
    M = rees_quotient(tuple(_parse_word_arg(w) for w in words))
    _emit_monoid(M, as_json)


@monoid.command("adjoin1")
@click.argument("target")
@json_option
def monoid_adjoin1(target: str, as_json: bool) -> None:
    """Adjoin a fresh identity element."""
    M = adjoin_identity(_resolve_monoid(target))
    _emit_monoid(M, as_json)


# ---------------------------------------------------------------------------
# check / isoterm / member
# ---------------------------------------------------------------------------


@main.command("check")
@click.argument("target")
@click.argument("identity")
@json_option
def check_cmd(target: str, identity: str, as_json: bool) -> None:
    """Decide whether the monoid satisfies "u = v".

    A factor-word quotient M(W) is decided by factor embeddings, an
    identity with at least three linear letters (once in each side, inside
    the longest common prefix or suffix) by eliminating them, and any other
    by exhaustive substitution; all within the substitution budget.
    Exit 0 if it holds, 1 with the first refuting substitution if not, or
    when the n^k substitutions exceed the budget (undecided).
    """
    M = _resolve_proper_monoid(target)
    ident = _parse_identity_arg(identity)
    try:
        res = satisfies(M, ident)
    except BudgetExceededError as exc:
        _undecided(as_json, exc, {"monoid": M.name, "identity": format_identity(ident)})
    if as_json:
        _emit_json({"monoid": M.name, "identity": format_identity(ident),
                    "holds": res.holds, "checked": res.checked,
                    "witness": res.witness,
                    "lhs_value": res.lhs_value, "rhs_value": res.rhs_value})
    elif res.holds:
        click.echo(f"holds in {M.name} ({res.checked} substitutions)")
    else:
        click.echo(f"fails in {M.name} at {res.witness_text()}: "
                   f"{res.lhs_value} != {res.rhs_value}")
    if not res.holds:
        sys.exit(1)


@main.command("isoterm")
@click.argument("target")
@click.argument("word")
@json_option
def isoterm_cmd(target: str, word: str, as_json: bool) -> None:
    """Decide whether the word is an isoterm for the monoid.

    Exit 0 only for a certified isoterm; 1 when a distinct equivalent
    word is found (printed), certification is out of reach, or the
    substitutions over the word's variables exceed the budget.
    """
    M = _resolve_proper_monoid(target)
    w = _parse_word_arg(word)
    try:
        verdict = isoterm(M, w)
    except BudgetExceededError as exc:
        _undecided(as_json, exc, {"monoid": M.name, "word": format_word(w)})
    if as_json:
        _emit_json({"monoid": M.name, "word": format_word(w),
                    "verdict": verdict.kind,
                    "witness": None if verdict.witness is None else format_word(verdict.witness),
                    "details": verdict.details})
    elif verdict.kind == "not_isoterm":
        click.echo(f"not an isoterm: {M.name} also satisfies "
                   f"{format_word(w)} = {format_word(verdict.witness)}")
    else:
        click.echo(f"{verdict.kind}: {format_word(w)} ({_details_text(verdict.details)})")
    if verdict.kind != "certified":
        sys.exit(1)


def _undecided(as_json: bool, exc: BudgetExceededError, subject: dict) -> NoReturn:
    """Report a query left undecided by the substitution budget; exit 1."""
    click.echo(f"undecided: {exc}", err=True)
    if as_json:
        _emit_json({**subject, "error": str(exc)})
    sys.exit(1)


def _details_text(details: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(details.items()))


@main.command("member")
@click.argument("candidate")
@click.argument("generator")
@json_option
def member_cmd(candidate: str, generator: str, as_json: bool) -> None:
    """Decide whether CANDIDATE lies in the variety generated by GENERATOR.

    Exit 0 for membership; 1 when refuted (separating identity printed)
    or inconclusive under the configured budgets.
    """
    A = _resolve_proper_monoid(candidate)
    B = _resolve_proper_monoid(generator)
    verdict = member(A, B)
    if as_json:
        _emit_json({"candidate": A.name, "generator": B.name,
                    "verdict": verdict.kind,
                    "witness": None if verdict.witness is None else format_identity(verdict.witness),
                    "details": verdict.details})
    elif verdict.kind == "member":
        click.echo(f"member: {A.name} lies in the variety of {B.name}")
    elif verdict.kind == "not_member":
        click.echo(f"not a member: {format_identity(verdict.witness)} "
                   f"holds in {B.name} but fails in {A.name}")
    else:
        click.echo(f"unknown: {_details_text(verdict.details)}")
    if verdict.kind != "member":
        sys.exit(1)


# ---------------------------------------------------------------------------
# deduce / canonical / sigma classify
# ---------------------------------------------------------------------------


def _load_rules_file(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise click.UsageError(str(exc)) from exc
    rules = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rules.append(parse_identity(line))
        except ValueError as exc:
            raise click.UsageError(f"{path}:{lineno}: {exc}") from exc
    if not rules:
        raise click.UsageError(f"{path}: no rules found")
    return tuple(rules)


@main.command("deduce")
@click.option("--rules", "rules_path", required=True, metavar="FILE",
              help="Text file of rule identities, one 'u = v' per line.")
@click.option("--max-words", default=100_000, show_default=True,
              help="Search cap on distinct words explored.")
@click.option("--max-length", default=None, type=int,
              help="Length cap on intermediate words (default: auto).")
@click.argument("identity")
@json_option
def deduce_cmd(rules_path: str, max_words: int, max_length: int | None,
               identity: str, as_json: bool) -> None:
    """Search for a step-by-step derivation of "u = v" from the rules.

    Exit 0 with the mechanically re-checked chain when found; 1 when the
    bounded search exhausts its space or hits the cap.
    """
    rules = _load_rules_file(rules_path)
    ident = _parse_identity_arg(identity)
    try:
        outcome = derive_bounded(ident.lhs, ident.rhs, rules,
                                 max_words=max_words, max_length=max_length)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if as_json:
        _emit_json({"identity": format_identity(ident), "status": outcome.status,
                    "explored": outcome.explored,
                    "script": None if outcome.script is None else outcome.script.to_dict()})
    elif outcome.script is not None:
        steps = outcome.script.check()
        click.echo(f"found: {len(outcome.script.words)} words "
                   f"(explored {outcome.explored})")
        click.echo(f"  {format_word(outcome.script.words[0])}")
        for step in steps:
            click.echo(f"  {step.describe(rules)}")
    else:
        click.echo(f"{outcome.status}: no derivation within bounds "
                   f"(explored {outcome.explored})")
    if outcome.script is None:
        sys.exit(1)


@main.command("canonical")
@click.argument("word")
@json_option
def canonical_cmd(word: str, as_json: bool) -> None:
    """Rewrite the word to canonical square-block form under the default basis.

    Exit 0 with the canonical word, its derivation length, and its block
    structure; 1 when no canonical word is reachable within bounds.
    """
    w = _parse_word_arg(word)
    try:
        target, script = to_canonical(w)
    except DerivationError as exc:
        if as_json:
            _emit_json({"word": format_word(w), "error": str(exc)})
        else:
            click.echo(str(exc))
        sys.exit(1)
    deco = canonical_decomposition(target)
    structure = _structure_text(deco)
    if as_json:
        _emit_json({"word": format_word(w), "canonical": format_word(target),
                    "chain_words": len(script.words),
                    "blocks": [list(b) for b in deco.blocks],
                    "separators": list(deco.separators)})
    else:
        click.echo(f"canonical: {format_word(target)}")
        click.echo(f"chain: {len(script.words)} words")
        click.echo(f"structure: {structure}")


def _structure_text(deco) -> str:
    parts = ["[" + " ".join(deco.blocks[0]) + "]"]
    for sep, block in zip(deco.separators, deco.blocks[1:]):
        parts.append(sep)
        parts.append("[" + " ".join(block) + "]")
    return " ".join(parts)


@main.group()
def sigma() -> None:
    """The alternating-squares identity chain."""


@sigma.command("classify")
@click.argument("identity")
@json_option
def sigma_classify_cmd(identity: str, as_json: bool) -> None:
    """Reduce a canonical identity to lambda identities and classify each.

    The sides must be distinct canonical words with matching block
    structure, per-block content, and first occurrences; exit 1 otherwise.
    """
    ident = _parse_identity_arg(identity)
    try:
        lambdas = lambda_reduce(ident.lhs, ident.rhs)
    except ValueError as exc:
        if as_json:
            _emit_json({"identity": format_identity(ident), "error": str(exc)})
        else:
            click.echo(str(exc))
        sys.exit(1)
    rows = []
    for lam in lambdas:
        cls = sigma_classify(lam)
        rows.append({"lambda": format_identity(lam.identity()),
                     "class": cls.describe(),
                     "classified_as": format_identity(cls.identity())})
    if as_json:
        _emit_json({"identity": format_identity(ident), "lambdas": rows})
    else:
        click.echo(f"identity: {format_identity(ident)}")
        if not rows:
            click.echo("no lambda identities: the sides coincide")
        for row in rows:
            click.echo(f"  {row['lambda']}  --  {row['class']} "
                       f"({row['classified_as']})")


# ---------------------------------------------------------------------------
# lattice validate | dot
# ---------------------------------------------------------------------------


def _load_poset(ref: str, depth: int):
    try:
        if ref in figure_names():
            return load_figure(ref, depth=depth)
        if os.path.exists(ref):
            with open(ref, encoding="utf-8") as handle:
                return parse_poset_text(handle.read())
        raise ValueError(
            f"unknown figure {ref!r} (bundled: {', '.join(figure_names())}) "
            "and no such file")
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.group()
def lattice() -> None:
    """Bundled subvariety diagrams and user poset files."""


@lattice.command("validate")
@click.argument("figure")
@click.option("--depth", default=3, show_default=True,
              help="Truncation depth for the parameterized chain figure.")
@json_option
def lattice_validate(figure: str, depth: int, as_json: bool) -> None:
    """Check the poset axioms and unique joins/meets; exit 1 on problems."""
    P = _load_poset(figure, depth)
    report = validate_lattice(P)
    if as_json:
        payload = poset_to_json_dict(P)
        payload.update(ok=report.ok, problems=list(report.problems))
        _emit_json(payload)
    else:
        click.echo(report.summary())
        for problem in report.problems:
            click.echo(f"  {problem}")
    if not report.ok:
        sys.exit(1)


@lattice.command("dot")
@click.argument("figure")
@click.option("--depth", default=3, show_default=True,
              help="Truncation depth for the parameterized chain figure.")
@json_option
def lattice_dot(figure: str, depth: int, as_json: bool) -> None:
    """Emit the diagram in DOT form, ranked by height."""
    P = _load_poset(figure, depth)
    try:
        text = dot_export(P)
    except ValueError as exc:  # a cycle, or a cover naming an undeclared node
        raise click.UsageError(str(exc)) from exc
    if as_json:
        _emit_json({"name": P.name, "dot": text})
    else:
        click.echo(text, nl=False)


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


@main.command("verify-paper")
@click.option("--manifest", "manifest_path", default=None, metavar="FILE",
              help="Expectation manifest to run (default: the bundled one).")
@json_option
def verify_paper(manifest_path: str | None, as_json: bool) -> None:
    """Execute every expectation in the manifest and report pass/fail.

    Exit 0 when all expectations are met, 1 otherwise; manifest parse
    errors abort before anything runs (exit 2).
    """
    if manifest_path is None:
        text, shown = bundled_manifest_text(), "bundled paper.manifest"
    else:
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise click.UsageError(str(exc)) from exc
        shown = manifest_path
    try:
        entries = parse_manifest(text)
    except ManifestError as exc:
        raise click.UsageError(str(exc)) from exc
    report = run_entries(entries, path=shown)
    if as_json:
        _emit_json(report.to_json_dict())
    else:
        click.echo(report.summary_text())
    if not report.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
