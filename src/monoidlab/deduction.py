"""Mechanical verification and search for equational derivations.

A single derivation step rewrites ``l·theta(p)·r`` to ``l·theta(q)·r`` for a
rule ``p = q`` used in either direction (equational semantics: rules are
symmetric, not oriented).  ``check_derivation`` verifies a chain of words
step by step; ``derive_bounded`` searches for a chain with a bidirectional
breadth-first search over the (symmetric) one-step relation, whose
neighbourhoods ``successors`` lists.

Both one-step engines split a rule direction as p = A·P·B and q = A·Q·B
(``_split_rule``): only P changes into Q.  Each rule direction is planned
once by ``_plan`` -- the split, the order of its variables, and the anchor
of ``successors`` -- per call of ``successors``, when a call of
``directly_deducible`` reaches it, and per chain in ``check_derivation``
and per search in ``derive_bounded`` and ``to_canonical``, which hand
their ``_PlannedRules`` to every call.
``directly_deducible`` matches the shorter of P on u and Q on v first (P
on a tie), once from each start within the common prefix of u and v with
an open end, keeps the stops within that word's common suffix, and solves
the other side to the matching end on its word; ``successors`` matches P
from every start, grown over the context up to the nearest filler on each
side (a letter of p outside P and Q, which only places the rewrite), or
over all of p when Q needs a variable that only the context beyond a
filler binds.  Both extend a solution into the rest of the context with
``_extend_into_context``.  Every match runs on the generator
``words.extend_match``, so each engine is nested ``for`` loops over the
stops of the changing sides and of the context; ``successors`` admits a
rewrite at the first extension into the context, by ``next``.

The module also implements the canonical-word machinery: canonical words
factor as blocks of distinct squares separated by once-occurring letters,
lambda identities are the two-square-tail identities over such prefixes,
``lambda_reduce`` rewrites a canonical pair into the lambda identities it
generates, ``lq_equiv_syntactic`` runs the two syntactic equivalence tests
on canonical words, and ``sigma_classify`` places a lambda identity in the
alternating-squares chain (some finite stage, or its limit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .equations import BudgetExceededError, satisfies
from .monoids import catalog
from .words import (
    EMPTY,
    Identity,
    Word,
    _common_prefix,
    _split_rule,
    format_identity,
    extend_match,
    format_word,
    parse_identity,
    parse_word,
    sigma,
    sigma_infinity,
)

__all__ = [
    "E1_BASIS",
    "DerivationError",
    "DerivationStep",
    "DerivationScript",
    "directly_deducible",
    "check_derivation",
    "successors",
    "DeriveOutcome",
    "derive_bounded",
    "CanonicalDecomposition",
    "canonical_decomposition",
    "is_canonical",
    "LQEquivalence",
    "lq_equiv_syntactic",
    "to_canonical",
    "PREFIX_CHOICES",
    "LambdaIdentity",
    "lambda_reduce",
    "SigmaClass",
    "sigma_classify",
]


#: Defining identities of the variety generated by the catalog monoid E^1:
#: cube collapse, two one-sided square absorptions, and the square-pull rule.
E1_BASIS: tuple[Identity, ...] = (
    parse_identity("x^3 = x^2"),
    parse_identity("x^2 y x = x y x"),
    parse_identity("x y x^2 = x y x"),
    parse_identity("x y^2 x = x^2 y^2"),
)


class DerivationError(ValueError):
    """A derivation chain or canonicalization request is invalid."""


# ---------------------------------------------------------------------------
# Single steps and chains
# ---------------------------------------------------------------------------


@dataclass
class DerivationStep:
    source: Word
    target: Word
    rule_index: int
    forward: bool
    theta: dict[str, Word]
    left: Word
    right: Word

    def describe(self, rules: Sequence[Identity]) -> str:
        arrow = "->" if self.forward else "<-"
        sub = " ".join(f"{v}={format_word(w)}" for v, w in sorted(self.theta.items()))
        rule = f"rule {self.rule_index} ({arrow}) {format_identity(rules[self.rule_index])}"
        return (
            f"{format_word(self.source)} => {format_word(self.target)} via {rule}"
            f" with [{sub}] in context ({format_word(self.left)}, {format_word(self.right)})"
        )


def _extend_into_context(
    ut: tuple[str, ...],
    s: int,
    e: int,
    head: tuple[str, ...],
    tail: tuple[str, ...],
    bindings: Mapping[str, tuple[str, ...]],
) -> Iterator[tuple[dict[str, tuple[str, ...]], int]]:
    """Extend a solution on the window ut[s:e] into its context on ut:
    ``tail`` is matched forward from e, then ``head`` backward from s
    (reversed, on the reversed prefix), with the images in ``bindings``
    fixed.  Yields ``(images, head_length)`` once per solution, with every
    variable's image read forward and head's image starting at
    s - head_length.  It matches on copies, so ``bindings`` is never
    touched and a consumer may stop at the first solution."""
    forward = dict(bindings)
    for _ in extend_match(tail, ut, e, None, forward):
        reversed_bindings = {c: t[::-1] for c, t in forward.items()}
        for stop in extend_match(head[::-1], ut[:s][::-1], 0, None, reversed_bindings):
            yield {c: t[::-1] for c, t in reversed_bindings.items()}, stop


@dataclass(slots=True)
class _Plan:
    """What both one-step engines need of one rule direction p -> q, none
    of which depends on the word: the split p = A·P·B, q = A·Q·B
    (``_split_rule``); for ``_least_step`` which changed side it matches
    first, p's variables in sorted order, the variables only in q, and the
    key order of a returned theta; for ``_anchored_rewrites`` the filler
    cut A = head·A2, B = B1·tail and its anchor A2·P·B1.  ``_plan`` builds
    it; ``_PlannedRules`` holds one per rule direction."""

    p: tuple[str, ...]
    a_side: tuple[str, ...]
    p_mid: tuple[str, ...]
    q_mid: tuple[str, ...]
    b_side: tuple[str, ...]
    q_first: bool
    p_vars: tuple[str, ...]
    one_sided: tuple[str, ...]
    order: tuple[str, ...]
    head: tuple[str, ...]
    a_near: tuple[str, ...]
    b_near: tuple[str, ...]
    tail: tuple[str, ...]
    anchor: tuple[str, ...]


def _plan(p: tuple[str, ...], q: tuple[str, ...]) -> _Plan:
    """The plan of the rule direction p -> q.

    A filler -- a letter of A·B in neither P nor Q, like h_1..h_n of
    ``sigma(n)`` -- only places a rewrite: its image never reaches the
    output, yet each filler multiplies the embeddings of p by up to len(u).
    So A = head·A2 and B = B1·tail are cut at the filler nearest to P on
    each side (A2 and B1 hold none).  The cut needs theta(Q) to be read off
    the anchor A2·P·B1: when a variable of Q outside the anchor occurs in
    head or tail, so that only the context beyond a filler binds it (the
    direction x^2 y z x^2 -> x^2 y x^2 z x^2, whose Q = x^2 lies between
    the fillers y and z), nothing is cut and the anchor is all of p.  No
    direction of ``E1_BASIS`` or of ``sigma(n)`` is of that kind."""
    a_side, p_mid, q_mid, b_side = _split_rule(p, q)
    changing = set(p_mid).union(q_mid)
    cut_a = len(a_side)
    while cut_a and a_side[cut_a - 1] in changing:
        cut_a -= 1
    cut_b = 0
    while cut_b < len(b_side) and b_side[cut_b] in changing:
        cut_b += 1
    head, a_near = a_side[:cut_a], a_side[cut_a:]
    b_near, tail = b_side[:cut_b], b_side[cut_b:]
    if (head or tail) and set(q_mid).difference(a_near, p_mid, b_near).intersection(head + tail):
        head, a_near, b_near, tail = (), a_side, b_side, ()
    p_set = set(p)
    return _Plan(
        p=p,
        a_side=a_side,
        p_mid=p_mid,
        q_mid=q_mid,
        b_side=b_side,
        q_first=len(q_mid) < len(p_mid),
        p_vars=tuple(sorted(p_set)),
        one_sided=tuple(sorted(set(q).difference(p_set))),
        order=tuple(dict.fromkeys(p + q)),
        head=head,
        a_near=a_near,
        b_near=b_near,
        tail=tail,
        anchor=a_near + p_mid + b_near,
    )


def _rule_directions(rules: Iterable[Identity]) -> Iterator[tuple[int, bool, _Plan]]:
    """Each rule direction as (rule index, forward, plan), in the order
    both engines try them: rules in order, each forward then backward,
    each planned only when it is reached."""
    for idx, r in enumerate(rules):
        yield idx, True, _plan(r.lhs.letters, r.rhs.letters)
        yield idx, False, _plan(r.rhs.letters, r.lhs.letters)


class _PlannedRules(tuple):
    """A tuple of rules that also holds every rule direction's plan, as
    ``_rule_directions`` yields it.  ``check_derivation``,
    ``derive_bounded`` and ``to_canonical`` build one and pass it as the
    ``rules`` of every ``directly_deducible`` or ``successors`` call they
    make, so each rule direction is planned once per chain or search; a
    plain sequence of rules is planned as each call reaches its directions
    (``_directions``)."""

    directions: tuple[tuple[int, bool, _Plan], ...]

    def __new__(cls, rules: Iterable[Identity]) -> "_PlannedRules":
        self = super().__new__(cls, rules)
        self.directions = tuple(_rule_directions(self))
        return self


def _directions(rules: Sequence[Identity]) -> Iterable[tuple[int, bool, _Plan]]:
    if isinstance(rules, _PlannedRules):
        return rules.directions
    return _rule_directions(rules)


def _least_step(
    ut: tuple[str, ...], vt: tuple[str, ...], plan: _Plan, lcp: int, lcs: int
) -> tuple[dict[str, Word], int] | None:
    """The least (theta, position) rewriting ut to vt by the planned
    direction p -> q, or None.

    "Least" is the (sorted theta restricted to p, position, sorted theta of
    the variables only in q) order.  With p = A·P·B and q = A·Q·B (see
    ``_split_rule``), every valid step has theta(P) = ut[s:e] and
    theta(Q) = vt[s:f] with f = e + delta, delta = len(vt) - len(ut), for
    a window with s <= lcp, e >= len(ut) - lcs and f >= len(vt) - lcs.
    The shorter of P and Q (P on a tie, ``_Plan.q_first``) is matched
    first, on its own word (P on ut, Q on vt), once from each start
    s <= lcp with an open end, and a stop is kept only within that word's
    common suffix.  The other side is then solved jointly on its word to
    exactly the matching end (f - delta on ut, e + delta on vt), and only
    then is the solution extended on ut by ``_extend_into_context``: B to
    the right from e, A to the left from s.  Both orders give the same set
    of (s, e, theta) solutions, and the least key is taken over that set.
    """
    delta = len(vt) - len(ut)
    q_first = plan.q_first
    if q_first:
        first, first_text, second, second_text, shift = plan.q_mid, vt, plan.p_mid, ut, -delta
    else:
        first, first_text, second, second_text, shift = plan.p_mid, ut, plan.q_mid, vt, delta
    floor = len(first_text) - lcs
    a_side, b_side = plan.a_side, plan.b_side
    p_vars, one_sided = plan.p_vars, plan.one_sided

    best: tuple | None = None
    bindings: dict[str, tuple[str, ...]] = {}
    for s in range(lcp + 1):
        for stop in extend_match(first, first_text, s, None, bindings):
            if stop < floor:
                continue
            end = stop + shift
            e = end if q_first else stop
            for _ in extend_match(second, second_text, s, end, bindings):
                context = _extend_into_context(ut, s, e, a_side, b_side, bindings)
                for images, head_length in context:
                    key = (
                        tuple(images[c] for c in p_vars),
                        s - head_length,
                        tuple(images[c] for c in one_sided),
                    )
                    if best is None or key < best[0]:
                        best = (key, images)

    if best is None:
        return None
    (_key_p, pos, _key_q), images = best
    return {c: Word(images[c]) for c in plan.order}, pos


def directly_deducible(
    u: Word, v: Word, rules: Sequence[Identity]
) -> DerivationStep | None:
    """The first single derivation step turning u into v, or None.

    Deterministic order: rules in the given order, each used forward then
    backward; within one rule direction, the least images of the variables
    of p (compared as letter tuples, variables in sorted order), then the
    leftmost position, then the least images of the variables occurring
    only on the replacement side, in the same order (solved against v, so
    the check is exact for arbitrary rules).  This is the first step an
    exhaustive search in that order would find.

    The search is anchored on where u and v differ rather than on every
    embedding of the rule into u: only the parts of the rule where its two
    sides differ are matched, the shorter one first, once from each start
    within the common prefix of u and v, and a match counts only if it ends
    within their common suffix (see ``_least_step``).  Each rule direction
    is planned when the search reaches it (``_plan``), so a step found by
    the first rule plans no other, or not at all when ``rules`` comes
    planned from ``check_derivation``.
    """
    if u == v:
        return None
    ut, vt = u.letters, v.letters
    lcp = _common_prefix(ut, vt)
    lcs = _common_prefix(ut[::-1], vt[::-1])
    for idx, forward, plan in _directions(rules):
        found = _least_step(ut, vt, plan, lcp, lcs)
        if found is None:
            continue
        theta, pos = found
        end = pos + sum(len(theta[c]) for c in plan.p)
        return DerivationStep(
            source=u,
            target=v,
            rule_index=idx,
            forward=forward,
            theta=theta,
            left=u[:pos],
            right=u[end:],
        )
    return None


def check_derivation(
    words: Sequence[Word], rules: Sequence[Identity]
) -> list[DerivationStep]:
    """Verify that consecutive words are each one rule application apart.

    Words must be pairwise distinct.  Raises DerivationError naming the
    first failing link; returns the verified steps.  The rules are planned
    once for the whole chain.
    """
    words = list(words)
    if not words:
        raise DerivationError("empty derivation")
    if len(set(words)) != len(words):
        raise DerivationError("derivation words must be pairwise distinct")
    rules = _PlannedRules(rules)
    steps = []
    for i in range(len(words) - 1):
        step = directly_deducible(words[i], words[i + 1], rules)
        if step is None:
            raise DerivationError(
                f"step {i}: {format_word(words[i])} => {format_word(words[i + 1])} "
                "is not a single application of any rule"
            )
        steps.append(step)
    return steps


def successors(
    u: Word, rules: Sequence[Identity], *, max_length: int | None = None
) -> list[Word]:
    """All words one rule application away from u (either direction),
    de-duplicated, sorted, excluding u itself.

    Variables occurring only on the replacement side of a rule are
    instantiated with the empty word (their image is otherwise unbounded);
    the bounded search makes no completeness claim in that case.

    Every rule direction is matched by ``_anchored_rewrites``: only the
    part of p around the letters that change is matched from each start,
    and the rest of p is asked for one extension.  Each rule direction is
    planned once per call (``_plan``), or not at all when ``rules`` comes
    planned from ``derive_bounded`` or ``to_canonical``.
    """
    ut = u.letters
    out: set[tuple[str, ...]] = set()
    for _, _, plan in _directions(rules):
        _anchored_rewrites(ut, plan, max_length, out)
    # shortlex on the letter tuples: the order of the Words built from them
    return [Word(t) for t in sorted(out, key=lambda t: (len(t), t))]


def _anchored_rewrites(
    ut: tuple[str, ...],
    plan: _Plan,
    max_length: int | None,
    out: set[tuple[str, ...]],
) -> None:
    """Add to ``out`` every rewrite of ut by the planned direction p -> q
    other than u itself.

    With p = head·A2·P·B1·tail and q = head·A2·Q·B1·tail (``_plan``: A2
    and B1 reach from P to the nearest filler, or over all of p), only the
    part matched by P changes.  The anchor A2·P·B1 is matched from every
    start t with an open end: a solution ending at stop gives the window
    s = t + |theta(A2)|, e = stop - |theta(B1)| and the word
    ut[:s]·theta(Q)·ut[e:].  The letters the anchor keeps beside P repeat
    variables of P or Q, and matching them with P pins those variables as
    matching p whole would.

    A candidate that is a no-op, longer than ``max_length`` or already in
    ``out`` is dropped before the context is matched; tail is then matched
    forward from stop and head backward from t (``_extend_into_context``),
    and the first solution, taken with ``next``, admits the word.  With
    head and tail empty, as for a whole-side anchor or a rule with no
    filler, that first extension is found at once, so the every-embedding
    loop is this path's special case; a separate loop for it measured no
    faster on the Fig4 limit edge's words."""
    head, a_near, b_near, tail = plan.head, plan.a_near, plan.b_near, plan.tail
    anchor, q_mid = plan.anchor, plan.q_mid
    bindings: dict[str, tuple[str, ...]] = {}
    for t in range(len(ut) + 1):
        for stop in extend_match(anchor, ut, t, None, bindings):
            s, e = t, stop
            for c in a_near:
                s += len(bindings[c])
            for c in b_near:
                e -= len(bindings[c])
            image = tuple(x for c in q_mid for x in bindings.get(c, ()))
            if max_length is not None and len(ut) - (e - s) + len(image) > max_length:
                continue
            word = ut[:s] + image + ut[e:]
            if word == ut or word in out:
                continue
            if next(_extend_into_context(ut, t, stop, head, tail, bindings), None) is not None:
                out.add(word)


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


@dataclass
class DerivationScript:
    """A rule list plus the full word chain of a derivation."""

    rules: tuple[Identity, ...]
    words: tuple[Word, ...]
    meta: dict = field(default_factory=dict)

    def identity(self) -> Identity:
        return Identity(self.words[0], self.words[-1])

    def check(self) -> list[DerivationStep]:
        return check_derivation(self.words, self.rules)

    def to_dict(self) -> dict:
        d = {
            "rules": [format_identity(r) for r in self.rules],
            "words": [format_word(w) for w in self.words],
        }
        if self.meta:
            d["meta"] = self.meta
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "DerivationScript":
        return cls(
            rules=tuple(parse_identity(r) for r in d["rules"]),
            words=tuple(parse_word(w) for w in d["words"]),
            meta=dict(d.get("meta", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DerivationScript":
        return cls.from_dict(json.loads(text))


def _bundled_script_files() -> dict:
    """Name -> resource of each derivation script shipped with the package."""
    from importlib import resources

    root = resources.files("monoidlab").joinpath("data/scripts")
    return {
        entry.name[: -len(".json")]: entry
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    }


def bundled_scripts() -> dict[str, DerivationScript]:
    """The derivation scripts shipped with the package, keyed by name."""
    files = _bundled_script_files()
    return {name: DerivationScript.from_json(files[name].read_text()) for name in sorted(files)}


def bundled_script(name: str) -> DerivationScript | None:
    """The shipped derivation script called ``name`` (parsing only that
    one), or None if there is none."""
    entry = _bundled_script_files().get(name)
    return None if entry is None else DerivationScript.from_json(entry.read_text())


# ---------------------------------------------------------------------------
# Bounded derivation search
# ---------------------------------------------------------------------------


@dataclass
class DeriveOutcome:
    script: DerivationScript | None
    status: str  # "found" | "space_exhausted" | "cap_reached"
    explored: int

    def __bool__(self) -> bool:
        return self.script is not None


def derive_bounded(
    u: Word,
    v: Word,
    rules: Sequence[Identity],
    *,
    max_words: int = 100_000,
    max_length: int | None = None,
) -> DeriveOutcome:
    """Bidirectional breadth-first search for a derivation of u = v.

    The one-step relation is symmetric, so the search grows frontiers from
    both endpoints (always expanding the smaller one) until they meet.
    ``space_exhausted`` means the whole component of words within
    ``max_length`` was explored without meeting — no derivation exists
    within that length bound; ``cap_reached`` means the word budget ran out
    first and the result is inconclusive.  Found chains are re-verified.
    """
    if max_length is None:
        max_length = max(len(u), len(v)) + 4
    rules = tuple(rules)
    planned = _PlannedRules(rules)
    if u == v:
        raise DerivationError("endpoints must differ")
    if len(u) > max_length or len(v) > max_length:
        raise DerivationError("endpoint longer than max_length")

    parents: tuple[dict[Word, Word | None], dict[Word, Word | None]] = ({u: None}, {v: None})
    frontiers: tuple[list[Word], list[Word]] = ([u], [v])
    explored = 2
    meet: Word | None = None
    capped = False

    while frontiers[0] and frontiers[1] and meet is None and not capped:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        new_frontier: list[Word] = []
        for word in frontiers[side]:
            for nxt in successors(word, planned, max_length=max_length):
                if nxt in parents[side]:
                    continue
                if explored >= max_words:
                    capped = True
                    break
                parents[side][nxt] = word
                explored += 1
                new_frontier.append(nxt)
                if nxt in parents[1 - side]:
                    meet = nxt
                    break
            if meet is not None or capped:
                break
        frontiers = (new_frontier, frontiers[1]) if side == 0 else (frontiers[0], new_frontier)

    if meet is None:
        status = "cap_reached" if capped else "space_exhausted"
        return DeriveOutcome(script=None, status=status, explored=explored)

    words = _path_to_root(parents[0], meet)[::-1]
    words += _path_to_root(parents[1], parents[1][meet])
    script = DerivationScript(rules=rules, words=tuple(words))
    script.check()
    return DeriveOutcome(script=script, status="found", explored=explored)


def _path_to_root(parent: Mapping[Word, Word | None], node: Word | None) -> list[Word]:
    """node, its parent, and so on up to the search root (whose parent is
    None); empty when node is None."""
    path: list[Word] = []
    while node is not None:
        path.append(node)
        node = parent[node]
    return path


# ---------------------------------------------------------------------------
# Canonical words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Blocks of distinct squared letters separated by once-occurring simple
    letters: the word is block_0 sep_1 block_1 ... sep_n block_n."""

    blocks: tuple[tuple[str, ...], ...]
    separators: tuple[str, ...]

    def word(self) -> Word:
        letters: list[str] = []
        for i, block in enumerate(self.blocks):
            if i > 0:
                letters.append(self.separators[i - 1])
            for c in block:
                letters.extend((c, c))
        return Word(letters)


def canonical_decomposition(w: Word) -> CanonicalDecomposition | None:
    """Decompose w into square blocks and simple separators, or None if w
    is not canonical (odd runs, in-block repeats, repeated separators)."""
    letters = w.letters
    occ = w.occurrences()
    blocks: list[list[str]] = [[]]
    separators: list[str] = []
    i = 0
    while i < len(letters):
        c = letters[i]
        if i + 1 < len(letters) and letters[i + 1] == c:
            if c in blocks[-1] or occ[c] % 2:
                return None
            blocks[-1].append(c)
            i += 2
        else:
            if occ[c] != 1:
                return None
            separators.append(c)
            blocks.append([])
            i += 1
    return CanonicalDecomposition(
        blocks=tuple(tuple(b) for b in blocks), separators=tuple(separators)
    )


def is_canonical(w: Word) -> bool:
    return canonical_decomposition(w) is not None


@dataclass(frozen=True)
class LQEquivalence:
    """Results of the two syntactic criteria for canonical words: block
    structure equivalence (the Q^1 criterion) and initial-part equality
    (the L2^1 criterion)."""

    q_equivalent: bool
    l_equivalent: bool


def lq_equiv_syntactic(u: Word, v: Word) -> LQEquivalence:
    """Syntactic equivalence tests used for canonical words.

    The Q^1 criterion requires both words to be canonical (raises ValueError
    otherwise): same separator sequence and same per-block content.  The
    L2^1 criterion is initial-part equality and applies to any words.
    """
    du = canonical_decomposition(u)
    dv = canonical_decomposition(v)
    if du is None or dv is None:
        raise ValueError("lq_equiv_syntactic needs canonical words")
    q_ok = (
        du.separators == dv.separators
        and len(du.blocks) == len(dv.blocks)
        and all(set(x) == set(y) for x, y in zip(du.blocks, dv.blocks))
    )
    l_ok = u.initial_part() == v.initial_part()
    return LQEquivalence(q_equivalent=q_ok, l_equivalent=l_ok)


def to_canonical(
    w: Word, rules: Sequence[Identity] = E1_BASIS
) -> tuple[Word, DerivationScript]:
    """Find a canonical word derivable from w under the rules (breadth-first,
    shortlex-least among those at the first reachable level) and the
    derivation chain leading to it.

    The search visits at most 50,000 words, none longer than len(w) + 4.
    When every rule holds in the catalog monoid E^1, as the default rule
    set does, the result is checked to be equivalent to w in E^1; for any
    other rule set, and when a substitution space is over budget, the
    check is skipped.
    """
    max_words = 50_000
    max_length = len(w) + 4
    rules = tuple(rules)
    planned = _PlannedRules(rules)
    parent: dict[Word, Word | None] = {w: None}
    frontier = [w]
    found: Word | None = None
    if is_canonical(w):
        found = w
    while frontier and found is None and len(parent) < max_words:
        next_frontier: list[Word] = []
        level_hits: list[Word] = []
        for word in frontier:
            for nxt in successors(word, planned, max_length=max_length):
                if nxt in parent:
                    continue
                parent[nxt] = word
                next_frontier.append(nxt)
                if is_canonical(nxt):
                    level_hits.append(nxt)
                if len(parent) >= max_words:
                    break
            if len(parent) >= max_words:
                break
        if level_hits:
            found = min(level_hits)
        frontier = next_frontier
    if found is None:
        raise DerivationError(
            f"no canonical word reachable from {format_word(w)} within bounds"
        )
    chain = _path_to_root(parent, found)[::-1]
    script = DerivationScript(rules=rules, words=tuple(chain))
    script.check()
    e1 = catalog("E^1")
    try:
        sound = all(satisfies(e1, rule).holds for rule in rules)
        if sound and not satisfies(e1, Identity(w, found)).holds:
            raise AssertionError("canonicalization produced a non-equivalent word")
    except BudgetExceededError:
        pass
    return found, script


# ---------------------------------------------------------------------------
# Lambda identities and the alternating-squares chain
# ---------------------------------------------------------------------------


#: Allowed prefix blocks of a lambda identity, as words over the template
#: variables x and y.
PREFIX_CHOICES: tuple[Word, ...] = (
    EMPTY,
    parse_word("x^2"),
    parse_word("y^2"),
    parse_word("x^2 y^2"),
    parse_word("y^2 x^2"),
)

_TWO_SQUARES = {parse_word("x^2 y^2"), parse_word("y^2 x^2")}
_X2 = parse_word("x^2")
_Y2 = parse_word("y^2")


@dataclass(frozen=True)
class LambdaIdentity:
    """The identity ``p_1 h_1 ... p_n h_n x^2 y^2 = p_1 h_1 ... p_n h_n
    y^2 x^2`` for prefix blocks p_i drawn from PREFIX_CHOICES."""

    prefixes: tuple[Word, ...]

    def __post_init__(self):
        for p in self.prefixes:
            if p not in PREFIX_CHOICES:
                raise ValueError(f"bad lambda prefix {format_word(p)}")

    @property
    def n(self) -> int:
        return len(self.prefixes)

    def identity(self) -> Identity:
        head: list[str] = []
        for i, p in enumerate(self.prefixes, start=1):
            head.extend(p.letters)
            head.append(f"h{i}")
        lhs = Word(head + ["x", "x", "y", "y"])
        rhs = Word(head + ["y", "y", "x", "x"])
        return Identity(lhs, rhs)

    @classmethod
    def from_identity(cls, ident: Identity) -> "LambdaIdentity":
        """Parse an identity of the lambda shape (up to renaming variables);
        raises DerivationError if it is not of that shape."""
        du = canonical_decomposition(ident.lhs)
        dv = canonical_decomposition(ident.rhs)
        if du is None or dv is None:
            raise DerivationError("lambda identities have canonical sides")
        if du.separators != dv.separators or len(du.blocks) != len(dv.blocks):
            raise DerivationError("sides must share separators")
        if du.blocks[:-1] != dv.blocks[:-1]:
            raise DerivationError("sides must agree before the final block")
        last_u, last_v = du.blocks[-1], dv.blocks[-1]
        if len(last_u) != 2 or last_u[0] == last_u[1] or last_v != (last_u[1], last_u[0]):
            raise DerivationError("final blocks must be a swapped pair of squares")
        xc, yc = last_u
        prefixes = []
        for block in du.blocks[:-1]:
            if any(c not in (xc, yc) for c in block):
                raise DerivationError("prefix blocks may only use the final-pair letters")
            prefixes.append(_project_block(block, xc, yc))
        return cls(tuple(prefixes))


def _project_block(block: Sequence[str], x: str, y: str) -> Word:
    letters: list[str] = []
    for c in block:
        if c == x:
            letters.extend(("x", "x"))
        elif c == y:
            letters.extend(("y", "y"))
    return Word(letters)


def lambda_reduce(u: Word, v: Word) -> list[LambdaIdentity]:
    """Rewrite a pair of distinct canonical words that agree in block
    structure, per-block content, and initial parts into the lambda
    identities generated by the pair.

    Working from the least differing block, the target word's block is
    rearranged toward the source block by interchanging the adjacent
    squares x^2 y^2 where x is the last square before the longest common
    block suffix; each interchange is justified by (and emits) one lambda
    identity whose prefixes are the earlier blocks projected onto the two
    letters involved.  Terminates because each interchange extends the
    common suffix.
    """
    du = canonical_decomposition(u)
    dv = canonical_decomposition(v)
    if du is None or dv is None:
        raise DerivationError("lambda_reduce needs canonical words")
    if u == v:
        return []
    if du.separators != dv.separators:
        raise DerivationError("words must share separator sequence")
    if any(set(a) != set(b) for a, b in zip(du.blocks, dv.blocks)):
        raise DerivationError("words must have blockwise equal content")
    if u.initial_part() != v.initial_part():
        raise DerivationError("words must have equal initial parts")

    ublocks = [list(b) for b in du.blocks]
    vblocks = [list(b) for b in dv.blocks]
    out: list[LambdaIdentity] = []
    seen: set[LambdaIdentity] = set()

    while vblocks != ublocks:
        ell = next(i for i, (a, b) in enumerate(zip(ublocks, vblocks)) if a != b)
        if ell < 1:
            raise AssertionError("equal initial parts force equal leading blocks")
        ub, vb = ublocks[ell], vblocks[ell]
        suffix = 0
        while suffix < len(ub) and ub[-1 - suffix] == vb[-1 - suffix]:
            suffix += 1
        x = ub[len(ub) - 1 - suffix]
        pos = vb.index(x)
        between = vb[pos + 1 : len(vb) - suffix]
        if not between:
            raise AssertionError("x sits strictly earlier in the differing block")
        for y in between:
            lam = LambdaIdentity(
                tuple(_project_block(vblocks[i], x, y) for i in range(ell))
            )
            if all(p == EMPTY for p in lam.prefixes):
                raise AssertionError("equal initial parts guarantee a nonempty prefix")
            if lam not in seen:
                seen.add(lam)
                out.append(lam)
            i = vb.index(x)
            if vb[i + 1] != y:
                raise AssertionError("y follows x in the block being rearranged")
            vb[i], vb[i + 1] = vb[i + 1], vb[i]
    return out


@dataclass(frozen=True)
class SigmaClass:
    """Position of a lambda identity in the alternating-squares chain."""

    finite: bool
    n: int | None  # None when infinite

    def identity(self) -> Identity:
        if not self.finite:
            return sigma_infinity()
        if self.n == 0:
            return parse_identity("x^2 y^2 = y^2 x^2")
        return sigma(self.n)

    def describe(self) -> str:
        if not self.finite:
            return "limit"
        return f"stage {self.n}"


def sigma_classify(lam: LambdaIdentity) -> SigmaClass:
    """Classify a lambda identity up to equivalence modulo the basis:
    drop empty prefixes, a two-square prefix means the limit identity,
    collapse adjacent equal squares, and swap variable roles so the leading
    square is x^2.  The survivors alternate; their count is the stage."""
    seq = [p for p in lam.prefixes if p != EMPTY]
    if any(p in _TWO_SQUARES for p in seq):
        return SigmaClass(finite=False, n=None)
    collapsed: list[Word] = []
    for p in seq:
        if not collapsed or collapsed[-1] != p:
            collapsed.append(p)
    if collapsed and collapsed[0] == _Y2:
        collapsed = [_Y2 if p == _X2 else _X2 for p in collapsed]
    return SigmaClass(finite=True, n=len(collapsed))
