"""The benchmark's workloads: query lists with reference verdicts.

A query is one call into monoidlab's public API that a user would make to
get one verdict.  Each query carries a check that compares the output with
a reference the code under test did not produce:

* expectations written by hand in the frozen manifest, the frozen figures
  or the acceptance tests (cited next to each one);
* a scalar re-evaluation, in this file, of every ``fails`` witness and
  every separating identity of a ``not_member`` verdict;
* for small identities, a brute-force scalar decision over all
  assignments, which must agree with the vectorized one bit for bit;
* ``rel_free`` state counts frozen in ``data/relfree_states.json`` by the
  independent breadth-first search in ``make_reference.py``.

All inputs come from ``data/`` (copies of the bundled manifest, scripts and
figures, so that edits to the package data do not move the numbers) and
from a ``random.Random(seed)``; the builders also construct every catalog
monoid the queries use, so that this work counts as set-up.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from monoidlab import Identity, Word, format_identity, parse_identity
from monoidlab.deduction import E1_BASIS
from monoidlab.equations import IsotermBudget, evaluate, isoterm, member, rel_free, satisfies
from monoidlab.lattice import Poset, VarietyNode, parse_poset_text, semantic_check_edge
from monoidlab.manifest import parse_manifest, run_entries
from monoidlab.monoids import catalog
from monoidlab.words import sigma, sigma_infinity, wn_xyxy

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@dataclass
class Query:
    """One timed call and the check of its output.

    ``check`` returns None when the output is right, else a description of
    what is wrong.
    """

    label: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _read(*parts: str) -> str:
    with open(os.path.join(DATA, *parts), encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Scalar reference evaluation
# ---------------------------------------------------------------------------


def first_failure(M, ident: Identity):
    """The first assignment (variables sorted, first most significant,
    elements in table order) at which the two sides differ, as
    ``(assignment, lhs value, rhs value)``, or None when the identity holds.
    A plain loop over all |M|^k assignments; use for small k only."""
    table = M.table.tolist()
    variables = sorted(ident.variables())
    pos = {v: i for i, v in enumerate(variables)}
    lhs = [pos[c] for c in ident.lhs.letters]
    rhs = [pos[c] for c in ident.rhs.letters]
    for values in itertools.product(range(M.order), repeat=len(variables)):
        a = b = M.identity
        for i in lhs:
            a = table[a][values[i]]
        for i in rhs:
            b = table[b][values[i]]
        if a != b:
            assignment = {v: M.elements[x] for v, x in zip(variables, values)}
            return assignment, M.elements[a], M.elements[b]
    return None


def _refutes(M, ident: Identity, witness: dict[str, str]) -> bool:
    return evaluate(M, ident.lhs, witness) != evaluate(M, ident.rhs, witness)


# ---------------------------------------------------------------------------
# Query factories
# ---------------------------------------------------------------------------


def small_satisfies_query(name: str, ident: Identity, group: str) -> Query:
    """``satisfies`` checked against ``first_failure``: same verdict, same
    witness, same values."""
    M = catalog(name)
    ref: list = []

    def check(res) -> str | None:
        if not ref:
            ref.append(first_failure(M, ident))
        want = ref[0]
        got = None if res.holds else (res.witness, res.lhs_value, res.rhs_value)
        if got != want:
            return f"got {got}, reference {want}"
        return None

    return Query(f"satisfies {name} {format_identity(ident)}", group,
                 lambda: satisfies(M, ident), check)


def large_satisfies_query(name: str, text: str, expected: str) -> Query:
    """``satisfies`` with a hand-written verdict; a ``fails`` witness is
    re-evaluated with the scalar ``evaluate``."""
    M = catalog(name)
    ident = parse_identity(text)

    def check(res) -> str | None:
        verdict = "holds" if res.holds else "fails"
        if verdict != expected:
            return f"verdict {verdict}, expected {expected}"
        if not res.holds and not _refutes(M, ident, res.witness):
            return f"witness {res.witness} does not refute"
        return None

    return Query(f"satisfies {name} {text}", "large-satisfies",
                 lambda: satisfies(M, ident), check)


def isoterm_query(name: str, word: Word, budget: IsotermBudget) -> Query:
    """Acceptance criterion 06: under the falsifier-only budget the family
    words for n in {3, 4}, plain and primed, are not falsified."""
    M = catalog(name)

    def check(verdict) -> str | None:
        if verdict.kind == "not_isoterm":
            return f"falsified by {verdict.witness}"
        return None

    return Query(f"isoterm {name} {word}", "isoterm",
                 lambda: isoterm(M, word, budget=budget), check)


def member_query(a: str, b: str, expected: str) -> Query:
    """``member(A, B)`` against a hand-written verdict; the separating
    identity of a ``not_member`` verdict must hold in B and fail in A."""
    A, B = catalog(a), catalog(b)

    def check(verdict) -> str | None:
        if verdict.kind != expected:
            return f"verdict {verdict.kind}, expected {expected}"
        if verdict.kind == "not_member":
            w = verdict.witness
            if first_failure(B, w) is not None or first_failure(A, w) is None:
                return f"separating identity {format_identity(w)} does not separate"
        return None

    return Query(f"member {a} {b}", "member", lambda: member(A, B), check)


def relfree_query(name: str, k: int, states: int) -> Query:
    M = catalog(name)

    def check(rf) -> str | None:
        if not rf.complete or rf.size != states:
            return f"{rf.size} states (complete={rf.complete}), reference {states}"
        return None

    return Query(f"rel_free {name} k={k}", "rel_free", lambda: rel_free(M, k), check)


def edge_query(P: Poset, edge: tuple[str, str], expected: str) -> Query:
    """One lattice-edge check, as ``lattice.check_all_edges`` makes it."""

    def check(result) -> str | None:
        if result.verdict != expected:
            return f"verdict {result.verdict}, expected {expected}"
        return None

    return Query(f"edge {P.name} {edge[0]} < {edge[1]}", P.name,
                 lambda: semantic_check_edge(P, edge), check)


def _check_entry(result) -> str | None:
    """Re-check one manifest result against the entry's hand-written
    expectation from its evidence; a derivation script is valid when its
    step-by-step check passed."""
    entry, ev = result.entry, result.evidence
    if "error" in ev:
        return f"error: {ev['error']}"
    kind = entry.kind
    if kind == "expect-holds":
        ok = ev["holds"] is True
    elif kind == "expect-fails":
        M = catalog(entry.subjects[0])
        ok = ev["holds"] is False and _refutes(M, entry.identity, ev["witness"])
        if entry.pinned_witness is not None:
            ok = ok and _refutes(M, entry.identity, entry.pinned_witness)
    elif kind in ("expect-isoterm-verdict", "expect-member-verdict"):
        ok = ev["verdict"] == entry.expected
    elif kind == "expect-derivation-valid":
        ok = result.passed
    elif kind == "expect-order":
        ok = ev["order"] == int(entry.expected)
    else:  # expect-iso: the mapping must be a bijective homomorphism
        A, B = (catalog(s) for s in entry.subjects)
        f = ev.get("isomorphism", {})
        ok = sorted(f) == sorted(A.elements) and sorted(f.values()) == sorted(B.elements)
        ok = ok and all(f[A.mul(x, y)] == B.mul(f[x], f[y])
                        for x in A.elements for y in A.elements)
    return None if ok else f"{result.detail!r} contradicts {entry.source!r}"


def manifest_query(entry) -> Query:
    return Query(entry.source, entry.kind, lambda: run_entries([entry]).results[0], _check_entry)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def draw_blocks(rng: random.Random) -> list[list[str]]:
    """The square blocks of a canonical word over letters a, b with at most
    three blocks and length <= 8 (acceptance criterion 14's distribution)."""
    nblocks = rng.choice((1, 2, 3))
    budget = (8 - (nblocks - 1)) // 2
    blocks = []
    for _ in range(nblocks):
        size = rng.randint(0 if nblocks > 1 else 1, min(2, budget))
        budget -= size
        blocks.append(rng.sample(("a", "b"), size))
    return blocks


def assemble(blocks: list[list[str]]) -> Word:
    """Square each block letter and put separators h, t between blocks."""
    out: list[str] = []
    for i, block in enumerate(blocks):
        if i:
            out.append(("h", "t")[i - 1])
        for c in block:
            out.extend((c, c))
    return Word(out)


def canonical_pair(rng: random.Random) -> Identity:
    """u = v with v either u with each block shuffled or a fresh draw."""
    blocks = draw_blocks(rng)
    if rng.random() < 0.5:
        other = [rng.sample(b, len(b)) for b in blocks]
    else:
        other = draw_blocks(rng)
    return Identity(assemble(blocks), assemble(other))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


#: Manifest derivation scripts left out of ``paper``: the sigma_step_5 check
#: takes 11-13 s on its own, too long to repeat within a run (see run.py).
#: sigma_step_4 (about 1 s) exercises the same embedding enumeration.
PAPER_LEFT_OUT = ("sigma_step_5",)


def build_paper(seed: int) -> list[Query]:
    """The expectations of the frozen ``paper.manifest`` but PAPER_LEFT_OUT
    (35 of 36), in file order, each run through ``manifest.run_entries`` as
    ``verify-paper`` runs it.  Script references point at the frozen copies.
    The seed is unused."""
    entries = parse_manifest(_read("paper.manifest"))
    scripts = os.path.join(DATA, "scripts")
    queries = []
    for entry in entries:
        if entry.kind == "expect-derivation-valid":
            if entry.subjects[0] in PAPER_LEFT_OUT:
                continue
            path = os.path.join(scripts, entry.subjects[0] + ".json")
            entry = dataclasses.replace(entry, subjects=(path,))
        else:
            for name in entry.subjects:
                catalog(name)
        queries.append(manifest_query(entry))
    return queries


#: Identities with hand-known verdicts at 6.5e3 to 1.7e6 substitutions.
#: Sources: the basis of M(xyxy) (criterion 12); squares commute in Q^1
#: (manifest), so every sigma(n) holds there, and in L2^1 as an instance of
#: the Fig3 top's defining identity; E^1 lies strictly above every sigma
#: stage (Fig4), so it fails them; x y z t = y x z t fails in M(xyxy).
#: Every ``fails`` witness is re-evaluated.  Checks at 4.8e6 substitutions
#: (1.2-1.5 s each) are left out: with the two isoterm runs they would make
#: a pass too long to repeat often enough within a run (see run.py).
LARGE_CHECKS = (
    ("M(xyxy)", "x h y^2 x^2 k y = x h x^2 y^2 k y", "holds"),
    ("M(xyxy)", "x y z t = y x z t", "fails"),
    ("L2^1", format_identity(sigma(6)), "holds"),
    ("E^1", format_identity(sigma(5)), "fails"),
    ("Q^1", format_identity(sigma(5)), "holds"),
    ("M(xyxy)", "x h y k x y t x d y = x h y k y x t x d y", "holds"),
    ("M(xyxy)", "x h y k x y t y d x = x h y k y x t y d x", "holds"),
    ("Q^1", format_identity(sigma(6)), "holds"),
    ("E^1", format_identity(sigma(6)), "fails"),
)

SMALL_CHECKS = 400


def build_isoterm_scan(seed: int) -> list[Query]:
    """Criterion-06 isoterm runs for n=3, plain and primed, the large
    identity checks above, and SMALL_CHECKS seeded canonical pairs
    (criterion 14's distribution) over Q^1, L2^1 and E^1, in seeded order.
    The n=4 isoterm run (about 20 s on its own) is left out: it is too long
    to repeat within a run (see run.py)."""
    rng = random.Random(seed)
    budget = IsotermBudget(enum_words=50)
    queries = [isoterm_query("M(xyxy)", w, budget)
               for w in (wn_xyxy(3), wn_xyxy(3, primed=True))]
    queries += [large_satisfies_query(*spec) for spec in LARGE_CHECKS]
    names = ("Q^1", "L2^1", "E^1")
    queries += [small_satisfies_query(rng.choice(names), canonical_pair(rng), "small-satisfies")
                for _ in range(SMALL_CHECKS)]
    rng.shuffle(queries)
    return queries


def _frozen_figures() -> list[Poset]:
    """Fig1-Fig3 from the frozen copies, and Fig4 at depth 4 built from the
    frozen Fig3 as ``lattice.load_figure`` builds it."""
    figs = [parse_poset_text(_read("figures", f"fig{i}.poset")) for i in (1, 2, 3)]
    fig3 = figs[2]
    nodes, covers, prev = list(fig3.nodes), list(fig3.covers), "L2vQ"
    for n in (2, 3, 4):
        nodes.append(VarietyNode(name=f"sigma{n}", identities=(sigma(n),)))
        covers.append((prev, f"sigma{n}"))
        prev = f"sigma{n}"
    nodes.append(VarietyNode(name="sigma_inf", identities=(sigma_infinity(),)))
    covers.append((prev, "sigma_inf"))
    nodes.append(VarietyNode(name="E1", generators=("E^1",), identities=E1_BASIS))
    covers.append(("sigma_inf", "E1"))
    return figs + [Poset(name="Fig4", nodes=tuple(nodes), covers=tuple(covers))]


#: Fig4 chain verdicts: the stages are nested, each stage's identity being
#: derivable from the one below (tests/test_lattice.py checks this through
#: sigma3).  Every other edge of the four figures is confirmed-strict
#: (acceptance criterion 16 and the Fig1 and Fig4 lattice tests).
_FIG4_CHAIN = {
    ("L2vQ", "sigma2"): "confirmed-inclusion",
    ("sigma2", "sigma3"): "confirmed-inclusion",
    ("sigma3", "sigma4"): "confirmed-inclusion",
}

#: Edges left out, each 4-8 s on its own and so too long to repeat within a
#: run (see run.py): the three edges into Fig1's top, where ``member``
#: searches generators of the three-factor product, and the edge from the
#: last stage to the limit, which ``derive_bounded`` takes longest to reach.
#: Smaller products (Fig1, Fig3) and the stage edges up to sigma4 still
#: exercise both mechanisms.
LATTICE_LEFT_OUT = {
    ("L2vR2", "L2vMxvR2"), ("L2vB0", "L2vMxvR2"), ("B0vR2", "L2vMxvR2"),
    ("sigma4", "sigma_inf"),
}


def build_lattice_edges(seed: int) -> list[Query]:
    """Every distinct cover edge check of Fig1, Fig2, Fig3 and Fig4 (depth
    4) but LATTICE_LEFT_OUT, in figure and cover order.  The figures share
    most of their nodes, and an edge between the same two nodes is the same
    computation, so it is checked once, in the first figure that has it.
    The seed is unused."""
    queries, seen = [], set()
    for P in _frozen_figures():
        for node in P.nodes:
            for name in node.generators:
                catalog(name)
        for edge in P.covers:
            nodes = (P.node(edge[0]), P.node(edge[1]))
            if edge not in LATTICE_LEFT_OUT and nodes not in seen:
                seen.add(nodes)
                queries.append(edge_query(P, edge, _FIG4_CHAIN.get(edge, "confirmed-strict")))
    return queries


def _comparable_pairs(P: Poset) -> set[tuple[str, str]]:
    """(lower, upper) generator names of strictly comparable nodes that are
    each generated by one catalog monoid."""
    covers_of = {n.name: [] for n in P.nodes}
    for lo, hi in P.covers:
        covers_of[lo].append(hi)
    gen = {n.name: n.generators[0] for n in P.nodes if len(n.generators) == 1}
    pairs = set()
    for lo in gen:
        stack, above = list(covers_of[lo]), set()
        while stack:
            hi = stack.pop()
            if hi not in above:
                above.add(hi)
                stack.extend(covers_of[hi])
        pairs |= {(gen[lo], gen[hi]) for hi in above if hi in gen}
    return pairs


MEMBER_QUERIES = 300


def build_relfree(seed: int) -> list[Query]:
    """The rel_free builds of ``data/relfree_states.json`` and MEMBER_QUERIES
    membership queries drawn with the seed from the single-generator pairs
    of the frozen Fig2 and Fig3 (lower is a member of upper; upper is not a
    member of lower, the covers being strict) and the manifest's
    ``L2^1 Q^1 not_member``, in seeded order."""
    rng = random.Random(seed)
    queries = [relfree_query(b["monoid"], b["k"], b["states"])
               for b in json.loads(_read("relfree_states.json"))]
    figs = _frozen_figures()
    pairs = sorted(_comparable_pairs(figs[1]) | _comparable_pairs(figs[2]))
    pool = [(lo, hi, "member") for lo, hi in pairs]
    pool += [(hi, lo, "not_member") for lo, hi in pairs]
    pool.append(("L2^1", "Q^1", "not_member"))
    queries += [member_query(*rng.choice(pool)) for _ in range(MEMBER_QUERIES)]
    rng.shuffle(queries)
    return queries


def build_smoke(seed: int) -> list[Query]:
    """Cheap queries of most kinds, for the benchmark's own smoke test."""
    rng = random.Random(seed)
    entries = parse_manifest(_read("paper.manifest"))
    queries = [manifest_query(e) for e in entries if e.kind == "expect-order"][:3]
    smallest = min(json.loads(_read("relfree_states.json")), key=lambda b: b["states"])
    queries.append(relfree_query(smallest["monoid"], smallest["k"], smallest["states"]))
    queries.append(member_query("L2^1", "Q^1", "not_member"))
    queries.append(member_query("M(x)", "M(xy)", "member"))
    queries += [small_satisfies_query(rng.choice(("Q^1", "L2^1", "E^1")),
                                      canonical_pair(rng), "small-satisfies")
                for _ in range(20)]
    return queries


#: Workload name -> builder, in the order of BENCHMARK.json.
WORKLOADS = {
    "paper": build_paper,
    "isoterm-scan": build_isoterm_scan,
    "lattice-edges": build_lattice_edges,
    "relfree": build_relfree,
}
