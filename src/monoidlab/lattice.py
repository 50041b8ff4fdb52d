"""Poset encodings of the bundled subvariety diagrams.

The diagrams are shipped as data: nodes name varieties (by a generating
catalog monoid, a join of several, and/or defining identities) and the
cover list gives the Hasse diagram.  This module parses and writes the
``.poset`` text format, validates that a diagram really is a lattice
(unique least upper and greatest lower bounds), runs feasible semantic
spot-checks on individual edges via the membership and derivation
machinery, and exports DOT/JSON renderings.

The figures are data, not computed results: validation confirms internal
consistency and the spot-checks gather evidence, but nothing here claims
to recompute a subvariety lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .deduction import E1_BASIS, derive_bounded
from .equations import BudgetExceededError, member, satisfies
from .monoids import FiniteMonoid, catalog, direct_product
from .words import Identity, format_identity, parse_identity, sigma, sigma_infinity

__all__ = [
    "VarietyNode",
    "Poset",
    "LatticeReport",
    "EdgeCheck",
    "figure_names",
    "load_figure",
    "validate_lattice",
    "semantic_check_edge",
    "check_all_edges",
    "downset",
    "expanded_count",
    "parse_poset_text",
    "format_poset_text",
    "poset_to_json_dict",
    "dot_export",
]


@dataclass(frozen=True)
class VarietyNode:
    """A named variety in a diagram.

    ``generators`` are catalog monoid names whose direct product generates
    the variety; ``identities`` are defining identities relative to the
    ambient equational theory of the diagram.  Either may be empty; a node
    with neither is purely structural and cannot be semantically checked.
    """

    name: str
    generators: tuple[str, ...] = ()
    identities: tuple[Identity, ...] = ()

    def generator_monoid(self) -> FiniteMonoid | None:
        if not self.generators:
            return None
        M = catalog(self.generators[0])
        for name in self.generators[1:]:
            M = direct_product(M, catalog(name))
        return M


@dataclass(frozen=True)
class Poset:
    """Nodes plus a cover list (lower, upper) forming a Hasse diagram."""

    name: str
    nodes: tuple[VarietyNode, ...]
    covers: tuple[tuple[str, str], ...]

    def node(self, name: str) -> VarietyNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r} in poset {self.name!r}")

    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def leq_table(self) -> dict[tuple[str, str], bool]:
        """Reflexive-transitive closure of the cover relation.

        Raises ValueError on a cycle (closure would not be a partial
        order); use validate_lattice for a non-raising report.
        """
        order, cycle = _closure(self)
        if cycle is not None:
            raise ValueError(f"cover relation of {self.name!r} has a cycle")
        return order

    def leq(self, a: str, b: str) -> bool:
        return self.leq_table()[(a, b)]


def _closure(P: Poset) -> tuple[dict[tuple[str, str], bool], tuple[str, str] | None]:
    """The reflexive-transitive closure of P's covers, by one Warshall pass
    (the intermediate node outermost), and the first pair (a, b) of
    distinct nodes in node order with a <= b <= a, or None if the covers
    have no cycle."""
    names = P.node_names()
    leq = {(a, b): a == b for a in names for b in names}
    for lo, hi in P.covers:
        if (lo, hi) in leq:
            leq[(lo, hi)] = True
    for c in names:
        for a in names:
            if leq[(a, c)]:
                for b in names:
                    if leq[(c, b)]:
                        leq[(a, b)] = True
    cycle = next(
        ((a, b) for a in names for b in names if a != b and leq[(a, b)] and leq[(b, a)]),
        None,
    )
    return leq, cycle


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def parse_poset_text(text: str) -> Poset:
    """Parse the line-oriented poset format.

    Grammar (one declaration per line, '#' starts a comment)::

        poset <name>
        node <name> [gen <catalog-name> ...] [sat <identity> [| <identity>]...]
        cover <lower> <upper>
    """
    name: str | None = None
    nodes: list[VarietyNode] = []
    covers: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "poset":
            if name is not None:
                raise ValueError(f"line {lineno}: repeated poset header")
            if not rest:
                raise ValueError(f"line {lineno}: poset needs a name")
            name = rest
        elif head == "node":
            node = _parse_node_line(rest, lineno)
            if node.name in seen:
                raise ValueError(f"line {lineno}: duplicate node {node.name!r}")
            seen.add(node.name)
            nodes.append(node)
        elif head == "cover":
            parts = rest.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: cover needs two node names")
            covers.append((parts[0], parts[1]))
        else:
            raise ValueError(f"line {lineno}: unknown declaration {head!r}")
    if name is None:
        raise ValueError("missing poset header")
    return Poset(name=name, nodes=tuple(nodes), covers=tuple(covers))


def _parse_node_line(rest: str, lineno: int) -> VarietyNode:
    sat_text = None
    if " sat " in f" {rest}":
        before, _, sat_text = f" {rest}".partition(" sat ")
        rest = before.strip()
    parts = rest.split()
    if not parts:
        raise ValueError(f"line {lineno}: node needs a name")
    node_name = parts[0]
    generators: tuple[str, ...] = ()
    if len(parts) > 1:
        if parts[1] != "gen" or len(parts) < 3:
            raise ValueError(f"line {lineno}: expected 'gen <name> ...'")
        generators = tuple(parts[2:])
    identities: tuple[Identity, ...] = ()
    if sat_text is not None:
        identities = tuple(
            parse_identity(piece.strip()) for piece in sat_text.split("|")
        )
    return VarietyNode(name=node_name, generators=generators, identities=identities)


def format_poset_text(P: Poset) -> str:
    lines = [f"poset {P.name}"]
    for n in P.nodes:
        line = f"node {n.name}"
        if n.generators:
            line += " gen " + " ".join(n.generators)
        if n.identities:
            line += " sat " + " | ".join(format_identity(i) for i in n.identities)
        lines.append(line)
    for lo, hi in P.covers:
        lines.append(f"cover {lo} {hi}")
    return "\n".join(lines) + "\n"


def poset_to_json_dict(P: Poset) -> dict:
    return {
        "name": P.name,
        "nodes": [
            {
                "name": n.name,
                "generators": list(n.generators),
                "identities": [format_identity(i) for i in n.identities],
            }
            for n in P.nodes
        ],
        "covers": [list(c) for c in P.covers],
    }


# ---------------------------------------------------------------------------
# Bundled figures
# ---------------------------------------------------------------------------


_FIGURE_FILES = {"Fig1": "fig1.poset", "Fig2": "fig2.poset", "Fig3": "fig3.poset"}

#: Name of the shared top of Fig3 / first chain stage of Fig4.
_CHAIN_BASE = "L2vQ"


def figure_names() -> tuple[str, ...]:
    return ("Fig1", "Fig2", "Fig3", "Fig4")


def load_figure(name: str, *, depth: int = 3) -> Poset:
    """Load a bundled diagram by name (Fig1..Fig4).

    Fig4 contains a parametric chain of stage varieties above the Fig3
    top, truncated at the given depth (>= 1): stages 2..depth, then the
    limit node, then the full variety of the ambient generator.
    """
    from importlib import resources

    key = name.strip().capitalize()
    if key not in figure_names():
        raise ValueError(
            f"unknown figure {name!r}; expected one of {', '.join(figure_names())}"
        )
    if key == "Fig4":
        return _figure_four(depth)
    path = resources.files("monoidlab").joinpath(f"data/figures/{_FIGURE_FILES[key]}")
    return parse_poset_text(path.read_text(encoding="utf-8"))


def _figure_four(depth: int) -> Poset:
    if depth < 1:
        raise ValueError("chain truncation depth must be >= 1")
    base = load_figure("Fig3")
    nodes = list(base.nodes)
    covers = list(base.covers)
    prev = _CHAIN_BASE
    for n in range(2, depth + 1):
        name = f"sigma{n}"
        nodes.append(VarietyNode(name=name, identities=(sigma(n),)))
        covers.append((prev, name))
        prev = name
    nodes.append(VarietyNode(name="sigma_inf", identities=(sigma_infinity(),)))
    covers.append((prev, "sigma_inf"))
    nodes.append(
        VarietyNode(name="E1", generators=("E^1",), identities=E1_BASIS)
    )
    covers.append(("sigma_inf", "E1"))
    return Poset(name="Fig4", nodes=tuple(nodes), covers=tuple(covers))


def downset(P: Poset, top: str) -> Poset:
    """The sub-poset of all nodes at or below the given node, preserving
    node and cover order."""
    order = P.leq_table()
    keep = {n.name for n in P.nodes if order[(n.name, top)]}
    return Poset(
        name=f"{P.name}[<={top}]",
        nodes=tuple(n for n in P.nodes if n.name in keep),
        covers=tuple(c for c in P.covers if c[0] in keep and c[1] in keep),
    )


def expanded_count(P: Poset, interval_size: int) -> int:
    """Total variety count when every node of the diagram stands for an
    interval of the given uniform size."""
    return len(P.nodes) * interval_size


# ---------------------------------------------------------------------------
# Lattice validation
# ---------------------------------------------------------------------------


@dataclass
class LatticeReport:
    name: str
    node_count: int
    cover_count: int
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        status = "lattice" if self.ok else f"{len(self.problems)} problem(s)"
        return (
            f"{self.name}: {self.node_count} nodes, {self.cover_count} covers, "
            f"{status}"
        )


def validate_lattice(P: Poset) -> LatticeReport:
    """Check the diagram is a Hasse diagram of a lattice.

    Verifies distinct known node names in covers, no self-covers,
    acyclicity, that each cover is a genuine cover (not transitively
    implied), and that every pair of nodes has a unique least upper bound
    and greatest lower bound; every failure is reported with the
    offending nodes or pair.
    """
    problems: list[str] = []
    names = P.node_names()
    dupes = {n for n in names if names.count(n) > 1}
    for n in sorted(dupes):
        problems.append(f"duplicate node name {n!r}")
    for lo, hi in P.covers:
        if lo not in names or hi not in names:
            problems.append(f"cover ({lo}, {hi}) references an unknown node")
        elif lo == hi:
            problems.append(f"self-cover on node {lo!r}")
    if problems:
        return LatticeReport(P.name, len(P.nodes), len(P.covers), tuple(problems))

    order, cycle = _closure(P)
    if cycle is not None:
        problems.append(f"cycle through nodes {cycle[0]!r} and {cycle[1]!r}")
        return LatticeReport(P.name, len(P.nodes), len(P.covers), tuple(problems))

    for lo, hi in P.covers:
        between = [
            c for c in names if c not in (lo, hi) and order[(lo, c)] and order[(c, hi)]
        ]
        if between:
            problems.append(
                f"cover ({lo}, {hi}) is not a cover: {between[0]!r} lies between"
            )

    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for kind, up in (("least upper", True), ("greatest lower", False)):
                key = (lambda x, y: (x, y)) if up else (lambda x, y: (y, x))
                bounds = [
                    c for c in names if order[key(a, c)] and order[key(b, c)]
                ]
                extremal = [
                    c
                    for c in bounds
                    if not any(d != c and order[key(d, c)] for d in bounds)
                ]
                if len(extremal) != 1:
                    which = "minimal" if up else "maximal"
                    problems.append(
                        f"no {kind} bound for ({a}, {b}): "
                        f"{which} bounds {sorted(extremal)}"
                    )
    return LatticeReport(P.name, len(P.nodes), len(P.covers), tuple(problems))


# ---------------------------------------------------------------------------
# Semantic edge checks
# ---------------------------------------------------------------------------


@dataclass
class EdgeCheck:
    """Evidence gathered for one cover edge.

    ``verdict`` is confirmed-strict when both inclusion and strictness
    were established, confirmed-inclusion when only inclusion was,
    refuted when the evidence contradicts the figure, and unknown
    otherwise; the checks record evidence and never override figure data.
    """

    lower: str
    upper: str
    inclusion: str = "unknown"  # "confirmed" | "unknown" | "refuted"
    strictness: str = "unknown"  # "confirmed" | "unknown"
    separating: Identity | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if self.inclusion == "refuted":
            return "refuted"
        if self.inclusion == "confirmed" and self.strictness == "confirmed":
            return "confirmed-strict"
        if self.inclusion == "confirmed":
            return "confirmed-inclusion"
        return "unknown"


def semantic_check_edge(P: Poset, edge: tuple[str, str]) -> EdgeCheck:
    """Gather semantic evidence for a cover edge (lower, upper).

    Inclusion evidence: the lower generator lies in the variety of the
    upper generator (membership oracle), or every defining identity of
    the upper variety is derivable, within 20,000 words, from the E^1
    basis plus the lower variety's defining identities.  Strictness
    evidence: a separating identity that holds in the lower variety but
    fails in the upper generator.  Nodes lacking both generators and
    identities yield unknown.
    """
    lo, hi = P.node(edge[0]), P.node(edge[1])
    check = EdgeCheck(lower=lo.name, upper=hi.name)
    lo_mon = lo.generator_monoid()
    hi_mon = hi.generator_monoid()

    if lo.generators and hi_mon is not None:
        # A join of generators lies in the upper variety iff every factor
        # does (varieties are closed under finite products and images).
        verdicts = [member(catalog(g), hi_mon) for g in lo.generators]
        if all(v.kind == "member" for v in verdicts):
            check.inclusion = "confirmed"
            check.notes.append(
                "inclusion: every lower generator is in the upper variety"
            )
        else:
            refuting = next(
                (v for v in verdicts if v.kind == "not_member"), None
            )
            if refuting is not None:
                check.inclusion = "refuted"
                check.separating = refuting.witness
                check.notes.append(
                    "inclusion refuted by " + format_identity(refuting.witness)
                )
    if check.inclusion == "unknown" and hi.identities and lo.identities:
        if _derives_all(E1_BASIS + lo.identities, hi.identities):
            check.inclusion = "confirmed"
            check.notes.append(
                "inclusion: upper defining identities derivable from lower's"
            )

    if check.inclusion == "refuted":
        return check

    if hi_mon is not None:
        if lo_mon is not None:
            verdict = member(hi_mon, lo_mon)
            if verdict.kind == "not_member":
                check.strictness = "confirmed"
                check.separating = verdict.witness
                check.notes.append(
                    "strict: " + format_identity(verdict.witness)
                    + " holds below, fails above"
                )
        if check.strictness == "unknown":
            for ident in lo.identities:
                try:
                    res = satisfies(hi_mon, ident)
                except BudgetExceededError:
                    continue
                if not res.holds:
                    check.strictness = "confirmed"
                    check.separating = ident
                    check.notes.append(
                        "strict: lower defining identity "
                        + format_identity(ident)
                        + " fails in the upper generator"
                    )
                    break
    return check


def _derives_all(rule_set: tuple[Identity, ...], targets: tuple[Identity, ...]) -> bool:
    for target in targets:
        if target.is_trivial():
            continue
        out = derive_bounded(
            target.lhs,
            target.rhs,
            rule_set,
            max_words=20_000,
            max_length=max(len(target.lhs), len(target.rhs)) + 2,
        )
        if out.status != "found":
            return False
    return True


def check_all_edges(P: Poset) -> list[EdgeCheck]:
    return [semantic_check_edge(P, edge) for edge in P.covers]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def dot_export(P: Poset) -> str:
    """Deterministic DOT rendering with nodes ranked by height (longest
    chain up from a minimal node)."""
    P.leq_table()  # raises ValueError on a cycle
    height: dict[str, int] = {}
    remaining = list(P.node_names())
    while remaining:
        for name in remaining:
            below = [c for c in P.covers if c[1] == name]
            if all(c[0] in height for c in below):
                height[name] = max((height[c[0]] + 1 for c in below), default=0)
                remaining.remove(name)
                break
        else:  # cycles raised above, so a cover's lower node is undeclared
            raise ValueError(
                f"could not rank the nodes of {P.name!r}: a cover names an undeclared node"
            )
    lines = [f'digraph "{P.name}" {{', "  rankdir=BT;", '  node [shape=box];']
    for n in P.nodes:
        lines.append(f'  "{n.name}";')
    for lo, hi in P.covers:
        lines.append(f'  "{lo}" -> "{hi}";')
    for h in sorted(set(height.values())):
        group = [n.name for n in P.nodes if height[n.name] == h]
        joined = "; ".join(f'"{g}"' for g in group)
        lines.append(f"  {{ rank=same; {joined}; }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
