"""Tests for the bundled subvariety diagrams: poset parsing, lattice
validation, semantic edge evidence, and exports.

The three data-file figures were transcribed by hand; the tests
cross-check them structurally (lattice axioms) and semantically (every
edge's inclusion and strictness re-derived through the membership and
satisfaction oracles).
"""

from __future__ import annotations

import pytest

from monoidlab.lattice import (
    EdgeCheck,
    Poset,
    VarietyNode,
    check_all_edges,
    dot_export,
    downset,
    expanded_count,
    figure_names,
    format_poset_text,
    load_figure,
    parse_poset_text,
    poset_to_json_dict,
    semantic_check_edge,
    validate_lattice,
)
from monoidlab.equations import satisfies
from monoidlab.words import format_identity, parse_identity, sigma_infinity


def test_figure_counts():
    expected = {"Fig1": (15, 22), "Fig2": (8, 8), "Fig3": (12, 15)}
    for name, (nodes, covers) in expected.items():
        P = load_figure(name)
        assert P.name == name
        assert len(P.nodes) == nodes and len(P.covers) == covers
    fig4 = load_figure("Fig4")
    assert len(fig4.nodes) == 16 and len(fig4.covers) == 19
    fig4 = load_figure("Fig4", depth=1)
    assert len(fig4.nodes) == 14 and len(fig4.covers) == 17
    assert figure_names() == ("Fig1", "Fig2", "Fig3", "Fig4")
    with pytest.raises(ValueError, match="unknown figure"):
        load_figure("Fig5")
    with pytest.raises(ValueError, match="depth"):
        load_figure("Fig4", depth=0)


def test_validate_all_figures():
    for name in ("Fig1", "Fig2", "Fig3"):
        report = validate_lattice(load_figure(name))
        assert report.ok, report.problems
    for depth in (1, 2, 3, 5):
        report = validate_lattice(load_figure("Fig4", depth=depth))
        assert report.ok, (depth, report.problems)
    report = validate_lattice(load_figure("Fig1"))
    assert report.summary() == "Fig1: 15 nodes, 22 covers, lattice"


def test_validate_missing_join():
    # Two incomparable upper bounds and no top: not a lattice.
    bad = Poset(
        "bad",
        tuple(VarietyNode(n) for n in "oxypq"),
        (("o", "x"), ("o", "y"), ("x", "p"), ("y", "p"), ("x", "q"), ("y", "q")),
    )
    report = validate_lattice(bad)
    assert not report.ok
    assert report.problems == (
        "no least upper bound for (x, y): minimal bounds ['p', 'q']",
        "no least upper bound for (p, q): minimal bounds []",
        "no greatest lower bound for (p, q): maximal bounds ['x', 'y']",
    )


def test_validate_structural_problems():
    nodes = tuple(VarietyNode(n) for n in "abc")
    cyclic = Poset("c", nodes, (("a", "b"), ("b", "c"), ("c", "a")))
    assert validate_lattice(cyclic).problems == ("cycle through nodes 'a' and 'b'",)
    for func in (lambda P: downset(P, "a"), dot_export):
        with pytest.raises(ValueError, match="has a cycle"):
            func(cyclic)

    shortcut = Poset("s", nodes, (("a", "b"), ("b", "c"), ("a", "c")))
    assert any("not a cover" in p for p in validate_lattice(shortcut).problems)

    dangling = Poset("d", nodes, (("a", "z"),))
    assert any("unknown node" in p for p in validate_lattice(dangling).problems)

    selfloop = Poset("l", nodes, (("a", "a"),))
    assert any("self-cover" in p for p in validate_lattice(selfloop).problems)

    dup = Poset("p", nodes + (VarietyNode("a"),), ())
    assert any("duplicate" in p for p in validate_lattice(dup).problems)


def test_fig3_is_fig4_below_chain_base():
    fig3 = load_figure("Fig3")
    fig4 = load_figure("Fig4")
    sub = downset(fig4, "L2vQ")
    assert sub.nodes == fig3.nodes
    assert sub.covers == fig3.covers


def test_poset_text_roundtrip():
    for name in ("Fig1", "Fig2", "Fig3"):
        P = load_figure(name)
        again = parse_poset_text(format_poset_text(P))
        assert again == P
    # A node carrying both generators and identities round-trips.
    fig3 = load_figure("Fig3")
    top = fig3.node("L2vQ")
    assert top.generators == ("L2^1", "Q^1")
    assert top.identities == (parse_identity("x^2 h1 x^2 y^2 = x^2 h1 y^2 x^2"),)


def test_poset_text_errors():
    with pytest.raises(ValueError, match="missing poset header"):
        parse_poset_text("node a\n")
    with pytest.raises(ValueError, match="repeated poset header"):
        parse_poset_text("poset a\nposet b\n")
    with pytest.raises(ValueError, match="duplicate node"):
        parse_poset_text("poset p\nnode a\nnode a\n")
    with pytest.raises(ValueError, match="cover needs two"):
        parse_poset_text("poset p\nnode a\ncover a\n")
    with pytest.raises(ValueError, match="unknown declaration"):
        parse_poset_text("poset p\nedge a b\n")
    with pytest.raises(ValueError, match="gen"):
        parse_poset_text("poset p\nnode a gen\n")


def test_poset_json_dict():
    fig2 = load_figure("Fig2")
    data = poset_to_json_dict(fig2)
    assert data["name"] == "Fig2"
    assert len(data["nodes"]) == 8 and len(data["covers"]) == 8
    assert data["nodes"][0] == {"name": "0", "generators": ["Z1"], "identities": []}


def test_node_lookup_and_order():
    fig2 = load_figure("Fig2")
    assert fig2.node("Q").generators == ("Q^1",)
    with pytest.raises(KeyError):
        fig2.node("nope")
    assert fig2.leq("0", "Q") and not fig2.leq("Q", "0")
    assert fig2.leq("I", "B0") and not fig2.leq("I", "J")


def test_expanded_count():
    assert expanded_count(load_figure("Fig1"), 4) == 60


def test_semantic_fig2_fig3_all_edges_confirmed_strict():
    for name in ("Fig2", "Fig3"):
        P = load_figure(name)
        for chk in check_all_edges(P):
            assert chk.verdict == "confirmed-strict", (name, chk)
            # The separating identity re-verifies: holds in the lower
            # variety's generators, fails in the upper's product.
            lo, hi = P.node(chk.lower), P.node(chk.upper)
            for g_name in lo.generators:
                from monoidlab.monoids import catalog

                assert satisfies(catalog(g_name), chk.separating).holds
            assert not satisfies(hi.generator_monoid(), chk.separating).holds


def test_semantic_fig2_frozen_witnesses():
    fig2 = load_figure("Fig2")
    frozen = {
        ("0", "M1"): "1 = x1",
        ("M1", "Mx"): "x1 = x1^2",
        ("B0", "Q"): "x1 x2 x3 x1 = x1 x2 x1 x3 x1",
    }
    for edge, expected in frozen.items():
        chk = semantic_check_edge(fig2, edge)
        assert format_identity(chk.separating) == expected


def test_semantic_fig1_all_edges_confirmed_strict():
    for chk in check_all_edges(load_figure("Fig1")):
        assert chk.verdict == "confirmed-strict", chk


def test_semantic_fig4_chain_edges():
    fig4 = load_figure("Fig4")
    chk = semantic_check_edge(fig4, ("L2vQ", "sigma2"))
    assert chk.verdict == "confirmed-inclusion"
    assert chk.inclusion == "confirmed" and chk.strictness == "unknown"
    chk = semantic_check_edge(fig4, ("sigma2", "sigma3"))
    assert chk.verdict == "confirmed-inclusion"
    # The limit identity is derivable from the basis plus any finite stage.
    chk = semantic_check_edge(fig4, ("sigma3", "sigma_inf"))
    assert chk.verdict == "confirmed-inclusion"
    # The full variety sits strictly above the limit: the limit identity
    # itself separates.
    chk = semantic_check_edge(fig4, ("sigma_inf", "E1"))
    assert chk.verdict == "confirmed-strict"
    assert chk.separating == sigma_infinity()


def test_semantic_unknown_for_bare_nodes():
    bare = Poset("b", (VarietyNode("lo"), VarietyNode("hi")), (("lo", "hi"),))
    chk = semantic_check_edge(bare, ("lo", "hi"))
    assert chk.verdict == "unknown"
    assert chk.inclusion == "unknown" and chk.strictness == "unknown"


def test_semantic_refuted_edge():
    # L2^1 does not lie in the variety of Q^1, so the edge is refuted and
    # the strictness check is skipped
    P = parse_poset_text("poset t\nnode lo gen L2^1\nnode hi gen Q^1\ncover lo hi\n")
    chk = semantic_check_edge(P, ("lo", "hi"))
    assert chk.verdict == "refuted"
    assert (chk.inclusion, chk.strictness) == ("refuted", "unknown")
    assert format_identity(chk.separating) == "x1^2 x2^2 = x2 x1^2 x2"
    assert chk.notes == ["inclusion refuted by x1^2 x2^2 = x2 x1^2 x2"]


def test_dot_export():
    fig1 = load_figure("Fig1")
    dot = dot_export(fig1)
    assert dot == dot_export(fig1)  # deterministic
    assert dot.startswith('digraph "Fig1" {')
    lines = dot.splitlines()
    assert sum(1 for l in lines if l.startswith('  "') and "->" not in l) == 15
    assert sum(1 for l in lines if " -> " in l) == 22
    assert "rank=same" in dot
    # Minimal node alone at height zero.
    assert '{ rank=same; "0"; }' in dot

    fig4 = load_figure("Fig4")
    dot4 = dot_export(fig4)
    for label in ("L2vQ", "sigma2", "sigma3", "sigma_inf", "E1"):
        assert f'"{label}"' in dot4

    empty = Poset("empty", (), ())
    dot0 = dot_export(empty)
    assert dot0.startswith('digraph "empty" {')
    assert "->" not in dot0 and "rank" not in dot0.replace("rankdir", "")
