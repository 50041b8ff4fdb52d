"""Tests for monoidlab.monoids.

The shipped stock tables are the frozen oracle; each is re-derived here from
its presentation through the bounded congruence closure (an independent
route) and compared exactly.  E's table is additionally pinned literal by
literal since it was transcribed by hand rather than generated.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from monoidlab.equations import (
    _separating_columns,
    isoterm,
    member,
    minimal_generating_set,
    rel_free,
    satisfies,
)
from monoidlab.monoids import (
    ClosureBoundExceeded,
    FiniteMonoid,
    NeedsIdentityError,
    PresentationError,
    STOCK_PRESENTATIONS,
    adjoin_identity,
    catalog,
    direct_product,
    find_isomorphism,
    format_monoid_text,
    from_presentation,
    monoid_from_json_dict,
    monoid_to_json_dict,
    parse_monoid_text,
    rees_quotient,
    submonoid,
    validate,
)
from monoidlab.words import parse_identity, parse_word

EXPECTED_ORDERS = {
    "N2": 2, "N6": 6, "B2": 5, "B0": 4, "A0": 4, "A2": 5,
    "I": 3, "J": 3, "L2": 2, "R2": 2, "P2": 4, "Q": 5, "E": 5, "O": 4,
}


def _eval_side(M: FiniteMonoid, side: str):
    if side == "0":
        z = M.zero_index()
        assert z is not None
        return z
    if side == "1":
        return M.require_identity()
    return M.evaluate_indices(M.index(c) for c in parse_word(side))


# ---------------------------------------------------------------------------
# Stock catalog
# ---------------------------------------------------------------------------


def test_e_table_frozen_exactly():
    E = catalog("E")
    assert E.elements == ("0", "a", "ac", "b", "c")
    assert E.identity is None
    rows = [
        ["0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "ac"],
        ["0", "0", "0", "ac", "ac"],
        ["0", "a", "ac", "b", "b"],
        ["0", "a", "ac", "c", "c"],
    ]
    got = [[E.elements[int(E.table[i, j])] for j in range(5)] for i in range(5)]
    assert got == rows
    assert validate(E).ok


def test_stock_tables_match_presentation_closure():
    for name, (gens, rels) in STOCK_PRESENTATIONS.items():
        shipped = catalog(name)
        derived = from_presentation(gens, rels, name=name)
        assert shipped == derived, name
        assert shipped.order == EXPECTED_ORDERS[name], name
        assert validate(shipped).ok, name
        for lhs, rhs in rels:
            assert _eval_side(shipped, lhs) == _eval_side(shipped, rhs), (name, lhs, rhs)


def test_stock_element_orders_deterministic():
    assert catalog("Q").elements == ("0", "a", "b", "bc", "c")
    assert catalog("B2").elements == ("0", "a", "ab", "b", "ba")
    assert catalog("N6").elements == ("0", "a", "ab", "b", "ba", "bab")
    assert catalog("P2").elements == ("a", "b", "ba", "bb")
    assert catalog("O").elements == ("1", "a", "ab", "b")
    assert catalog("O").is_monoid


def test_adjoined_identity_appends_last():
    E1 = catalog("E^1")
    assert E1.order == 6
    assert E1.elements == ("0", "a", "ac", "b", "c", "1")
    assert E1.identity == 5
    assert validate(E1).ok
    # same normalized name through the trailing-1 shorthand
    assert catalog("E1") is E1
    # adjoining is always fresh: the old identity stops being neutral
    O2 = adjoin_identity(catalog("O"))
    assert O2.order == 5
    assert O2.identity == 4
    old = O2.index("1")
    assert O2.mul_index(old, O2.identity) == old != O2.identity


def test_cyclic_and_symmetric_groups():
    Z1 = catalog("Z1")
    assert Z1.order == 1 and Z1.is_monoid
    Z6 = catalog("Z6")
    assert Z6.order == 6 and validate(Z6).ok
    assert catalog("Z21").order == 21  # trailing 1 binds to the number here
    S3 = catalog("S3")
    assert S3.order == 6 and validate(S3).ok
    r, s = S3.index("r"), S3.index("s")
    assert S3.table[r, s] != S3.table[s, r]


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("XYZ")
    # A cyclic group of order 0 and an M(...) of nothing but commas are not
    # catalog names either, and say so as every unknown name does.
    for name in ("Z0", "Z00", "M(,)"):
        with pytest.raises(KeyError, match=re.escape(f"unknown catalog name {name!r}; known: ")):
            catalog(name)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def test_direct_product_and_isomorphism():
    Z2, Z3, Z6 = catalog("Z2"), catalog("Z3"), catalog("Z6")
    P = direct_product(Z2, Z3)
    assert P.order == 6 and P.is_monoid and validate(P).ok
    assert P.elements[0] == "(e,e)"
    iso = find_isomorphism(P, Z6)
    assert iso is not None and iso["(e,e)"] == "e"
    # product with a plain semigroup has no identity
    assert direct_product(Z2, catalog("B2")).identity is None


def test_submonoid():
    B21 = catalog("B2^1")
    S = submonoid(B21, ["a"])
    assert S.order == 3  # a, a^2 = 0, and the identity
    assert set(S.elements) == {"a", "0", "1"}
    assert find_isomorphism(S, catalog("N2^1")) is not None


def test_rees_quotient_orders():
    assert rees_quotient([parse_word("1")]).order == 2
    assert catalog("M(x)").order == 3
    assert catalog("M(xy)").order == 5
    assert catalog("M(xyx)").order == 7
    assert catalog("M(xyxy)").order == 9
    M = catalog("M(xyxy)")
    assert M.elements == ("1", "x", "y", "xy", "yx", "xyx", "yxy", "xyxy", "0")
    assert M.mul("xy", "xy") == "xyxy"
    assert M.mul("y", "y") == "0"
    assert M.mul("xy", "x") == "xyx"
    assert M.mul("x", "yx") == "xyx"
    assert M.mul("xyx", "y") == "xyxy"
    assert M.mul("xyxy", "x") == "0"
    assert M.zero_index() == 8
    assert validate(M).ok
    multi = catalog("M(x,xy)")
    assert set(multi.elements) == {"1", "x", "y", "xy", "0"}


def test_rees_isomorphisms_with_nilpotent_stock():
    assert find_isomorphism(catalog("M(x)"), catalog("N2^1")) is not None
    assert find_isomorphism(catalog("M(xyx)"), catalog("N6^1")) is not None
    assert find_isomorphism(catalog("M(xy)"), catalog("N6^1")) is None


def test_anti_isomorphism():
    I, J = catalog("I"), catalog("J")
    assert find_isomorphism(I, J) is None
    anti = find_isomorphism(I, J, anti=True)
    assert anti is not None
    # verify the anti-homomorphism property by hand on all pairs
    for x in I.elements:
        for y in I.elements:
            assert anti[I.mul(x, y)] == J.mul(anti[y], anti[x])


def test_isomorphism_search_backtracks_to_none():
    # Each non-identity element of Z2 x Z2 has order 2, so Z4's one element
    # of order 2 is its only candidate and every branch dead-ends
    Z2 = catalog("Z2")
    assert find_isomorphism(direct_product(Z2, Z2), catalog("Z4")) is None


def test_left_and_right_zero_monoids_are_only_anti_isomorphic():
    L, R = catalog("L2^1"), catalog("R2^1")
    assert find_isomorphism(L, R) is None
    assert find_isomorphism(L, R, anti=True) == {"a": "a", "b": "b", "1": "1"}


# ---------------------------------------------------------------------------
# Presentations: edge cases
# ---------------------------------------------------------------------------


def test_presentation_monoid_mode():
    O = from_presentation(("a", "b"), (("a^2", "a"), ("ba", "a"), ("b^2", "1")))
    assert O.is_monoid and O.order == 4
    assert find_isomorphism(O, catalog("O")) is not None


def test_presentation_infinite_raises():
    with pytest.raises(ClosureBoundExceeded):
        from_presentation(("a",), (), max_word_length=8)
    with pytest.raises(ClosureBoundExceeded):
        # the bicyclic monoid is infinite
        from_presentation(("a", "b"), (("ab", "1"),), max_word_length=8)


def test_presentation_bad_input():
    with pytest.raises(PresentationError):
        from_presentation(("a", "a"), ())
    with pytest.raises(PresentationError):
        from_presentation(("a",), (("ab", "a"),))  # b is not a generator


def test_two_sided_rewriting_needed():
    # b^3 = b^2 holds in P2 but only via a length-increasing detour
    P2 = catalog("P2")
    b = P2.index("b")
    b2 = P2.table[b, b]
    assert P2.table[b2, b] == b2


# ---------------------------------------------------------------------------
# Validation and serialization
# ---------------------------------------------------------------------------


def test_validate_catches_broken_table():
    Z3 = catalog("Z3")
    bad = np.array(Z3.table)
    bad[1, 1] = 1  # a*a = a breaks the group
    M = FiniteMonoid("broken", Z3.elements, bad, identity=0)
    report = validate(M)
    assert not report.ok
    assert any("associativity" in p for p in report.problems)


def test_validate_reports_at_most_five_identity_failures():
    # A constant table is associative; the declared identity b fixes only
    # a, so it fails on the six other elements and the report stops at five.
    M = FiniteMonoid("constant", tuple("abcdefg"), np.zeros((7, 7), dtype=np.int32), identity=1)
    report = validate(M)
    assert not report.ok
    assert report.problems == [f"identity b fails on {x}" for x in "bcdef"]


def test_identity_required_error():
    with pytest.raises(NeedsIdentityError):
        catalog("B2").require_identity()
    assert catalog("B2").evaluate_indices([1]) == 1
    with pytest.raises(NeedsIdentityError):
        catalog("B2").evaluate_indices([])


def test_text_and_json_roundtrip():
    for name in ("E", "O", "Q", "M(xyx)"):
        M = catalog(name)
        again = parse_monoid_text(format_monoid_text(M))
        assert again == M
        assert monoid_from_json_dict(monoid_to_json_dict(M)) == M


def test_factor_words_only_on_rees_quotients():
    M = catalog("M(xyxy)")
    assert M.factor_words == (parse_word("x y x y"),)
    assert rees_quotient(["x y", "y x"]).factor_words == (parse_word("x y"), parse_word("y x"))
    assert rees_quotient([]).factor_words == ()
    derived = (
        adjoin_identity(M),
        M.opposite(),
        direct_product(M, M),
        submonoid(M, ["x"]),
        parse_monoid_text(format_monoid_text(M)),
        monoid_from_json_dict(monoid_to_json_dict(M)),
        catalog("E^1"),
    )
    assert all(D.factor_words is None for D in derived)
    # Provenance only: equality and hashing ignore it.
    plain = parse_monoid_text(format_monoid_text(M))
    assert plain == M and hash(plain) == hash(M)


def test_factors_only_on_direct_products():
    L, Mx, R = catalog("L2^1"), catalog("M(x)"), catalog("R2^1")
    assert L.factors is None
    P = direct_product(L, Mx)
    assert P.factors == (L, Mx) and P.factors[1] is Mx
    # Nested products flatten to their leaves, whichever side nests.
    assert direct_product(P, R).factors == (L, Mx, R)
    assert direct_product(R, P).factors == (R, L, Mx)
    assert direct_product(P, P).factors == (L, Mx, L, Mx)
    # The leaves index the product's elements in mixed radix.
    T = direct_product(P, R)
    assert T.elements[(2 * Mx.order + 1) * R.order + 2] == \
        f"(({L.elements[2]},{Mx.elements[1]}),{R.elements[2]})"
    derived = (
        adjoin_identity(P),
        P.opposite(),
        submonoid(P, ["(a,x)"]),
        monoid_from_json_dict(monoid_to_json_dict(P)),
    )
    assert all(D.factors is None for D in derived)
    # Provenance only: equality and hashing ignore it.
    plain = monoid_from_json_dict(monoid_to_json_dict(P))
    assert plain == P and hash(plain) == hash(P)


def _warm(M):
    """Fill M's memo through the queries that read it."""
    for k in range(4):
        rel_free(M, k)
    satisfies(M, parse_identity("a b x y c = a b y x c"))  # by elimination
    isoterm(M, parse_word("x y x"))
    member(catalog("L2^1"), M)
    member(M, catalog("L2^1"))
    return M


def test_derived_monoids_start_with_an_empty_memo():
    M = _warm(catalog("M(xyx)"))
    assert {"zero_index", "minimal_generating_set", "by_column",
            ("positions", 3), ("zero_cut", 3)} <= M._memo.keys()
    for derived in (M.opposite(), submonoid(M, ["x"]), adjoin_identity(M),
                    direct_product(M, M), rees_quotient(M.factor_words)):
        assert derived._memo == {}, derived.name
    assert rees_quotient(M.factor_words) == M


def test_product_and_its_flat_copy_keep_their_own_columns():
    # A product and a copy of its table without ``factors`` are equal, but
    # their separating columns differ (L2^1 has no zero, so the flat copy
    # keeps all 18^k assignments); each must read its own, whichever is
    # asked first, and both must give the same relatively free monoid.
    P = direct_product(catalog("L2^1"), catalog("Q^1"))
    flat = FiniteMonoid(P.name, P.elements, P.table, P.identity)
    assert flat == P and hash(flat) == hash(P) and flat.factors is None
    for k in (1, 2, 3):
        fields = []
        for M in (P, flat, P, flat):
            rf = rel_free(M, k)
            fields.append((rf.size, rf.transitions.tolist(), rf.parent.tolist(),
                           rf.parent_letter.tolist()))
        assert fields.count(fields[0]) == 4, k
        assert _separating_columns(P.factors, k).widths == [3 ** k, 5 ** k + k]
        assert _separating_columns((flat,), k).widths == [18 ** k]
        assert flat._memo[("zero_cut", k)].shape == (k, 18 ** k)
        assert ("zero_cut", k) not in P._memo
    assert minimal_generating_set(P) == minimal_generating_set(flat)


def test_memoized_arrays_are_read_only():
    # member's satisfies re-check reads the same memo as the search it
    # checks, so a memoized array written through would pass its own check.
    monoids = [_warm(catalog(name)) for name in ("Q^1", "M(xyx)", "Z3")]
    monoids.append(_warm(direct_product(catalog("L2^1"), catalog("Q^1"))))
    arrays = [a for M in monoids for a in M._memo.values() if isinstance(a, np.ndarray)]
    assert len(arrays) >= 20
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    for row in _separating_columns((catalog("Q^1"),), 2).columns:
        with pytest.raises(ValueError, match="read-only"):
            row += 1


def test_parse_monoid_text_errors():
    with pytest.raises(PresentationError):
        parse_monoid_text("monoid X\nelements a\nidentity a\n")
    with pytest.raises(PresentationError):
        parse_monoid_text("monoid X\nelements a a\nidentity -\ntable\na a\na a\n")
    with pytest.raises(PresentationError):
        parse_monoid_text(
            "monoid X\nelements a b\nidentity q\ntable\na b\nb a\n"
        )


MONOID_TEXT = "monoid X\nelements e a\nidentity e\ntable\ne a\na e\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("monoid X", "monoid", "expected 'monoid <name>', got 'monoid'"),
        ("elements e a", "elems e a", "expected 'elements ...', got 'elems e a'"),
        ("identity e", "identity", "expected 'identity <e>', got 'identity'"),
        ("table", "rows", "expected 'table', got 'rows'"),
        ("a e\n", "", "expected 2 table rows, found 1"),
        ("a e\n", "a\n", "table row 1 has 1 entries, expected 2"),
        ("a e\n", "a b\n", "unknown element 'b' in table row 1"),
    ],
    ids=["header", "elements", "identity", "table", "rows", "row-width", "cell"],
)
def test_parse_monoid_text_messages(old, new, message):
    text = MONOID_TEXT.replace(old, new, 1)
    with pytest.raises(PresentationError) as info:
        parse_monoid_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "elements, table, identity, message",
    [
        ([], np.zeros((0, 0)), None, "a semigroup needs at least one element"),
        (["e", "e"], [[0, 1], [1, 0]], 0, "duplicate element labels in ('e', 'e')"),
        (["e", ""], [[0, 1], [1, 0]], 0, "bad element label ''"),
        (["e", "a b"], [[0, 1], [1, 0]], 0, "bad element label 'a b'"),
        (["e", "a"], [[0, 1]], 0, "table shape (1, 2) does not match 2 elements"),
        (["e", "a"], [[0, 1], [1, 2]], 0, "table entries out of range"),
        (["e", "a"], [[0, 1], [1, 0]], 2, "identity index 2 out of range"),
    ],
    ids=["empty", "duplicate", "blank", "whitespace", "shape", "entry", "identity"],
)
def test_finite_monoid_checks(elements, table, identity, message):
    with pytest.raises(PresentationError) as info:
        FiniteMonoid("X", elements, table, identity)
    assert str(info.value) == message
