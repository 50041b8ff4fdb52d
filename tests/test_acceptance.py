"""Acceptance suite: seventeen end-to-end checks over the whole library.

Each test covers one numbered criterion and prints exactly one
``criterion NN: PASS/FAIL`` line (shown in the summary of
``pytest -rA``), computed over frozen expected values, seeded random
sweeps, and independent re-verification routes.  Target runtime for the
whole file is well under five minutes.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from monoidlab.deduction import (
    bundled_scripts,
    canonical_decomposition,
    lambda_reduce,
    lq_equiv_syntactic,
    sigma_classify,
)
from monoidlab.equations import (
    IsotermBudget,
    isoterm,
    member,
    rel_free,
    satisfies,
)
from monoidlab.lattice import check_all_edges, expanded_count, load_figure, validate_lattice
from monoidlab.monoids import (
    STOCK_PRESENTATIONS,
    catalog,
    direct_product,
    find_isomorphism,
    from_presentation,
    validate,
)
from monoidlab.words import (
    Identity,
    Word,
    match_pattern,
    parse_identity,
    parse_word,
    sigma,
    sigma_infinity,
    wn_xyxy,
    wn_zimin,
    zimin,
    zimin_decompose,
)


@contextmanager
def criterion(n: int, detail: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} -- {detail}")


# ---------------------------------------------------------------------------
# 1-2: the six-element witness monoid and its defining identities
# ---------------------------------------------------------------------------

E_ELEMENTS = ("0", "a", "ac", "b", "c")
E_TABLE = (
    ("0", "0", "0", "0", "0"),
    ("0", "0", "0", "0", "ac"),
    ("0", "0", "0", "ac", "ac"),
    ("0", "a", "ac", "b", "b"),
    ("0", "a", "ac", "c", "c"),
)

E_BASIS_TEXTS = ("x^3 = x^2", "x^2 y x = x y x", "x y x^2 = x y x", "x y^2 x = x^2 y^2")


def test_criterion_01():
    with criterion(1, "five-element stock table reproduced bit-exactly, associative, "
                      "matches its presentation; adjoined-identity order 6"):
        M = catalog("E")
        assert M.elements == E_ELEMENTS
        got = tuple(tuple(M.elements[int(M.table[i, j])] for j in range(5)) for i in range(5))
        assert got == E_TABLE
        assert validate(M).ok

        def mul(s: str, t: str) -> str:
            return M.elements[int(M.table[M.index(s), M.index(t)])]

        # The eight presentation relations, re-checked directly in the table.
        assert mul("a", "a") == "0" and mul("a", "b") == "0"
        assert mul("b", "a") == "a" and mul("c", "a") == "a"
        assert mul("b", "b") == "b" and mul("b", "c") == "b"
        assert mul("c", "c") == "c" and mul("c", "b") == "c"

        # Independent route: bounded congruence closure of the presentation.
        gens, rels = STOCK_PRESENTATIONS["E"]
        assert from_presentation(gens, rels, name="E") == M

        assert catalog("E^1").order == 6


def test_criterion_02():
    with criterion(2, "all four defining identities hold in the order-6 monoid "
                      "by exhaustive check (6^k <= 216 substitutions each)"):
        M = catalog("E^1")
        for text in E_BASIS_TEXTS:
            ident = parse_identity(text)
            res = satisfies(M, ident)
            assert res.holds, text
            nvars = len(ident.lhs.content() | ident.rhs.content())
            assert res.checked == 6 ** nvars <= 216


# ---------------------------------------------------------------------------
# 3: the alternating-squares chain and its limit identity
# ---------------------------------------------------------------------------


def test_criterion_03():
    with criterion(3, "limit identity fails in the order-6 monoid at exactly "
                      "h=a x=b y=c (0 != ac); both join factors satisfy every "
                      "chain identity up to stage 6"):
        res = satisfies(catalog("E^1"), sigma_infinity())
        assert not res.holds
        assert res.witness == {"h": "a", "x": "b", "y": "c"}
        assert (res.lhs_value, res.rhs_value) == ("0", "ac")

        L, Q = catalog("L2^1"), catalog("Q^1")
        for n in range(1, 7):
            assert satisfies(L, sigma(n)).holds, n
            assert satisfies(Q, sigma(n)).holds, n
        # The join inherits them; spot-check the product directly where cheap.
        J = direct_product(L, Q)
        for n in range(1, 4):
            assert satisfies(J, sigma(n)).holds, n


# ---------------------------------------------------------------------------
# 4: golden derivation chains re-verify step by step
# ---------------------------------------------------------------------------


def test_criterion_04():
    with criterion(4, "all thirteen bundled derivation scripts re-verify: square "
                      "commuting, both triple-collapse branches, block removal, "
                      "and the chain steps sigma_n -> sigma_(n+1) for n <= 8"):
        scripts = bundled_scripts()
        assert sorted(scripts) == [
            "block_collapse", "collapse_triple_via_deletion",
            "collapse_triple_via_square", "commute_squares", "sigma2_to_limit",
            "sigma_step_1", "sigma_step_2", "sigma_step_3", "sigma_step_4",
            "sigma_step_5", "sigma_step_6", "sigma_step_7", "sigma_step_8",
        ]
        for script in scripts.values():
            script.check()  # raises on any bad link
        assert scripts["commute_squares"].identity() == parse_identity("y^2 x^2 = x^2 y^2")
        triple = parse_identity("x y x z x = x y z x")
        assert scripts["collapse_triple_via_deletion"].identity() == triple
        assert scripts["collapse_triple_via_square"].identity() == triple
        assert scripts["block_collapse"].identity() == parse_identity(
            "x^2 h2 x^2 y^2 = x^2 h2 y^2 x^2")
        assert scripts["sigma2_to_limit"].identity() == sigma_infinity()
        assert sigma(2) in scripts["sigma2_to_limit"].rules
        for n in range(1, 9):
            step = scripts[f"sigma_step_{n}"]
            assert step.rules == (sigma(n),)
            assert step.identity() == sigma(n + 1)
            assert len(step.words) == 2  # a single deduction step


# ---------------------------------------------------------------------------
# 5-7: word-family satisfaction and isoterm verdicts for the order-9 quotient
# ---------------------------------------------------------------------------


def test_criterion_05():
    with criterion(5, "order-9 factor-word quotient satisfies the nontrivial "
                      "rearrangement of the n=2 family word"):
        M = catalog("M(xyxy)")
        assert M.order == 9
        ident = Identity(wn_xyxy(2), parse_word("x0 x1 y z x0 x2 y z x1 x2"))
        assert not ident.is_trivial()
        assert satisfies(M, ident).holds


def test_criterion_06():
    with criterion(6, "n=2 family word is falsified as an isoterm (anagram "
                      "phase); for n in {3,4} the falsifier finds no witness "
                      "on the word or its swapped variant"):
        M = catalog("M(xyxy)")
        v2 = isoterm(M, wn_xyxy(2))
        assert v2.kind == "not_isoterm"
        assert v2.details["phase"] == "anagrams"
        assert satisfies(M, Identity(wn_xyxy(2), v2.witness)).holds

        budget = IsotermBudget(enum_words=50)  # falsifier phases only
        for n in (3, 4):
            for primed in (False, True):
                v = isoterm(M, wn_xyxy(n, primed), budget=budget)
                assert v.kind != "not_isoterm", (n, primed, v.kind)


def test_criterion_07():
    with criterion(7, "the generating word itself certifies as an isoterm via "
                      "the relatively free quotient; x^2 is falsified for the "
                      "order-3 quotient with witness x^3"):
        assert rel_free(catalog("M(xyxy)"), 2).size == 21
        v = isoterm(catalog("M(xyxy)"), parse_word("x y x y"))
        assert v.kind == "certified"
        assert v.details["certifier"] == "class of w is a singleton"
        # the certifier keeps only the 5 left divisors of x y x y
        assert v.details["left_divisor_states"] == 5

        v = isoterm(catalog("M(x)"), parse_word("x^2"))
        assert v.kind == "not_isoterm"
        assert v.witness == parse_word("x^3")


# ---------------------------------------------------------------------------
# 8-9: independence of the two indexed word families
# ---------------------------------------------------------------------------


def test_criterion_08():
    with criterion(8, "for 3 <= n,k <= 6, n != k, every factor-embedding of "
                      "the n-th family word into the k-th equalizes the word "
                      "with its swapped variant (runtime < 2 min)"):
        t0 = time.monotonic()
        # Positive control: the matcher finds the identity embedding at n=k.
        w3 = wn_xyxy(3)
        identity_theta = {v: Word((v,)) for v in w3.content()}
        assert identity_theta in match_pattern(w3, w3)
        for n in range(3, 7):
            for k in range(3, 7):
                if n == k:
                    continue
                thetas = match_pattern(wn_xyxy(n), wn_xyxy(k))
                # Cross-index embeddings collapse to the all-empty one.
                assert len(thetas) == 1, (n, k, len(thetas))
                for theta in thetas:
                    assert (wn_xyxy(n).substitute(theta)
                            == wn_xyxy(n, primed=True).substitute(theta)), (n, k)
        assert time.monotonic() - t0 < 120


def test_criterion_09():
    with criterion(9, "same independence property for the second family "
                      "(3 <= n,k <= 5), hundreds of embeddings per pair"):
        w3 = wn_zimin(3)
        identity_theta = {v: Word((v,)) for v in w3.content()}
        assert identity_theta in match_pattern(w3, w3)
        expected_counts = {(3, 4): 1029, (3, 5): 1416, (4, 3): 719,
                           (4, 5): 1415, (5, 3): 719, (5, 4): 1029}
        for (n, k), count in expected_counts.items():
            thetas = match_pattern(wn_zimin(n), wn_zimin(k))
            assert len(thetas) == count, (n, k, len(thetas))
            for theta in thetas:
                assert (wn_zimin(n).substitute(theta)
                        == wn_zimin(n, primed=True).substitute(theta)), (n, k)


# ---------------------------------------------------------------------------
# 10: the recursive self-similar words
# ---------------------------------------------------------------------------


def test_criterion_10():
    with criterion(10, "aligned factorizations reassemble the recursive words "
                       "for n <= 10 with the pinned variable-usage invariants; "
                       "the falsifier never refutes the first three words "
                       "against the two order-7 stock monoids"):
        for n in range(3, 11):
            d = zimin_decompose(n)
            assert d.reassemble() == zimin(n), n
            for i, part in enumerate(d.parts, start=1):
                allowed = {f"x{j}" for j in range(1, i + 1)}
                assert part.content() <= allowed, (n, i)
                assert part.occurrences().get(f"x{i}", 0) == 1, (n, i)
            assert d.tail.content() <= {f"x{j}" for j in range(1, n - 1)}, n
        for name in ("B2^1", "A2^1"):
            M = catalog(name)
            for n in (1, 2, 3):
                v = isoterm(M, zimin(n))
                assert v.kind != "not_isoterm", (name, n, v.kind)


# ---------------------------------------------------------------------------
# 11: factor-word quotient orders and isomorphisms
# ---------------------------------------------------------------------------


def test_criterion_11():
    with criterion(11, "factor-word quotient orders 2/3/5/7/9; the order-3 and "
                       "order-7 ones are isomorphic to the stock nilpotent "
                       "monoids (mapping re-verified pairwise)"):
        for name, order in (("M(1)", 2), ("M(x)", 3), ("M(xy)", 5),
                            ("M(xyx)", 7), ("M(xyxy)", 9)):
            assert catalog(name).order == order, name
        for a_name, b_name in (("M(x)", "N2^1"), ("M(xyx)", "N6^1")):
            A, B = catalog(a_name), catalog(b_name)
            mapping = find_isomorphism(A, B)
            assert mapping is not None, (a_name, b_name)
            assert sorted(mapping) == sorted(A.elements)
            assert sorted(mapping.values()) == sorted(B.elements)
            for s in A.elements:
                for t in A.elements:
                    lhs = mapping[A.elements[int(A.table[A.index(s), A.index(t)])]]
                    rhs = B.elements[int(B.table[B.index(mapping[s]), B.index(mapping[t])])]
                    assert lhs == rhs, (a_name, s, t)


# ---------------------------------------------------------------------------
# 12: published identity bases at desk scale
# ---------------------------------------------------------------------------


def test_criterion_12():
    with criterion(12, "order-9 quotient satisfies the five-identity basis; "
                       "the three-identity exponent-2 family holds in all four "
                       "order-3 generators; the order-6 pair is separated by "
                       "the square-alternation exclusion identity"):
        M9 = catalog("M(xyxy)")
        five = (
            "x^13 h x k x = x h x k x",
            "x h x^2 k x = x^3 h k x",
            "x h y^2 x^2 k y = x h x^2 y^2 k y",
            "x h y k x y t x d y = x h y k y x t x d y",
            "x h y k x y t y d x = x h y k y x t y d x",
        )
        for text in five:
            assert satisfies(M9, parse_identity(text)).holds, text

        exponent_two = ("x^3 h x = x h x", "x h x t x = x^2 h t x",
                        "x h x y t y = x h y x t y")
        for name in ("L2^1", "M(x)", "R2^1", "Z2"):
            M = catalog(name)
            for text in exponent_two:
                assert satisfies(M, parse_identity(text)).holds, (name, text)

        Q = catalog("Q^1")
        for text in ("x^3 = x^2", "x^2 y x = x y x", "x y x^2 = x y x",
                     "x^2 y^2 = y^2 x^2"):
            assert satisfies(Q, parse_identity(text)).holds, text
        exclusion = parse_identity("x^2 y^2 x^2 y^2 x^2 = y^2 x^2 y^2 x^2")
        assert satisfies(Q, exclusion).holds
        assert not satisfies(catalog("E^1"), exclusion).holds


# ---------------------------------------------------------------------------
# 13: the membership oracle
# ---------------------------------------------------------------------------


def test_criterion_13():
    with criterion(13, "membership verdicts: order-3 quotient inside the "
                       "order-5 one, order-2 inside order-3; the idempotent "
                       "pair is refuted with a re-verified separating identity "
                       "(commuting squares separate as well)"):
        assert member(catalog("M(x)"), catalog("M(xy)")).kind == "member"
        assert member(catalog("M(1)"), catalog("M(x)")).kind == "member"

        verdict = member(catalog("L2^1"), catalog("Q^1"))
        assert verdict.kind == "not_member"
        assert verdict.witness is not None
        # The returned witness re-verifies on both sides.
        assert satisfies(catalog("Q^1"), verdict.witness).holds
        assert not satisfies(catalog("L2^1"), verdict.witness).holds
        # The classic separating identity is independently confirmed too.
        squares = parse_identity("x^2 y^2 = y^2 x^2")
        assert satisfies(catalog("Q^1"), squares).holds
        assert not satisfies(catalog("L2^1"), squares).holds


# ---------------------------------------------------------------------------
# 14-15: seeded randomized oracle-agreement sweeps
# ---------------------------------------------------------------------------


def _draw_canonical(rng: random.Random) -> Word:
    """A canonical word over letters a,b and separators h,t; length <= 8."""
    letters = ("a", "b")
    seps = ("h", "t")
    nblocks = rng.choice((1, 2, 3))
    nseps = nblocks - 1
    budget = (8 - nseps) // 2
    out: list[str] = []
    for i in range(nblocks):
        size = rng.randint(0 if nblocks > 1 else 1, min(2, budget))
        budget -= size
        block = rng.sample(letters, size)
        if i:
            out.append(seps[i - 1])
        for c in block:
            out.extend((c, c))
    return Word(out)


def _permute_blocks(rng: random.Random, w: Word) -> Word:
    d = canonical_decomposition(w)
    blocks = [list(b) for b in d.blocks]
    for b in blocks:
        rng.shuffle(b)
    out: list[str] = []
    for i, b in enumerate(blocks):
        if i:
            out.append(d.separators[i - 1])
        for c in b:
            out.extend((c, c))
    return Word(out)


def test_criterion_14():
    with criterion(14, "on 500 seeded canonical pairs (<= 4 variables, length "
                       "<= 8) the syntactic equivalence tests agree with "
                       "exhaustive satisfaction in both join factors, 100%"):
        rng = random.Random(20260814)
        Q1, L21 = catalog("Q^1"), catalog("L2^1")
        q_true = l_true = both = 0
        for _ in range(500):
            u = _draw_canonical(rng)
            v = _permute_blocks(rng, u) if rng.random() < 0.5 else _draw_canonical(rng)
            lq = lq_equiv_syntactic(u, v)
            ident = Identity(u, v)
            assert lq.q_equivalent == satisfies(Q1, ident).holds, (u, v)
            assert lq.l_equivalent == satisfies(L21, ident).holds, (u, v)
            q_true += lq.q_equivalent
            l_true += lq.l_equivalent
            both += lq.q_equivalent and lq.l_equivalent
        # Seeded distribution: healthy mix of positives and negatives.
        assert (q_true, l_true, both) == (253, 190, 185)


BASIS_MODELS = ("Z1", "N2^1", "B0^1", "I^1", "J^1", "L2^1", "Q^1", "E^1",
                "M(x)", "M(xy)")


def _reducible_pair(rng: random.Random) -> tuple[Word, Word]:
    """Two canonical words sharing separators, per-block content, and first
    occurrences: exactly the pairs valid in the join of the two factors."""
    letters = ["a", "b", "c"]
    first = letters[:]
    rng.shuffle(first)
    nblocks = rng.choice((2, 3))
    blocks_u, blocks_v = [first], [first[:]]
    for _ in range(nblocks - 1):
        content = rng.sample(letters, rng.randint(1, 3))
        bu, bv = content[:], content[:]
        rng.shuffle(bu)
        rng.shuffle(bv)
        blocks_u.append(bu)
        blocks_v.append(bv)
    seps = ["h1", "h2"][: nblocks - 1]

    def assemble(blocks: list[list[str]]) -> Word:
        out: list[str] = []
        for i, b in enumerate(blocks):
            if i:
                out.append(seps[i - 1])
            for c in b:
                out.extend((c, c))
        return Word(out)

    return assemble(blocks_u), assemble(blocks_v)


def test_criterion_15():
    with criterion(15, "on 100 seeded join-valid canonical identities, direct "
                       "satisfaction, the emitted square-interchange "
                       "identities, and their chain classifications agree on "
                       "every basis-satisfying catalog monoid"):
        rng = random.Random(20260814)
        models = [catalog(m) for m in BASIS_MODELS]
        nontrivial = 0
        for _ in range(100):
            u, v = _reducible_pair(rng)
            lq = lq_equiv_syntactic(u, v)
            assert lq.q_equivalent and lq.l_equivalent  # join-valid by construction
            nontrivial += u != v
            lams = lambda_reduce(u, v)
            classes = [sigma_classify(lam) for lam in lams]
            ident = Identity(u, v)
            for M in models:
                direct = satisfies(M, ident).holds
                via_lambda = all(satisfies(M, lam.identity()).holds for lam in lams)
                via_class = all(satisfies(M, c.identity()).holds for c in classes)
                assert direct == via_lambda == via_class, (M.name, u, v)
        assert nontrivial == 66  # seeded: the sweep is far from vacuous


# ---------------------------------------------------------------------------
# 16: the bundled subvariety diagrams
# ---------------------------------------------------------------------------


def test_criterion_16():
    with criterion(16, "all four diagrams validate as lattices; the big one "
                       "has 15 nodes and reports 15 x 4 = 60; every "
                       "semantically checkable edge of the two six-element "
                       "diagrams comes back confirmed"):
        for name in ("Fig1", "Fig2", "Fig3"):
            assert validate_lattice(load_figure(name)).ok, name
        for depth in (1, 3):
            assert validate_lattice(load_figure("Fig4", depth=depth)).ok, depth
        fig1 = load_figure("Fig1")
        assert len(fig1.nodes) == 15
        assert expanded_count(fig1, 4) == 60
        for name in ("Fig2", "Fig3"):
            for check in check_all_edges(load_figure(name)):
                assert check.verdict == "confirmed-strict", (name, check)


# ---------------------------------------------------------------------------
# 17: the order-5 quotient's semigroup-reduct basis
# ---------------------------------------------------------------------------


def test_criterion_17():
    with criterion(17, "the three semigroup-reduct basis identities all hold "
                       "in the order-5 factor-word quotient"):
        M = catalog("M(xy)")
        for text in ("x^4 = x^2", "x y x = x^2 y", "x y x = y x^2"):
            assert satisfies(M, parse_identity(text)).holds, text
