"""Tests for identity satisfaction, relatively free monoids, isoterms,
membership.

Frozen expected values were computed once and cross-checked by hand against
the shipped Cayley tables (the sigma-infinity witness below is re-derived
step by step in comments).  Randomized cases compare the vectorized
implementation against a direct brute-force evaluator.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from monoidlab import equations
from monoidlab.equations import (
    _anagrams,
    _AssignmentSpace,
    _bounded_identity_search,
    _by_elimination,
    _by_scan,
    _exhaustive_bound,
    _factor_key,
    _factor_texts,
    _has_factor_key,
    _linear_split,
    _perturbations,
    _second_word_in_class,
    _separating_columns,
    DEFAULT_BUDGET,
    MAX_DIM,
    BudgetExceededError,
    IsotermBudget,
    RelFree,
    RelFreeCapExceeded,
    SatisfactionResult,
    TupleConflict,
    close_under_deletion,
    evaluate,
    isoterm,
    member,
    minimal_generating_set,
    rel_free,
    satisfies,
    satisfies_all,
)
from monoidlab.lattice import load_figure
from monoidlab.monoids import (
    FiniteMonoid,
    adjoin_identity,
    catalog,
    direct_product,
    find_isomorphism,
    format_monoid_text,
    from_presentation,
    parse_monoid_text,
    rees_quotient,
    STOCK_PRESENTATIONS,
    submonoid,
)
from monoidlab.words import (
    EMPTY,
    Identity,
    Word,
    parse_identity,
    parse_word,
    sigma,
    sigma_infinity,
    wn_xyxy,
    zimin,
)


# ---------------------------------------------------------------------------
# satisfies / evaluate
# ---------------------------------------------------------------------------


def test_evaluate_basics():
    E1 = catalog("E^1")
    assert evaluate(E1, parse_word("x y"), {"x": "a", "y": "c"}) == "ac"
    assert evaluate(E1, parse_word("x y"), {"x": "a", "y": "b"}) == "0"
    assert evaluate(E1, EMPTY, {}) == "1"
    with pytest.raises(KeyError):
        evaluate(E1, parse_word("x y"), {"x": "a"})


def test_satisfies_basis_identities_hold():
    E1 = catalog("E^1")
    r = satisfies(E1, parse_identity("x^3 = x^2"))
    assert r.holds and r.checked == 6
    for text in ("x^2 y x = x y x", "x y x^2 = x y x", "x y^2 x = x^2 y^2"):
        r = satisfies(E1, parse_identity(text))
        assert r.holds and r.checked == 36
    ok, results = satisfies_all(
        E1, [parse_identity("x^3 = x^2"), parse_identity("x y^2 x = x^2 y^2")]
    )
    assert ok and len(results) == 2


def test_satisfies_sigma_infinity_witness():
    # With elements ordered (0, a, ac, b, c, 1) and variables sorted (h, x, y),
    # the first failing assignment of x^2y^2hx^2y^2 = x^2y^2hy^2x^2 is
    # h=a, x=b, y=c:  lhs = b.c.a.b.c = (ba=a, ab=0) -> 0,
    #                 rhs = b.c.a.c.b = (ba=a, ac=ac, acb=ac) -> ac.
    E1 = catalog("E^1")
    r = satisfies(E1, sigma_infinity())
    assert not r.holds
    assert r.witness == {"h": "a", "x": "b", "y": "c"}
    assert r.witness_text() == "h=a x=b y=c"
    assert r.lhs_value == "0"
    assert r.rhs_value == "ac"
    assert r.checked == 6 ** 3


def test_satisfies_sigma_finite_chain():
    L21 = catalog("L2^1")
    Q1 = catalog("Q^1")
    E1 = catalog("E^1")
    for n in (1, 2, 3):
        assert satisfies(L21, sigma(n)).holds
        assert satisfies(Q1, sigma(n)).holds
    # E^1 satisfies the basis but fails the whole sigma chain: sigma_n
    # derives sigma_{n+1} (substitute h_n -> h_n e_{n+1} h_{n+1}), and
    # sigma_2 together with the basis derives the limit identity, which E^1
    # fails -- so E^1 must fail every sigma_n as well.
    for n in (1, 2, 3):
        assert not satisfies(E1, sigma(n)).holds
    # L2^1 and Q^1 do satisfy the limit identity itself
    assert satisfies(L21, sigma_infinity()).holds
    assert satisfies(Q1, sigma_infinity()).holds


def _brute_satisfies(M, ident):
    variables = sorted(ident.variables())
    for combo in itertools.product(M.elements, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        lhs = evaluate(M, ident.lhs, assignment)
        rhs = evaluate(M, ident.rhs, assignment)
        if lhs != rhs:
            return False, assignment, lhs, rhs
    return True, None, None, None


def test_satisfies_matches_bruteforce():
    rng = random.Random(20260814)
    monoids = [catalog(n) for n in ("N2^1", "M(x)", "Z3", "B2^1", "E^1")]
    variables = ["x", "y", "z", "w"]
    for i in range(75):
        M = rng.choice(monoids)
        k = i % 5  # 0..4 variables; k = 0 is the identity 1 = 1
        vs = variables[:k]
        lhs = Word(rng.choice(vs) for _ in range(rng.randint(0, 5) if k else 0))
        rhs = Word(rng.choice(vs) for _ in range(rng.randint(0, 5) if k else 0))
        ident = Identity(lhs, rhs)
        got = satisfies(M, ident)
        holds, witness, lv, rv = _brute_satisfies(M, ident)
        assert got.holds == holds
        assert got.checked == M.order ** len(ident.variables())
        if k == 0:
            assert got.holds and got.checked == 1
        if not holds:
            # brute iteration order is the same mixed-radix order, so the
            # witness must agree exactly
            assert got.witness == witness
            assert got.lhs_value == lv and got.rhs_value == rv


def test_satisfies_matches_bruteforce_past_256_elements():
    # 315 elements: the kernel's table is uint16 here, not uint8.  Every
    # identity between powers of x, then seeded ones in x and y, half of
    # them with v = u with one letter inserted, which sometimes hold.
    M = direct_product(direct_product(catalog("M(xyxy)"), catalog("M(xyx)")), catalog("M(xy)"))
    assert M.order == 315
    powers = [Word(("x",) * i) for i in range(6)]
    idents = [Identity(u, v) for u, v in itertools.combinations(powers, 2)]
    rng = random.Random(20261019)
    for i in range(24):
        u = [rng.choice("xy") for _ in range(rng.randint(1, 5))]
        v = [rng.choice("xy") for _ in range(rng.randint(0, 5))]
        if i % 2:
            v = list(u)
            v.insert(rng.randrange(len(v)), rng.choice("xy"))
        idents.append(Identity(Word(u), Word(v)))
    verdicts = collections.Counter()
    for ident in idents:
        got = satisfies(M, ident)
        want = _brute_satisfies(M, ident)
        assert (got.holds, got.witness, got.lhs_value, got.rhs_value) == want, str(ident)
        assert got.checked == M.order ** len(ident.variables())
        verdicts[got.holds] += 1
    assert verdicts[True] >= 3 and verdicts[False] >= 20, verdicts


def test_satisfies_budget():
    E1 = catalog("E^1")
    with pytest.raises(BudgetExceededError):
        satisfies(E1, sigma(2), budget=1000)  # 4 variables -> 1296 > 1000
    with pytest.raises(BudgetExceededError):
        satisfies(E1, zimin_identity(9))


def _seeded_identities(seed, count):
    """Identities over 0-4 variables: half with v a one-letter edit of u
    (swap, deletion or duplication), which often hold in M(W); half with
    an independent v."""
    rng = random.Random(seed)
    variables = ["x", "y", "z", "w"]
    out = []
    for i in range(count):
        vs = variables[: i % 5]
        u = [rng.choice(vs) for _ in range(rng.randint(0, 7) if vs else 0)]
        if i % 2 and u:
            v = list(u)
            j = rng.randrange(len(v))
            edit = rng.randrange(3)
            if edit == 0:
                v[j], v[-1] = v[-1], v[j]
            elif edit == 1:
                del v[j]
            else:
                v.insert(j, v[j])
        else:
            v = [rng.choice(vs) for _ in range(rng.randint(0, 7) if vs else 0)]
        out.append(Identity(Word(u), Word(v)))
    return out


def test_factor_key_decision_matches_exhaustive_path():
    # A monoid parsed from its own text is the same table without
    # factor_words, so satisfies runs the exhaustive kernel on it.
    idents = _seeded_identities(20261018, 300)
    for M in (catalog("M(x)"), catalog("M(xyxy)"), catalog("M(xy,yx)"), rees_quotient([])):
        plain = parse_monoid_text(format_monoid_text(M))
        assert M.factor_words is not None and plain.factor_words is None
        verdicts = collections.Counter()
        for ident in idents:
            got, want = satisfies(M, ident), satisfies(plain, ident)
            assert (got.holds, got.witness, got.lhs_value, got.rhs_value, got.checked) == (
                want.holds, want.witness, want.lhs_value, want.rhs_value, want.checked
            ), (M.name, str(ident))
            verdicts[got.holds] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20, (M.name, verdicts)


def test_factor_key_partition_matches_value_vectors():
    # Equal partitions of every word of length <= 6 over x, y, z: the
    # factor keys and the value vectors over all 3^n assignments agree on
    # every pair of words, those with different contents included.
    variables = ("x", "y", "z")
    words = [Word(t) for ell in range(7) for t in itertools.product(variables, repeat=ell)]

    def partition(label):
        classes = collections.defaultdict(set)
        for word in words:
            classes[label(word)].add(word)
        return {frozenset(c) for c in classes.values()}

    # In M(x y^2) the factor y^2 is no prefix of the word even after
    # renaming letters, so a key that only embedded into prefixes would
    # wrongly make x^2 = x^3 hold there.
    for name in ("M()", "M(1)", "M(x)", "M(xy)", "M(xyx)", "M(xyxy)", "M(xy,yx)", "M(xyx,yy)",
                 "M(xyy)"):
        M = catalog(name)
        space, texts = _AssignmentSpace(M, variables), _factor_texts(M)

        def key_label(word):
            content, pairs = _factor_key(texts, word)
            return content, frozenset(pairs)

        by_key = partition(key_label)
        by_values = partition(lambda word: space.values(word).tobytes())
        assert by_key == by_values, name
        assert 1 < len(by_key) < len(words), name


def test_early_exit_key_comparison_matches_full_keys():
    # _has_factor_key stops at a content mismatch or at the first pair the
    # key lacks; on every word of length <= 5 over x, y, z it must agree
    # with comparing the two keys in full, against references drawn from
    # classes with several words (so both answers occur).
    variables = ("x", "y", "z")
    words = [Word(t) for ell in range(6) for t in itertools.product(variables, repeat=ell)]
    rng = random.Random(20261019)
    for name in ("M()", "M(x)", "M(xy)", "M(xyxy)", "M(xy,yx)", "M(xyx,yy)", "M(xyy)"):
        texts = _factor_texts(catalog(name))
        keys = [_factor_key(texts, word) for word in words]
        classes = collections.defaultdict(list)
        for word, (content, pairs) in zip(words, keys):
            classes[content, frozenset(pairs)].append(word)
        shared = [ws for ws in classes.values() if len(ws) > 1]
        answers = collections.Counter()
        for ref in rng.sample(sorted(min(ws) for ws in shared), min(8, len(shared))):
            ref_key = _factor_key(texts, ref)
            for word, key in zip(words, keys):
                got = _has_factor_key(texts, word, ref_key)
                assert got == (key == ref_key), (name, str(ref), str(word))
                answers[got] += 1
        assert answers[True] > 0 and answers[False] > 0, name


#: The catalog monoids that satisfy every rule of E1_BASIS, as in
#: tests/test_deduction.py.
BASIS_MODELS = (
    "Z1", "N2^1", "B0^1", "I^1", "J^1", "L2^1", "Q^1", "E^1", "M(x)", "M(xy)",
)


def _shared_separator_pair(rng: random.Random) -> Identity:
    """A canonical pair with 3-5 separators h1.. between square blocks over
    a, b, c, where v redraws or shuffles one block of u, so every separator
    lies in the shared prefix or suffix; a further redrawn block (one pair
    in four) takes the separators between the two out of them."""
    nsep = rng.randint(3, 5)
    blocks = [rng.sample("abc", rng.choice((0, 1, 1, 2))) for _ in range(nsep + 1)]
    other = [list(b) for b in blocks]
    for _ in range(1 if rng.random() < 0.75 else 2):
        i = rng.randrange(nsep + 1)
        other[i] = rng.sample(blocks[i], len(blocks[i])) if rng.random() < 0.5 else (
            rng.sample("abc", rng.randint(0, 2)))

    def assemble(bs):
        out = []
        for i, block in enumerate(bs):
            if i:
                out.append(f"h{i}")
            for c in block:
                out += [c, c]
        return Word(out)

    return Identity(assemble(blocks), assemble(other))


def _shared_context_pair(rng: random.Random) -> Identity:
    """u = P·X·S and v = P·Y·S for random words P, S over x, y, z and
    h1..h5 and X, Y over x, y, z, h1: letters once in the context, twice in
    it, or also in a middle, in either side."""
    context = ("x", "y", "z", "h1", "h2", "h3", "h4", "h5")

    def draw(letters, most):
        return [rng.choice(letters) for _ in range(rng.randint(0, most))]

    p, s = draw(context, 7), draw(context, 5)
    x, y = draw(context[:4], 3), draw(context[:4], 3)
    return Identity(Word(p + x + s), Word(p + y + s))


def oracle_scan(space, ident):
    """Both whole sides of ``ident`` over every assignment of ``space``:
    the scan of ``satisfies`` before it split off the common prefix and
    suffix, with the witness index decoded by ``np.unravel_index``."""
    lhs = space.values(ident.lhs)
    rhs = space.values(ident.rhs)
    neq = lhs != rhs
    if not neq.any():
        return SatisfactionResult(holds=True, checked=space.total)
    first = int(np.argmax(neq))
    digits = np.unravel_index(first, (space.M.order,) * len(space.variables))
    return SatisfactionResult(
        holds=False,
        witness={v: space.M.elements[int(d)] for v, d in zip(space.variables, digits)},
        lhs_value=space.M.elements[int(lhs[first])],
        rhs_value=space.M.elements[int(rhs[first])],
        checked=space.total,
    )


def _result_fields(res):
    return res.holds, res.witness, res.lhs_value, res.rhs_value, res.checked


def _scan_corpus(rng, letters, count):
    """Identities over ``letters``: equal sides, one empty side, and
    P·X·S = P·Y·S with a context of up to 10 letters on each end or none,
    in turn, plus the empty identity 1 = 1 (k = 0)."""

    def draw(most):
        return [rng.choice(letters) for _ in range(rng.randint(0, most))]

    out = [Identity(EMPTY, EMPTY)]
    while len(out) < count:
        kind = len(out) % 6
        if kind == 0:
            u = v = draw(9)
        elif kind == 1:
            u, v = draw(6), []
        elif kind == 2:
            u, v = [], draw(6)
        else:
            p, s = (draw(10), draw(10)) if kind < 5 else (draw(2), [])
            u, v = p + draw(4) + s, p + draw(4) + s
        out.append(Identity(Word(u), Word(v)))
    return out


def test_scan_matches_whole_side_oracle():
    # The scan evaluates the common prefix A once, continues both middles
    # from it and applies the common suffix B only where the middles
    # differ; satisfies and _by_scan must agree with the whole-side scan in
    # every field.  The corpus must hold sides that agree only after B,
    # and failures whose first differing middle is not the witness: there
    # B masks the middles' first difference.
    rng = random.Random(20261022)
    names = ("Q^1", "L2^1", "E^1", "B0^1", "B2^1", "A2^1", "M(xyxy)", "M(xy)", "S3", "Z3",
             "I^1", "J^1", "R2^1", "P2^1")
    groups = [(catalog(name), "xyzw", 150) for name in names]
    groups.append((direct_product(catalog("E^1"), catalog("Z3")), "xyz", 150))
    big = direct_product(direct_product(catalog("M(xyxy)"), catalog("M(xyx)")), catalog("M(xy)"))
    assert big.order == 315  # uint16 table
    groups.append((big, "xy", 30))
    seen = collections.Counter()
    for M, letters, count in groups:
        for ident in _scan_corpus(rng, letters, count):
            space = _AssignmentSpace(M, sorted(ident.variables()))
            split = _linear_split(ident)
            want = oracle_scan(space, ident)
            assert _result_fields(_by_scan(space, split)) == _result_fields(want), (M.name, str(ident))
            assert _result_fields(satisfies(M, ident)) == _result_fields(want), (M.name, str(ident))
            seen["holds" if want.holds else "fails"] += 1
            if ident.lhs == ident.rhs:
                continue
            middles = (space.values(split.prefix * split.lhs)
                       != space.values(split.prefix * split.rhs))
            if want.holds and middles.any():
                seen["agree only after B"] += 1
            if not want.holds and space.assignment(int(np.argmax(middles))) != want.witness:
                seen["B masks the first difference"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_equal_sides_hold_at_once(monkeypatch):
    # Two equal sides hold with checked = n^k before any path runs, M(W)'s
    # factor keys included; k = 0 is 1 = 1.
    def no_path(*args):
        raise AssertionError("a path ran on equal sides")

    for name in ("_by_scan", "_by_elimination", "_linear_split", "_factor_key"):
        monkeypatch.setattr(equations, name, no_path)
    w = parse_word("x y^2 z x h1 y")
    for M, ident, total in ((catalog("E^1"), Identity(w, w), 6 ** 4),
                            (catalog("M(xyxy)"), Identity(w, w), 9 ** 4),
                            (catalog("M(xyxy)"), Identity(EMPTY, EMPTY), 1)):
        assert _result_fields(satisfies(M, ident)) == (True, None, None, None, total)


def test_equal_sides_still_check_the_budget():
    w = parse_word("x y z t x")
    with pytest.raises(BudgetExceededError):
        satisfies(catalog("E^1"), Identity(w, w), budget=1000)  # 6^4 = 1296 > 1000


def test_elimination_matches_exhaustive_scan():
    # Linear-letter elimination against the whole-side scan, called
    # directly whatever the number of linear letters, so sigma(1), sigma(2)
    # and sigma_infinity (one or two linear letters) are covered too.
    # The 18-element product drawn last runs the witness loop at
    # 17 <= n <= 256, where a fixed letter's index times n can pass 255,
    # the most a uint8 holds: x y z = z x y fixes y to (1,e), index 15,
    # before its last pass (15·18 = 270).
    cases = [(catalog(m), sigma(n)) for n in range(1, 7) for m in BASIS_MODELS]
    cases += [(catalog(m), sigma_infinity()) for m in BASIS_MODELS]
    rng = random.Random(20261020)
    product = direct_product(catalog("E^1"), catalog("Z3"))
    while len(cases) < 70 + 500 + 60:
        draw = _shared_separator_pair if len(cases) % 5 < 3 else _shared_context_pair
        ident = draw(rng)
        M = catalog(rng.choice(BASIS_MODELS)) if len(cases) < 70 + 500 else product
        if M.order ** len(ident.variables()) <= 300_000:
            cases.append((M, ident))
    cases.append((product, parse_identity("x y z = z x y")))
    verdicts = collections.Counter()
    linear_sizes = collections.Counter()
    for M, ident in cases:
        m = M.name
        space = _AssignmentSpace(M, sorted(ident.variables()))
        split = _linear_split(ident)
        got, want = _by_elimination(space, ident, split), oracle_scan(space, ident)
        assert (got.holds, got.witness, got.lhs_value, got.rhs_value, got.checked) == (
            want.holds, want.witness, want.lhs_value, want.rhs_value, want.checked
        ), (m, str(ident))
        assert satisfies(M, ident) == want, (m, str(ident))
        if not got.holds:
            assert got.lhs_value == evaluate(M, ident.lhs, got.witness)
            assert got.rhs_value == evaluate(M, ident.rhs, got.witness)
            assert got.lhs_value != got.rhs_value
        verdicts[got.holds] += 1
        linear_sizes[min(len(split.linear), 3)] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts
    assert linear_sizes[3] >= 250 and linear_sizes[0] + linear_sizes[1] + linear_sizes[2] >= 50


def test_linear_split():
    split = _linear_split(sigma(3))
    assert split.prefix == parse_word("x^2 h1 y^2 h2 x^2 h3")
    assert (split.lhs, split.rhs, split.suffix) == (
        parse_word("x^2 y^2"), parse_word("y^2 x^2"), EMPTY)
    assert split.linear == {"h1", "h2", "h3"}
    # z occurs twice in the prefix; h once in each side but also in the
    # middle of v; t once in each side, in the suffix.
    split = _linear_split(parse_identity("z h z x y t = z h z y h t"))
    assert (split.prefix, split.suffix) == (parse_word("z h z"), parse_word("t"))
    assert split.linear == {"t"}


def test_factor_key_on_the_two_element_quotient():
    # rees_quotient([]) is {1, 0}: no word of W has a nonempty factor, yet
    # x = 1 fails (x -> 0).
    M = rees_quotient([])
    assert M.elements == ("1", "0")
    res = satisfies(M, parse_identity("x = 1"))
    assert not res.holds and res.witness == {"x": "0"}
    assert satisfies(M, parse_identity("x y = y x^2")).holds


def zimin_identity(n):
    # an identity with n variables, just to exceed the default budget
    w = zimin(n)
    return Identity(w, w * w)


def test_close_under_deletion():
    # deleting h from the limit identity leaves x^2y^2x^2y^2 = x^2y^2y^2x^2;
    # deleting x or y (or more) gives only trivial identities
    got = close_under_deletion(sigma_infinity())
    assert got == [
        parse_identity("x^2 y^2 x^2 y^2 = x^2 y^2 y^2 x^2"),
        sigma_infinity(),
    ]
    # swapped-side duplicates collapse
    ab = parse_identity("x y = y x")
    ba = parse_identity("y x = x y")
    assert close_under_deletion([ab, ba]) == [ab]


# ---------------------------------------------------------------------------
# rel_free
# ---------------------------------------------------------------------------


def test_rel_free_small():
    rf = rel_free(catalog("M(x)"), 1)
    assert rf.complete and rf.size == 3
    assert [str(w) for w in rf.representative_words()] == ["1", "x1", "x1^2"]
    assert rf.state_of(parse_word("x1^5")) == rf.state_of(parse_word("x1^2"))

    rf2 = rel_free(catalog("M(xyxy)"), 2)
    assert rf2.complete and rf2.size == 21

    rfq = rel_free(catalog("Q^1"), 2)
    assert rfq.complete and rfq.size == 14


def _brute_relfree(M, k):
    variables = [f"x{i + 1}" for i in range(k)]
    combos = list(itertools.product(M.elements, repeat=k))

    def tup(word):
        return tuple(evaluate(M, word, dict(zip(variables, c))) for c in combos)

    seen = {tup(EMPTY): EMPTY}
    frontier = [EMPTY]
    while frontier:
        new = []
        for w in frontier:
            for v in variables:
                w2 = w * Word((v,))
                t = tup(w2)
                if t not in seen:
                    seen[t] = w2
                    new.append(w2)
        frontier = new
    return seen, tup


def test_rel_free_matches_bruteforce():
    for name, k in (("M(x)", 1), ("N2^1", 2), ("Z3", 2), ("M(xy)", 2), ("B2^1", 2), ("M(xyx)", 2)):
        M = catalog(name)
        rf = rel_free(M, k)
        brute, tup = _brute_relfree(M, k)
        assert rf.complete
        assert rf.size == len(brute)
        # representatives are the shortlex-least words of their classes
        brute_reps = sorted(brute.values())
        ours = sorted(rf.representative_words())
        assert ours == brute_reps
        # every transition leads to the class of word(s)·x_j
        for s in range(rf.size):
            for j, g in enumerate(rf.generators):
                target = brute[tup(rf.word_of(s) * Word((g,)))]
                assert rf.word_of(int(rf.transitions[s, j])) == target, (name, s, g)


def oracle_rel_free(M, k, *, max_states=300_000, max_dim=20_000, track=None, track_images=None):
    """``rel_free`` before it looked transitions up: the dense BFS, which
    takes the tuple product of every (state, generator) pair and keeps a
    second copy of every tuple in a list."""
    e = M.require_identity()
    n = M.order
    dim = n ** k
    if dim > max_dim:
        raise RelFreeCapExceeded(f"{dim} > max_dim {max_dim}")
    gen_names = tuple(f"x{i + 1}" for i in range(k))
    # Its own columns and row-major table, so it shares no layout with the
    # kernel it checks.
    gen_cols = list(np.indices((n,) * k, dtype=np.int32).reshape(k, dim))
    flat = M.table.reshape(-1)

    tracked = None
    images = None
    if track is not None:
        images = [track.index(lbl) for lbl in track_images]
        tracked = [track.identity]

    root = np.full(dim, e, dtype=np.uint8)
    vectors = [root]
    index = {root.tobytes(): 0}
    parent = [-1]
    parent_letter = [-1]
    transitions = [[-1] * k]
    clash = None
    complete = True

    head = 0
    while clash is None and head < len(vectors):
        cur = vectors[head]
        cur32 = cur.astype(np.int32) * n
        for j in range(k):
            nxt = flat[cur32 + gen_cols[j]].astype(np.uint8)
            key = nxt.tobytes()
            found = index.get(key)
            if found is None:
                if len(vectors) >= max_states:
                    complete = False
                    continue
                idx = len(vectors)
                index[key] = idx
                vectors.append(nxt)
                parent.append(head)
                parent_letter.append(j)
                transitions.append([-1] * k)
                transitions[head][j] = idx
                if tracked is not None:
                    tracked.append(int(track.table[tracked[head], images[j]]))
            else:
                transitions[head][j] = found
                if tracked is not None and track.table[tracked[head], images[j]] != tracked[found]:
                    clash = (found, head, j)
                    break
        head += 1

    rf = RelFree(
        base=M,
        generators=gen_names,
        complete=complete and clash is None,
        size=len(vectors),
        transitions=np.array(transitions, dtype=np.int32),
        parent=np.array(parent, dtype=np.int32),
        parent_letter=np.array(parent_letter, dtype=np.int32),
    )
    if clash is not None:
        found, head, j = clash
        rf.conflict = TupleConflict(
            existing_word=rf.word_of(found),
            new_word=rf.word_of(head) * Word((gen_names[j],)),
            existing_value=track.elements[tracked[found]],
            new_value=track.elements[int(track.table[tracked[head], images[j]])],
        )
    return rf


RELFREE_MONOIDS = (
    "N2^1", "N6^1", "B2^1", "B0^1", "A0^1", "A2^1", "I^1", "J^1", "L2^1", "R2^1",
    "P2^1", "Q^1", "E^1", "O^1", "Z2", "Z3", "S3", "M(x)", "M(xy)", "M(xyx)",
    "M(xyxy)", "M(xy,yx)", "M(xyy)", "M(x,y)", "M(xyx,yy)",
)


def _rel_free_fields(rf):
    c = rf.conflict
    return (
        rf.size, rf.complete, rf.transitions.tolist(), rf.parent.tolist(),
        rf.parent_letter.tolist(),
        None if c is None else (c.existing_word, c.new_word, c.existing_value, c.new_value),
    )


def test_rel_free_matches_dense_oracle():
    # Every field of the looked-up BFS against the dense one, uncapped and
    # under caps small enough that lookups meet skipped states (-1), and
    # with tracked values so that conflicts end searches mid-row.  The
    # oracle keeps all n^k assignments, so this also checks that rel_free's
    # zero-free assignments and probes separate the same words.
    default = 300_000
    # Uncapped, S3 has 8 * 3^17 states on 3 generators (4 * 3^5 = 972 on
    # 2) and more on 4, and O^1 has 26,217 on 4: too slow for the oracle.
    too_large = {("S3", 3), ("S3", 4), ("O^1", 4)}
    capped = conflicts = 0
    for name in RELFREE_MONOIDS:
        M = catalog(name)
        for k in range(1, 5):
            if M.order ** k > 1000:
                continue
            for cap in (default, 50, 7):
                if cap == default and (name, k) in too_large:
                    continue
                rf = rel_free(M, k, max_states=cap)
                assert _rel_free_fields(rf) == _rel_free_fields(
                    oracle_rel_free(M, k, max_states=cap)), (name, k, cap)
                capped += not rf.complete
    for a_name in RELFREE_MONOIDS:
        A = catalog(a_name)
        gens = minimal_generating_set(A)
        for b_name in RELFREE_MONOIDS:
            B = catalog(b_name)
            dim = B.order ** len(gens)
            # up to 3000 where B has a proper zero and drops coordinates
            if dim > 300 and not (dim <= 3000 and B.zero_index() not in (None, B.identity)):
                continue
            for cap in (default, 40):
                if cap == default and (b_name, len(gens)) in too_large:
                    continue
                rf = rel_free(B, len(gens), max_states=cap, track=A, track_images=gens)
                assert _rel_free_fields(rf) == _rel_free_fields(oracle_rel_free(
                    B, len(gens), max_states=cap, track=A, track_images=gens,
                )), (a_name, b_name, cap)
                conflicts += rf.conflict is not None
                capped += not rf.complete and rf.conflict is None
    assert capped >= 20 and conflicts >= 20
    # The builds of the relfree benchmark, pinned here as well.
    for name, k, size in (("M(xyx)", 4, 640), ("B0^1", 4, 1148), ("Q^1", 4, 1448),
                          ("A2^1", 3, 10615), ("M(xy)", 5, 872)):
        rf = rel_free(catalog(name), k)
        assert rf.complete and rf.size == size
        assert _rel_free_fields(rf) == _rel_free_fields(oracle_rel_free(catalog(name), k))
    # Where the zero cut keeps the fewest assignments, or none: in M(1) the
    # only zero-free assignment is the identity, so the probes alone tell
    # the 2^k states apart; in {1, g, 0} with g^2 = 1 they tell x1^2 from
    # the empty word; Z1's zero is its identity, so nothing is dropped.
    flip = FiniteMonoid("flip", ("1", "g", "0"), [[0, 1, 2], [1, 0, 2], [2, 2, 2]], 0)
    for M in (catalog("M(1)"), flip, catalog("Z1")):
        for k in range(6):
            for cap in (default, 7):
                rf = rel_free(M, k, max_states=cap)
                assert _rel_free_fields(rf) == _rel_free_fields(
                    oracle_rel_free(M, k, max_states=cap)), (M.name, k, cap)
    assert rel_free(catalog("M(1)"), 5).size == 32
    assert rel_free(flip, 1).size == 3


def _relfree_products():
    """Direct products with a proper zero in every factor (M(1) x M(1)
    keeps probes alone), in one (Z1's zero is its identity; Z2 has none)
    or in none, Z12 x Z12, whose concatenated table (288 entries) is past
    a byte index while each factor's block is uint8, so an offset added in
    uint8 would wrap, and two nested three-factor ones."""
    names = ("M(1)", "Z1", "L2^1", "R2^1", "M(x)", "Z2", "B0^1", "M(xy)", "Q^1", "S3")
    products = [direct_product(catalog(a), catalog(b))
                for a, b in itertools.combinations_with_replacement(names, 2)]
    products.append(direct_product(catalog("Z12"), catalog("Z12")))
    products.append(direct_product(
        direct_product(catalog("L2^1"), catalog("M(x)")), catalog("R2^1")))
    products.append(direct_product(
        catalog("M(1)"), direct_product(catalog("Z2"), catalog("M(1)"))))
    return products


def test_rel_free_on_products_matches_dense_oracle():
    # A direct product keeps each factor's assignments (its own zero cut),
    # but every field must equal the dense BFS over the product's n^k,
    # uncapped, capped and tracked, on each of _relfree_products.
    default = 300_000
    products = _relfree_products()
    assert products[-2].factors == (catalog("L2^1"), catalog("M(x)"), catalog("R2^1"))
    capped = 0
    for P in products:
        for k in range(4):
            if P.order ** k > 2000:
                continue
            for cap in (default, 40, 7):
                # S3's groups grow past the dense oracle's reach uncapped
                if cap == default and "S3" in P.name and k > 1:
                    continue
                rf = rel_free(P, k, max_states=cap)
                assert _rel_free_fields(rf) == _rel_free_fields(
                    oracle_rel_free(P, k, max_states=cap)), (P.name, k, cap)
                capped += not rf.complete
    conflicts = 0
    for a_name in ("L2^1", "R2^1", "B0^1", "Q^1", "M(xy)", "Z3"):
        A = catalog(a_name)
        gens = minimal_generating_set(A)
        for P in products:
            if P.order ** len(gens) > 2000 or "S3" in P.name:
                continue
            for cap in (default, 40):
                rf = rel_free(P, len(gens), max_states=cap, track=A, track_images=gens)
                assert _rel_free_fields(rf) == _rel_free_fields(oracle_rel_free(
                    P, len(gens), max_states=cap, track=A, track_images=gens,
                )), (a_name, P.name, cap)
                conflicts += rf.conflict is not None
    assert capped >= 20 and conflicts >= 20
    # The caps still compare the product's own n^k.
    P = direct_product(catalog("L2^1"), catalog("Q^1"))
    with pytest.raises(RelFreeCapExceeded, match=r"18\^3 = 5832 > max_dim 5000"):
        rel_free(P, 3, max_dim=5000)


def _cold(M):
    """M rebuilt with an empty memo: a fresh instance of the same table and
    provenance, whose factors are rebuilt the same way."""
    factors = None if M.factors is None else tuple(_cold(f) for f in M.factors)
    return FiniteMonoid(M.name, M.elements, M.table.copy(), M.identity,
                        factor_words=M.factor_words, factors=factors)


def oracle_separating_columns(factors, k):
    """``_separating_columns`` before each monoid kept its kernel data:
    every factor's zero, columns and column-major table built afresh on
    every call, shifted and concatenated even for one factor.  Returns
    (table, columns, root, widths)."""
    tables, blocks, offset = [], [], 0
    for f in factors:
        n, e = f.order, f.require_identity()
        z = next((z for z in range(n) if (f.table[z] == z).all() and (f.table[:, z] == z).all()),
                 None)
        cols = np.indices((n,) * k, dtype=np.intp).reshape(k, n ** k) * n
        if z is not None and z != e:
            probes = np.full((k, k), e * n, dtype=np.intp)
            np.fill_diagonal(probes, z * n)
            cols = np.concatenate([cols[:, (cols != z * n).all(axis=0)], probes], axis=1)
        tables.append(np.ascontiguousarray(f.table.T, dtype=np.min_scalar_type(n - 1)).reshape(-1))
        blocks.append(cols + offset)
        offset += n * n
    table = np.concatenate(tables)
    widths = [cols.shape[1] for cols in blocks]
    root = np.repeat(np.array([f.identity for f in factors], dtype=table.dtype), widths)
    return table, np.concatenate(blocks, axis=1), root, widths


def _separating_fields(cut):
    return (cut.table.dtype, cut.table.tolist(), [c.tolist() for c in cut.columns],
            cut.root.dtype, cut.root.tolist(), cut.widths)


def test_memoized_kernel_data_matches_cold_rebuilds():
    # Each monoid keeps its kernel data in its memo.  A warmed instance,
    # whose memo is full, must answer every query exactly as a cold
    # rebuild with an empty memo does, and the separating columns read
    # from the memo must be the uncached oracle's.
    idents = [parse_identity(text) for text in (
        "x y x = y x y", "x^2 y^2 = y^2 x^2", "x y z x = x z y x",
        "a b x y c = a b y x c",  # three linear letters: elimination
    )]
    words = [parse_word(text) for text in ("x y x", "x^2 y", "x y y x")]
    names = ("L2^1", "Q^1", "M(xy)", "Z3")

    def answers(M, others):
        out = []
        for k in range(4):
            if M.order ** k <= 1000:
                out.append(_rel_free_fields(rel_free(M, k, max_states=2000)))
                out.append(_separating_fields(_separating_columns(M.factors or (M,), k)))
        for A in others:
            gens = minimal_generating_set(A)
            if M.order ** len(gens) <= 1000:
                out.append(_rel_free_fields(rel_free(M, len(gens), track=A, track_images=gens)))
        for ident in idents:
            if M.order ** len(ident.variables()) <= 100_000:
                r = satisfies(M, ident)
                out.append((r.holds, r.witness, r.lhs_value, r.rhs_value, r.checked))
        for w in words:
            v = isoterm(M, w, budget=IsotermBudget(max_states=2000))
            out.append((v.kind, v.witness, v.bound, v.details))
        # S3's products make the generator search and member slow.
        if "S3" not in M.name:
            out.append(minimal_generating_set(M))
            for A in others:
                for v in (member(A, M), member(M, A)):
                    out.append((v.kind, v.witness, v.details))
        out.append(M.zero_index())
        return out

    monoids = [catalog(name) for name in RELFREE_MONOIDS] + _relfree_products()
    warm_others = [catalog(name) for name in names]
    verdicts = collections.Counter()
    for M in monoids:
        first = answers(M, warm_others)
        for f in M.factors or (M,):
            assert ("zero_cut", 1) in f._memo, (M.name, f.name)
        cold = _cold(M)
        assert cold == M and cold._memo == {}
        assert answers(M, warm_others) == first == answers(cold, [_cold(A) for A in warm_others]), \
            M.name
        for k in range(4):
            if M.order ** k <= 1000:
                table, columns, root, widths = oracle_separating_columns(M.factors or (M,), k)
                assert _separating_fields(_separating_columns(M.factors or (M,), k)) == (
                    table.dtype, table.tolist(), columns.tolist(), root.dtype, root.tolist(),
                    widths), (M.name, k)
        verdicts.update(entry[0] for entry in first if isinstance(entry, tuple) and entry)
    assert min(verdicts[kind] for kind in (
        "member", "not_member", "not_isoterm", "certified", "bounded_only")) >= 5, verdicts


def test_memo_keeps_no_array_over_max_dim():
    # Per-k kernel data is kept only while n^k <= MAX_DIM.  sigma(5) has 7
    # variables (6^7 assignments over E^1) and is decided by eliminating
    # its linear letters over at most 3 others; the second identity has no
    # linear letter, so it is scanned over all 6^6 > MAX_DIM assignments.
    E1 = catalog("E^1")
    assert not satisfies(E1, sigma(5)).holds
    scanned = satisfies(E1, parse_identity("x y z t u v x y z t u v = y x z t u v x y z t u v"))
    assert scanned.checked == 6 ** 6 > MAX_DIM
    arrays = [a for a in E1._memo.values() if isinstance(a, np.ndarray)]
    assert arrays and max(a.shape[-1] for a in arrays) <= MAX_DIM
    assert not {("positions", 6), ("positions", 7)} & E1._memo.keys()
    # Under the bound the block is kept: B0^1 on 4 generators keeps the
    # 4^4 zero-free assignments and 4 probes of its 5^4.
    B0 = catalog("B0^1")
    rel_free(B0, 4)
    assert B0._memo[("zero_cut", 4)].shape == (4, 4 ** 4 + 4)
    assert B0._memo[("positions", 4)].shape == (4, 5 ** 4)


def test_zero_cut_over_max_dim_stays_int32():
    # Past MAX_DIM the cut is built afresh, so its columns take no more
    # bytes than the full space's.  A factor of at most 16 elements keeps
    # uint8 blocks, memoized or not (the byte index of _Separating.times);
    # a larger one keeps _positions' int32 past MAX_DIM, and only its
    # memoized blocks are widened to native ints.
    for name, k in (("Z3", 10), ("Q^1", 6), ("B0^1", 7), ("Z17", 4), ("Z200", 2)):
        M = catalog(name)
        assert M.order ** k > MAX_DIM
        cut = _separating_columns((M,), k)
        full = _AssignmentSpace(M, [f"x{i}" for i in range(k)]).columns
        assert sum(c.nbytes for c in cut.columns) <= sum(c.nbytes for c in full.values()), name
        assert cut.columns[0].dtype == (np.uint8 if M.order <= 16 else np.int32), name
    assert _separating_columns((catalog("Z3"),), 2).columns[0].dtype == np.uint8
    assert _separating_columns((catalog("Z17"),), 2).columns[0].dtype == np.intp
    # A product keeps int32 when any factor's block is int32: Z6's
    # memoized block is not widened past Z200's.
    cut = _separating_columns((catalog("Z200"), catalog("Z6")), 2)
    assert cut.columns[0].dtype == np.int32
    assert sum(c.nbytes for c in cut.columns) == 2 * 4 * (200 ** 2 + 6 ** 2)


def test_separating_product_matches_take_oracle():
    # _Separating.times translates bytes through the table padded to 256
    # entries when it has at most 256 (Z16 has exactly 256, Z17 is the
    # first above), and gathers otherwise.  Either must equal a native-int
    # gather at the oracle's columns, on seeded values of each factor's
    # own elements and on each factor's last element (the largest index).
    rng = np.random.default_rng(24)
    names = [name + suffix for name in STOCK_PRESENTATIONS for suffix in ("", "^1")]
    names += [f"Z{n}" for n in range(1, 18)] + ["S3", "M(1)", "M(x)", "M(xy)", "M(xyx)",
                                                  "M(xyxy)", "M(xy,yx)", "M(xyx,yy)"]
    monoids = [M for M in map(catalog, names) if M.order <= 17 and M.identity is not None]
    # Tables of 128, 250, 242 and 85 entries, then of 288, 261, 257 and
    # 260, then with an int32 block past MAX_DIM beside a small factor's.
    monoids += [direct_product(catalog(a), catalog(b)) for a, b in (
        ("Z8", "Z8"), ("B0^1", "Z15"), ("Z11", "Z11"), ("Z2", "M(xyxy)"),
        ("Z12", "Z12"), ("Z15", "Z6"), ("Z1", "Z16"), ("Z16", "Z2"),
        ("Z17", "Z2"), ("Z2", "Z216"),
    )]
    seen = collections.Counter()
    for M in monoids:
        factors = M.factors or (M,)
        for k in (1, 2, 3, 4):
            if max(f.order for f in factors) ** k > 100_000:
                continue
            cut = _separating_columns(factors, k)
            table, columns, _, widths = oracle_separating_columns(factors, k)
            assert cut.widths == widths and (cut.lookup is not None) == (len(table) <= 256)
            seen[cut.lookup is not None, max(f.order for f in factors) ** k > MAX_DIM] += 1
            seeded = [rng.integers(0, f.order, w) for f, w in zip(factors, widths)]
            last = [np.full(w, f.order - 1) for f, w in zip(factors, widths)]
            for values in (np.concatenate(seeded), np.concatenate(last)):
                values = values.astype(table.dtype)
                for j in range(k):
                    assert cut.times(cut.columns[j], values.tobytes()) == table.take(
                        columns[j].astype(np.intp) + values).tobytes(), (M.name, k, j)
    assert len(monoids) >= 50 and min(seen.values()) >= 3, seen
    assert _separating_columns((catalog("Z16"),), 1).lookup is not None
    assert _separating_columns((catalog("Z17"),), 1).lookup is None


def test_rel_free_takes_256_elements():
    # element indices 0..255 fit the uint8 evaluation tuples
    rf = rel_free(catalog("Z256"), 1)
    assert rf.complete and rf.size == 256
    assert member(catalog("Z2"), catalog("Z256")).kind == "member"


def test_rel_free_past_256_elements():
    # element indices past 255 are uint16 tuples, the kernel table's dtype
    rf = rel_free(catalog("Z300"), 1)
    assert rf.complete and rf.size == 300
    assert (rf.transitions[:, 0] == (np.arange(300) + 1) % 300).all()
    assert member(catalog("Z3"), catalog("Z300")).kind == "member"
    v = member(catalog("Z7"), catalog("Z300"))
    assert (v.kind, str(v.witness)) == ("not_member", "1 = x1^300")
    # 315 elements, but factor by factor: each factor's tuples are uint8,
    # its own indices (Z300 above keeps the uint16 table covered).  x^3 is
    # 0, so 1, x, x^2, x^3.
    M = direct_product(direct_product(catalog("M(xyxy)"), catalog("M(xyx)")), catalog("M(xy)"))
    rf = rel_free(M, 1)
    assert (rf.complete, rf.size) == (True, 4)
    assert rf.transitions.tolist() == [[1], [2], [3], [3]]
    assert rf.parent.tolist() == [-1, 0, 1, 2]
    assert rf.parent_letter.tolist() == [-1, 0, 0, 0]


def test_rel_free_caps():
    with pytest.raises(RelFreeCapExceeded):
        rel_free(catalog("E^1"), 6, max_dim=1000)  # 6^6 = 46656 > 1000
    # max_dim bounds n^k, not the 4^4 + 4 = 260 assignments the zero cut keeps
    with pytest.raises(RelFreeCapExceeded, match=r"5\^4 = 625 > max_dim 600"):
        rel_free(catalog("B0^1"), 4, max_dim=600)
    v = isoterm(catalog("M(xyxy)"), wn_xyxy(3))
    assert v.details["certifier"] == (
        "skipped: evaluation tuples have dimension 9^6 = 531441 > max_dim 20000")
    rf = rel_free(catalog("B2^1"), 2, max_states=5)
    assert not rf.complete
    assert rf.size == 5


def test_rel_free_conflict_tracking():
    # tracking L2^1 values along Q^1's free monoid exposes the first
    # identity of Q^1's variety that L2^1 fails
    A = catalog("L2^1")
    B = catalog("Q^1")
    rf = rel_free(B, 2, track=A, track_images=minimal_generating_set(A))
    assert rf.conflict is not None
    c = rf.conflict
    ident = Identity(c.existing_word, c.new_word)
    assert satisfies(B, ident).holds
    assert not satisfies(A, ident).holds
    assert c.existing_value != c.new_value


def test_rel_free_conflict_ends_the_search():
    # The first conflict stops the BFS: the automaton is returned as it
    # stood, incomplete, with the conflicting transition already recorded.
    rf = rel_free(catalog("Q^1"), 2, track=catalog("L2^1"), track_images=["a", "b"])
    assert not rf.complete and rf.size == 14
    c = rf.conflict
    assert (c.existing_word, c.existing_value) == (parse_word("x1^2 x2^2"), "a")
    assert (c.new_word, c.new_value) == (parse_word("x2 x1^2 x2"), "b")
    assert rf.transitions.tolist() == [
        [1, 2], [3, 4], [5, 6], [3, 7], [8, 9], [10, 11], [12, 6],
        [8, 13], [8, 13], [13, 9], [10, 13], [-1, -1], [-1, -1], [-1, -1],
    ]
    assert rf.state_of(c.existing_word) == rf.state_of(c.new_word)


# ---------------------------------------------------------------------------
# minimal generating sets and membership
# ---------------------------------------------------------------------------


def test_minimal_generating_set():
    assert minimal_generating_set(catalog("E^1")) == ("a", "b", "c")
    assert minimal_generating_set(catalog("Q^1")) == ("a", "b", "c")
    assert minimal_generating_set(catalog("L2^1")) == ("a", "b")
    assert minimal_generating_set(catalog("B2^1")) == ("a", "b")
    assert minimal_generating_set(catalog("Z1")) == ()
    assert minimal_generating_set(catalog("Z6")) == ("a",)


def oracle_minimal_generating_set(M):
    """The generator search before it started from the required elements:
    every index combination by size, each closed from scratch."""
    e = M.require_identity()
    n = M.order
    candidates = [i for i in range(n) if i != e]

    def generates(combo):
        closed = {e, *combo}
        frontier = list(closed)
        while frontier:
            new = []
            for i in list(closed):
                for j in frontier:
                    for p in (int(M.table[i, j]), int(M.table[j, i])):
                        if p not in closed:
                            closed.add(p)
                            new.append(p)
            frontier = new
        return len(closed) == n

    for size in range(0, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if generates(combo):
                return tuple(M.elements[i] for i in combo)
    raise AssertionError("unreachable: full candidate set always generates")


# Catalog monoids with an identity used across the tests, then groups and
# monoids whose required elements alone do not generate.
_GENERATOR_SEARCH_NAMES = (
    "Q^1", "E^1", "L2^1", "M(x)", "M(xyxy)", "M(xy)", "M(xyx)", "M(x,xy)",
    "M(1)", "B2^1", "N6^1", "N2^1", "Z1", "Z2", "Z21",
    "Z3", "Z4", "Z6", "S3", "A2^1", "O",
)


def test_minimal_generating_set_matches_oracle():
    monoids = {catalog(name) for name in _GENERATOR_SEARCH_NAMES}
    for fig in ("Fig1", "Fig2", "Fig3"):
        for node in load_figure(fig).nodes:
            if node.generators:
                monoids.add(node.generator_monoid())
    assert max(M.order for M in monoids) == 27  # L2^1 x M(x) x R2^1
    for M in sorted(monoids, key=lambda M: (M.order, M.name)):
        assert minimal_generating_set(M) == oracle_minimal_generating_set(M), M.name


def test_member_positive():
    v = member(catalog("M(x)"), catalog("M(xy)"))
    assert v.kind == "member" and bool(v)
    assert v.details["free_monoid_size"] == 3
    # independent route: M(x) embeds into M(xy) as the submonoid on x
    sub = submonoid(catalog("M(xy)"), ["x"])
    assert find_isomorphism(sub, catalog("M(x)")) is not None

    assert member(catalog("Z1"), catalog("M(x)")).kind == "member"
    assert member(catalog("Q^1"), catalog("E^1")).kind == "member"


def test_member_negative_frozen():
    v = member(catalog("L2^1"), catalog("Q^1"))
    assert v.kind == "not_member" and not bool(v)
    assert v.witness == parse_identity("x1^2 x2^2 = x2 x1^2 x2")
    # the witness must hold in Q^1 and fail in L2^1
    assert satisfies(catalog("Q^1"), v.witness).holds
    assert not satisfies(catalog("L2^1"), v.witness).holds
    # the classical separating identity (commuting squares) separates too
    squares = parse_identity("x^2 y^2 = y^2 x^2")
    assert satisfies(catalog("Q^1"), squares).holds
    assert not satisfies(catalog("L2^1"), squares).holds


def test_member_negative_matches_bruteforce():
    # independent route: enumerate short two-variable words, bucket by their
    # full value table in Q^1, and look for a bucket that L2^1 splits
    A = catalog("L2^1")
    B = catalog("Q^1")
    words = []
    for ell in range(0, 5):
        words.extend(Word(t) for t in itertools.product(["x1", "x2"], repeat=ell))
    combos = list(itertools.product(B.elements, repeat=2))
    combos_a = list(itertools.product(A.elements, repeat=2))

    def table(M, w, cs):
        return tuple(evaluate(M, w, {"x1": c[0], "x2": c[1]}) for c in cs)

    buckets = {}
    found = None
    for w in words:
        key = table(B, w, combos)
        if key in buckets:
            w0 = buckets[key]
            if table(A, w, combos_a) != table(A, w0, combos_a):
                found = Identity(w0, w)
                break
        else:
            buckets[key] = w
    assert found is not None
    assert satisfies(B, found).holds and not satisfies(A, found).holds


def test_member_fallback_refutation():
    # max_dim 10 < 6^2 caps rel_free, so the bounded identity search finds
    # the witness (the same one the conflict route finds uncapped)
    v = member(catalog("L2^1"), catalog("Q^1"), max_dim=10)
    assert v.kind == "not_member"
    assert v.witness == parse_identity("x1^2 x2^2 = x2 x1^2 x2")
    assert list(v.details.items()) == [
        ("generators", ["a", "b"]),
        ("relfree", "capped: evaluation tuples have dimension 6^2 = 36 > max_dim 10"),
    ]


def test_member_rechecks_the_fallback_witness(monkeypatch):
    # x1 x2 = x1 x2 holds in L2^1, so it refutes nothing
    monkeypatch.setattr(
        equations, "_bounded_identity_search",
        lambda *args, **kwargs: parse_identity("x1 x2 = x1 x2"),
    )
    with pytest.raises(AssertionError, match="re-verification"):
        member(catalog("L2^1"), catalog("Q^1"), max_dim=10)


def test_member_state_cap_exits():
    # max_states 2 stops rel_free before M(xy)'s three classes on one
    # generator, and the fallback search finds no separating identity
    v = member(catalog("M(x)"), catalog("M(xy)"), max_states=2)
    assert (v.kind, v.witness) == ("unknown", None)
    assert list(v.details.items()) == [("generators", ["x"]), ("relfree", "state cap reached")]
    # max_states 1 stops it at the root; the fallback search refutes
    v = member(catalog("L2^1"), catalog("Q^1"), max_states=1)
    assert v.kind == "not_member"
    assert v.witness == parse_identity("x1^2 x2^2 = x2 x1^2 x2")
    assert list(v.details.items()) == [("generators", ["a", "b"]), ("relfree", "state cap reached")]


def test_member_fallback_budget_exit(monkeypatch):
    # 216^2 > max_dim caps rel_free; the fallback search finds nothing on
    # 1 or 2 variables (Z2 x Z2 lies in Z216's variety) and stops before 3,
    # whose 216^3 substitutions exceed the budget.  The search evaluates
    # through _separating_columns, so a search that ignored the budget
    # would ask it for 3 variables over Z216.
    assert 216 ** 3 > DEFAULT_BUDGET
    separating = equations._separating_columns
    asked = []

    def within_budget(factors, k):
        assert max(f.order for f in factors) ** k <= DEFAULT_BUDGET, \
            "evaluated a space over the budget"
        asked.append(k)
        return separating(factors, k)

    monkeypatch.setattr(equations, "_separating_columns", within_budget)
    v = member(direct_product(catalog("Z2"), catalog("Z2")), catalog("Z216"))
    assert (v.kind, v.witness) == ("unknown", None)
    assert list(v.details.items()) == [
        ("generators", ["(e,a)", "(a,e)"]),
        ("relfree", "capped: evaluation tuples have dimension 216^2 = 46656 > max_dim 20000"),
    ]
    assert asked == [1, 2]


def oracle_bounded_identity_search(A, B):
    """``_bounded_identity_search`` before it walked words by prefix and
    factor by factor: every word evaluated from scratch over the whole
    assignment spaces of A and B."""
    for nvars in range(1, 4):
        variables = [f"x{i+1}" for i in range(nvars)]
        space_b = _AssignmentSpace(B, variables)
        space_a = _AssignmentSpace(A, variables)
        if max(space_b.total, space_a.total) > DEFAULT_BUDGET:
            break
        words: list[Word] = []
        for ell in range(0, 7):
            words.extend(Word(t) for t in itertools.product(variables, repeat=ell))
        buckets: dict[bytes, tuple[Word, bytes]] = {}
        for word in words:
            if len(word.content()) < nvars:
                # only words using every one of x1..x_nvars are paired
                continue
            vb = space_b.values(word).tobytes()
            va = space_a.values(word).tobytes()
            if vb in buckets:
                w0, va0 = buckets[vb]
                if va0 != va:
                    return Identity(w0, word)
            else:
                buckets[vb] = (word, va)
    return None


def test_bounded_identity_search_matches_oracle():
    # Every ordered pair of distinct generator monoids of Fig1-Fig3, the
    # joins (two- and three-factor products) included.
    monoids = {}
    for fig in ("Fig1", "Fig2", "Fig3"):
        for node in load_figure(fig).nodes:
            if node.generators:
                M = node.generator_monoid()
                monoids[M.name] = M
    assert sum(M.factors is not None for M in monoids.values()) >= 6
    witnesses = 0
    for A, B in itertools.permutations(monoids.values(), 2):
        found = _bounded_identity_search(A, B)
        assert found == oracle_bounded_identity_search(A, B), (A.name, B.name)
        witnesses += found is not None
    assert witnesses >= 150


def test_member_reverse_direction():
    v = member(catalog("E^1"), catalog("Q^1"))
    assert v.kind == "not_member"
    assert satisfies(catalog("Q^1"), v.witness).holds
    assert not satisfies(catalog("E^1"), v.witness).holds


# ---------------------------------------------------------------------------
# isoterm
# ---------------------------------------------------------------------------


def oracle_second_word_in_class(rf, target, w):
    """The certifier's class search before it shared one path walker:
    streams two paths when the trimmed automaton is acyclic, extracts
    greedily otherwise.  Returns (word or None, whether it was cyclic)."""
    k = len(rf.generators)
    size = rf.size
    trans = rf.transitions

    rev = [[] for _ in range(size)]
    for s in range(size):
        for j in range(k):
            t = int(trans[s, j])
            if t >= 0:
                rev[t].append(s)
    co = np.zeros(size, dtype=bool)
    stack = [target]
    co[target] = True
    while stack:
        s = stack.pop()
        for p in rev[s]:
            if not co[p]:
                co[p] = True
                stack.append(p)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = np.zeros(size, dtype=np.int8)
    cyclic = False
    for start in range(size):
        if not co[start] or color[start] != WHITE:
            continue
        stack2 = [(start, 0)]
        color[start] = GRAY
        while stack2 and not cyclic:
            s, j = stack2[-1]
            if j == k:
                color[s] = BLACK
                stack2.pop()
                continue
            stack2[-1] = (s, j + 1)
            t = int(trans[s, j])
            if t < 0 or not co[t]:
                continue
            if color[t] == GRAY:
                cyclic = True
            elif color[t] == WHITE:
                color[t] = GRAY
                stack2.append((t, 0))
        if cyclic:
            break

    if not cyclic:
        emitted = []
        path = []
        stack3 = [(0, 0)]
        if target == 0:
            emitted.append(EMPTY)
        while stack3 and len(emitted) < 2:
            s, j = stack3[-1]
            if j == k:
                stack3.pop()
                if path:
                    path.pop()
                continue
            stack3[-1] = (s, j + 1)
            t = int(trans[s, j])
            if t < 0 or not co[t]:
                continue
            path.append(rf.generators[j])
            if t == target:
                emitted.append(Word(path))
                if len(emitted) >= 2:
                    break
            stack3.append((t, 0))
        for cand in emitted:
            if cand != w:
                return cand, False
        return None, False

    src_l, dst_l = [], []
    for s in range(size):
        if not co[s]:
            continue
        for j in range(k):
            t = int(trans[s, j])
            if t >= 0 and co[t]:
                src_l.append(s)
                dst_l.append(t)
    src = np.array(src_l, dtype=np.int64)
    dst = np.array(dst_l, dtype=np.int64)
    max_steps = min(len(w) + 3 * size + 2, 200_000)
    cnt = np.zeros(size, dtype=np.int64)
    cnt[0] = 1
    want = None
    if target == 0 and len(w) != 0:
        want = 0
    ell = 0
    while want is None and ell < max_steps:
        nxt = np.zeros(size, dtype=np.int64)
        np.add.at(nxt, dst, cnt[src])
        cnt = np.minimum(nxt, 4)
        ell += 1
        c = int(cnt[target])
        if c and (ell != len(w) or c >= 2):
            want = ell
    if want is None:
        raise RelFreeCapExceeded("cyclic class scan exceeded step cap")

    reach = np.zeros((want + 1, size), dtype=bool)
    reach[0, target] = True
    for r in range(1, want + 1):
        row = np.zeros(size, dtype=bool)
        np.logical_or.at(row, src, reach[r - 1][dst])
        reach[r] = row

    skip = w.letters if want == len(w) else None
    acc = []
    frames = [(0, 0)]
    while frames:
        s, j = frames[-1]
        r = want - len(acc)
        if r == 0:
            if skip is None or tuple(acc) != skip:
                return Word(acc), True
            frames.pop()
            if acc:
                acc.pop()
            continue
        if j == k:
            frames.pop()
            if acc:
                acc.pop()
            continue
        frames[-1] = (s, j + 1)
        t = int(trans[s, j])
        if t < 0 or not reach[r - 1, t]:
            continue
        acc.append(rf.generators[j])
        frames.append((t, 0))
    return None, True


def test_second_word_in_class_matches_oracle():
    # a commutative nilpotent monoid: ab = ba, a^2 = b^3 = 0, plus identity
    nilpotent = adjoin_identity(from_presentation(
        ("a", "b"), (("ab", "ba"), ("a^2", "0"), ("b^3", "0")), name="C"
    ))
    bases = [catalog(name) for name in (
        "M(1)", "M(x)", "M(xy)", "M(xyx)", "M(xyxy)", "M(x,xy)", "N2^1",
        "N6^1", "Z2", "Z3", "Z4", "Z6", "S3", "Q^1", "L2^1", "R2^1", "B2^1",
        "O", "E^1", "A0^1", "A2^1", "B0^1", "I^1", "J^1", "P2^1",
    )] + [nilpotent]
    outcomes = collections.Counter()
    for M in bases:
        for k, max_len in ((1, 8), (2, 6), (3, 4)):
            if (M.name, k) == ("S3", 3):
                continue  # more than MAX_STATES classes
            rf = rel_free(M, k)
            assert rf.complete
            words_of = collections.defaultdict(list)
            for ell in range(max_len + 1):
                for letters in itertools.product(rf.generators, repeat=ell):
                    words_of[rf.state_of(Word(letters))].append(Word(letters))
            for target, words in words_of.items():
                for w in words[:4]:
                    expected, cyclic = oracle_second_word_in_class(rf, target, w)
                    got = _second_word_in_class(rf, target, w)
                    assert got == expected, (M.name, k, w)
                    if got is not None:
                        assert got != w and rf.state_of(got) == target
                    outcomes[cyclic, got is not None] += 1
    # both branches ran, and each returned a second word and found none
    assert set(outcomes) == {(False, False), (False, True), (True, True)}
    assert sum(outcomes.values()) == 3618


def _built(build):
    """``build()``, or the RelFreeCapExceeded it raised."""
    try:
        return build()
    except RelFreeCapExceeded as exc:
        return exc


def _certifier_outcome(rf, w):
    """The certifier's answer for w on rf, a relatively free monoid or the
    RelFreeCapExceeded its build raised: None (certified), the second word
    of w's class, or the message of a RelFreeCapExceeded exit."""
    if isinstance(rf, RelFreeCapExceeded):
        return str(rf)
    target = rf.state_of(w)
    assert rf.complete and target is not None, w
    try:
        return _second_word_in_class(rf, target, w)
    except RelFreeCapExceeded as exc:
        return str(exc)


def test_pruned_certifier_matches_dense_oracle():
    # The certifier keeps only w's left divisors.  Its oracle is the whole
    # monoid (public rel_free, built once per monoid and k, on x1..xk)
    # read by the same class search.  Every word of length <= 6 over x, y,
    # z must get the same answer, and each kept state must be the whole
    # monoid's state of the same shortlex-least word.
    bases = [catalog(name) for name in ("M(xyxy)", "B2^1", "A2^1", "Q^1", "B0^1")]
    bases.append(direct_product(catalog("B0^1"), catalog("M(xy)")))
    words = [Word(t) for ell in range(7) for t in itertools.product("xyz", repeat=ell)]
    outcomes, answers = collections.Counter(), {}
    for M in bases:
        dense = {}
        # wn_xyxy(2) has 5 letters: where n^5 > MAX_DIM, both exit at once
        for w in words + [wn_xyxy(2)] * (M.order ** 5 > MAX_DIM):
            gens = tuple(sorted(w.content()))
            k = len(gens)
            if k not in dense:
                dense[k] = _built(lambda: rel_free(M, k))
            full = dense[k]
            rename = {c: f"x{i + 1}" for i, c in enumerate(gens)}
            back = {x: c for c, x in rename.items()}
            expected = _certifier_outcome(full, Word(rename[c] for c in w.letters))
            if isinstance(expected, Word):
                expected = Word(back[x] for x in expected.letters)
            rf = _built(lambda: equations._rel_free(M, k, generators=gens, divides=w))
            got = _certifier_outcome(rf, w)
            assert got == expected, (M.name, w)
            if isinstance(got, Word):
                assert got != w and satisfies(M, Identity(w, got)).holds, (M.name, w)
            if isinstance(rf, RelFree):
                assert rf.size <= full.size
                for state in range(rf.size):
                    word = Word(rename[c] for c in rf.word_of(state).letters)
                    assert full.word_of(full.state_of(word)) == word, (M.name, w, state)
            outcomes[type(got).__name__] += 1
            answers[M.name, w] = got
    # certified, a second word and the max_dim exit all occur, and so does
    # the cyclic case: B2^1's class of x y x y is infinite
    assert outcomes == {"NoneType": 321, "Word": 6237, "str": 2}, outcomes
    assert answers["B2^1", parse_word("x y x y")] == parse_word("x y x y x y")


def test_isoterm_not_isoterm_cases():
    v = isoterm(catalog("M(x)"), parse_word("x x"))
    assert v.kind == "not_isoterm"
    assert v.witness == parse_word("x^3")
    assert v.details["phase"] == "perturbations"

    v = isoterm(catalog("Q^1"), parse_word("x^2 y^2"))
    assert v.kind == "not_isoterm"
    assert v.witness == parse_word("x y x y")
    assert satisfies(catalog("Q^1"), Identity(parse_word("x^2 y^2"), v.witness)).holds


def test_isoterm_certified_cases():
    # The whole relatively free monoid on 2 generators, and the states the
    # certifier keeps: w's left divisors, here its prefixes.
    for name, text, free_size, kept in (
        ("M(xy)", "x y", 10, 3),
        ("M(xyx)", "x y x", 12, 4),
        ("M(xyxy)", "x y x y", 21, 5),
    ):
        assert rel_free(catalog(name), 2).size == free_size
        v = isoterm(catalog(name), parse_word(text))
        assert v.kind == "certified", (name, text, v)
        assert v.details["left_divisor_states"] == kept


def test_isoterm_certifier_witness_exit():
    # The exhaustive phase stops at length 5, so only the certifier finds
    # the second word of w's class, (xy)^3 or (yx)^3, and re-checks it.
    # It keeps the 6 left divisors of w: its 5 prefixes and (xy)^2 x.
    for name, text, witness, free_size in (
        ("B2^1", "x y x y", "x y x y x y", 20),
        ("B2^1", "y x y x", "y x y x y x", 20),
        ("A2^1", "x y x y", "x y x y x y", 33),
        ("A2^1", "y x y x", "y x y x y x", 33),
    ):
        M, w = catalog(name), parse_word(text)
        assert rel_free(M, 2).size == free_size
        v = isoterm(M, w)
        assert (v.kind, v.witness) == ("not_isoterm", parse_word(witness)), (name, text)
        assert list(v.details.items()) == [
            ("exhausted_length", 5),
            ("left_divisor_states", 6),
            ("certifier", "class of w contains other words"),
        ]
        assert satisfies(M, Identity(w, v.witness)).holds


def test_isoterm_rechecks_the_certifier_witness(monkeypatch):
    # x y x y = y x y x fails in B2^1 (x=a, y=b gives ab against ba)
    monkeypatch.setattr(
        equations, "_second_word_in_class", lambda *args: parse_word("y x y x")
    )
    with pytest.raises(AssertionError, match="bad witness"):
        isoterm(catalog("B2^1"), parse_word("x y x y"))


def test_isoterm_bounded_only_without_zero():
    # Z3 has no zero, so the certifier cannot run; the short scan finds no
    # witness even though x = x^4 holds (its length exceeds the default
    # scan).  A deeper scan finds it.
    v = isoterm(catalog("Z3"), parse_word("x"))
    assert v.kind == "bounded_only"
    assert v.bound == 2
    assert list(v.details.items()) == [
        ("exhausted_length", 2), ("certifier", "skipped: base monoid has no proper zero"),
    ]
    v = isoterm(catalog("Z3"), parse_word("x"), budget=IsotermBudget(enum_extra_length=3))
    assert v.kind == "not_isoterm"
    assert v.witness == parse_word("x^4")


def test_isoterm_zimin_words():
    for name in ("B2^1", "A2^1"):
        M = catalog(name)
        for n in (1, 2):
            v = isoterm(M, zimin(n))
            assert v.kind == "certified", (name, n, v)


def test_isoterm_anagram_phase():
    M = catalog("M(xyxy)")
    w = wn_xyxy(2)
    v = isoterm(M, w)
    assert v.kind == "not_isoterm"
    assert v.details["phase"] == "anagrams"
    assert v.witness != w
    assert sorted(v.witness.letters) == sorted(w.letters)
    assert satisfies(M, Identity(w, v.witness)).holds


def test_isoterm_family_word_n4_at_default_budget():
    # The north star's third end-to-end number.  Pinned to the output of
    # the exhaustive-key build (about 12 s there); comparing keys with an
    # early exit decides it in well under a second.
    v = isoterm(catalog("M(xyxy)"), wn_xyxy(4))
    assert v.kind == "bounded_only"
    assert v.bound == 6 and v.witness is None
    assert list(v.details.items()) == [
        ("exhausted_length", 6),
        ("certifier", "skipped: evaluation tuples have dimension 9^7 = 4782969 > max_dim 20000"),
    ]


def test_isoterm_state_cap_exit():
    # The certifier keeps 5 states for x y x y, so a cap of 4 stops it.
    v = isoterm(catalog("M(xyxy)"), parse_word("x y x y"), budget=IsotermBudget(max_states=4))
    assert (v.kind, v.bound, v.witness) == ("bounded_only", 5, None)
    assert list(v.details.items()) == [
        ("exhausted_length", 5), ("certifier", "skipped: state cap reached"),
    ]


def test_isoterm_empty_word():
    # k = 0: the empty word is the only candidate of the exhaustive phase
    v = isoterm(catalog("Z3"), EMPTY)
    assert (v.kind, v.bound) == ("bounded_only", 0)
    assert list(v.details.items()) == [
        ("exhausted_length", 0), ("certifier", "skipped: base monoid has no proper zero"),
    ]
    M = catalog("M(xyxy)")
    for enum_words, exhausted in ((200_000, 0), (0, -1)):
        v = isoterm(M, EMPTY, budget=IsotermBudget(enum_words=enum_words))
        assert v.kind == "certified"
        assert list(v.details.items()) == [
            ("exhausted_length", exhausted), ("left_divisor_states", 1),
            ("certifier", "class of w is a singleton"),
        ]
    v = isoterm(M, parse_word("x"), budget=IsotermBudget(enum_words=0))
    assert v.kind == "certified" and v.details["exhausted_length"] == -1


def oracle_same_as(M, variables, w):
    """``_AssignmentSpace.same_as`` before it walked the candidates on the
    separating columns: factor keys on M(W), otherwise each candidate's
    values over all n^k assignments of ``variables``, gathered from scratch
    on M's row-major table."""
    texts = _factor_texts(M)
    if texts is not None:
        key = _factor_key(texts, w)
        return lambda cand: _has_factor_key(texts, cand, key)
    n, k = M.order, len(variables)
    grid = dict(zip(variables, np.indices((n,) * k).reshape(k, n ** k)))

    def values(word):
        acc = np.full(n ** k, M.identity)
        for c in word.letters:
            acc = M.table[acc, grid[c]]
        return acc

    w_values = values(w)
    return lambda cand: np.array_equal(values(cand), w_values)


def test_same_as_matches_full_space_values():
    # Every pair of words of length <= 4 over x, y, z.  The candidates come
    # sorted and then shuffled, so the walk also re-gathers after words
    # that share no prefix with the next.
    words = sorted(Word(t) for ell in range(5) for t in itertools.product("xyz", repeat=ell))
    shuffled = list(words)
    random.Random(22).shuffle(shuffled)
    names = ("Q^1", "E^1", "B2^1", "A2^1", "S3", "Z3", "L2^1", "B0^1", "P2^1")
    monoids = [catalog(name) for name in names]
    monoids += [direct_product(catalog("L2^1"), catalog("Q^1")),
                direct_product(catalog("Z2"), catalog("B0^1"))]
    equal = 0
    for M in monoids:
        space = _AssignmentSpace(M, ("x", "y", "z"))
        for w in words:
            expected = oracle_same_as(M, ("x", "y", "z"), w)
            truth = {cand: expected(cand) for cand in words}
            for order in (words, shuffled):
                same = space.same_as(w)
                assert [same(cand) for cand in order] == [truth[cand] for cand in order], \
                    (M.name, w)
            equal += sum(truth.values())
    assert equal > len(monoids) * len(words)


def oracle_anagram_witness(M, w, budget, equivalent):
    """The anagram phase before it became a lazy stream: collects up to
    4096 surviving rearrangements other than w, then returns the first
    sorted one that ``equivalent`` accepts."""
    counts = w.occurrences()
    letters = sorted(counts)
    if len(letters) < 2:
        return None
    perm_count = math.factorial(len(w))
    for c in counts.values():
        perm_count //= math.factorial(c)
    if perm_count > 200_000:
        return None

    pairs = list(itertools.combinations(letters, 2))
    pair_id = {p: i for i, p in enumerate(pairs)}
    allowed_prefixes = []
    for a, b in pairs:
        same = oracle_same_as(M, (a, b), w.project({a, b}))
        length = counts[a] + counts[b]
        good = []
        for positions in itertools.combinations(range(length), counts[b]):
            pos_set = set(positions)
            arrangement = Word(b if i in pos_set else a for i in range(length))
            if same(arrangement):
                good.append(sum(1 << i for i in positions))
        prefixes = [set() for _ in range(length + 1)]
        low_masks = [(1 << i) - 1 for i in range(length + 1)]
        for mask in good:
            for ell in range(length + 1):
                prefixes[ell].add(mask & low_masks[ell])
        allowed_prefixes.append(prefixes)

    remaining = dict(counts)
    pair_state = {p: (0, 0) for p in pairs}
    prefix = []
    survivors = []
    survivor_cap = 4096

    def rec():
        if len(survivors) >= survivor_cap:
            return True
        if not any(remaining[c] for c in letters):
            cand = Word(prefix)
            if cand != w:
                survivors.append(cand)
            return False
        for c in letters:
            if not remaining[c]:
                continue
            updates = []
            feasible = True
            for p in pairs:
                if c not in p:
                    continue
                cnt, mask = pair_state[p]
                new_mask = mask | (1 << cnt) if c == p[1] else mask
                if new_mask not in allowed_prefixes[pair_id[p]][cnt + 1]:
                    feasible = False
                    break
                updates.append((p, (cnt + 1, new_mask)))
            if not feasible:
                continue
            saved = [(p, pair_state[p]) for p, _ in updates]
            for p, st in updates:
                pair_state[p] = st
            remaining[c] -= 1
            prefix.append(c)
            stop = rec()
            prefix.pop()
            remaining[c] += 1
            for p, st in saved:
                pair_state[p] = st
            if stop:
                return True
        return False

    rec()
    return next(filter(equivalent, sorted(survivors)), None)


def oracle_exhaustive_witness(w, budget, equivalent):
    """The exhaustive phase before its bound was computed up front: scans
    words over content(w) by length, keeping a running count against
    ``enum_words``; returns (witness, largest length fully scanned)."""
    letters = sorted(w.content())
    k = len(letters)
    max_len = min(len(w) + budget.enum_extra_length, budget.small_length)
    bound = -1
    cumulative = 0
    for ell in range(0, max_len + 1):
        count = k ** ell if k else (1 if ell == 0 else 0)
        if count == 0 and ell > 0:
            break
        cumulative += count
        if cumulative > budget.enum_words:
            break
        cands = (Word(t) for t in itertools.product(letters, repeat=ell))
        hit = next(filter(equivalent, cands), None)
        if hit is not None:
            return hit, bound
        bound = ell
    return None, bound


def test_isoterm_budget_fields():
    # The other bounds are fixed: DEFAULT_BUDGET substitutions, 200,000
    # rearrangements in the anagram phase and rel_free's dimension cap
    assert [f.name for f in dataclasses.fields(IsotermBudget)] == [
        "enum_words", "enum_extra_length", "small_length", "max_states",
    ]
    assert IsotermBudget() == IsotermBudget(200_000, 1, 12, 300_000)


def test_anagram_stream_matches_oracle():
    # ``same`` accepts w itself, so a stream that yielded w would differ
    budget = IsotermBudget()
    words = [Word(t) for ell in range(7) for t in itertools.product("xyz", repeat=ell)]
    words += [wn_xyxy(2), wn_xyxy(2, primed=True)]
    hits = 0
    for name in ("M(xyxy)", "M(xyx)", "M(xy,yx)", "Q^1", "E^1", "B2^1"):
        M = catalog(name)
        for w in words:
            same = oracle_same_as(M, sorted(w.content()), w)
            expected = oracle_anagram_witness(M, w, budget, same)
            assert next(filter(same, _anagrams(M, w)), None) == expected, (name, w)
            hits += expected is not None
    assert hits >= 50
    assert isoterm(catalog("M(xyxy)"), wn_xyxy(2)).witness == parse_word("x0 x1 y z x0 x2 y z x1 x2")


def test_anagram_stream_is_the_oracle_survivor_list():
    # Every candidate, in order, up to the 4096 cap: a commutative monoid
    # prunes nothing, so x^4 y^4 z^3 (11,550 rearrangements) hits the cap.
    budget = IsotermBudget()
    sizes = []
    for name, text in (("Z2", "x^4 y^4 z^3"), ("M(xyxy)", "x y x y z"), ("Q^1", "x^2 y^2 z")):
        M, w = catalog(name), parse_word(text)
        survivors = []
        oracle_anagram_witness(M, w, budget, lambda cand: survivors.append(cand) and False)
        assert list(_anagrams(M, w)) == survivors, name
        assert w not in survivors
        sizes.append(len(survivors))
    assert sizes[0] == 4096 and 0 < sizes[1] < 4096 and 0 < sizes[2] < 4096


def test_exhaustive_bound_matches_running_loop():
    never = lambda cand: False  # noqa: E731
    for k in range(0, 5):
        for length in ([0] if k == 0 else range(k, k + 6)):
            w = Word(tuple(f"x{i}" for i in range(k)) + ("x0",) * (length - k))
            for enum_words in (0, 1, 2, 3, 4, 5, 13, 50, 200, 1093, 200_000):
                for extra in (0, 1, 3):
                    for small in (-1, 0, 1, 4, 12):
                        budget = IsotermBudget(
                            enum_words=enum_words, enum_extra_length=extra, small_length=small,
                        )
                        expected = oracle_exhaustive_witness(w, budget, never)[1]
                        assert _exhaustive_bound(k, length, budget) == expected, (k, length, budget)


def test_isoterm_falsifier_matches_oracles():
    # The phases in turn, each from its oracle, against isoterm's verdict
    words = [Word(t) for ell in range(5) for t in itertools.product("xy", repeat=ell)]
    phases = collections.Counter()
    for name in ("Z2", "Z3", "S3", "L2^1", "Q^1", "M(x)", "M(xyx)"):
        M = catalog(name)
        for w in words:
            for budget in (IsotermBudget(), IsotermBudget(enum_extra_length=3),
                           IsotermBudget(enum_words=0), IsotermBudget(enum_words=20)):
                same = oracle_same_as(M, sorted(w.content()), w)

                def equivalent(cand):
                    return cand != w and same(cand)

                v = isoterm(M, w, budget=budget)
                for phase, hit in (
                    ("perturbations", next(filter(equivalent, _perturbations(w)), None)),
                    ("anagrams", oracle_anagram_witness(M, w, budget, equivalent)),
                    ("exhaustive", oracle_exhaustive_witness(w, budget, equivalent)[0]),
                ):
                    if hit is not None:
                        assert (v.kind, v.witness, v.details) == (
                            "not_isoterm", hit, {"phase": phase}), (name, w)
                        break
                else:
                    assert v.details["exhausted_length"] == oracle_exhaustive_witness(
                        w, budget, equivalent)[1], (name, w)
                    phase = v.kind
                phases[phase] += 1
    assert set(phases) >= {"perturbations", "anagrams", "exhaustive", "bounded_only", "certified"}
