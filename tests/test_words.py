"""Tests for monoidlab.words.

Frozen expectations were computed by hand from the family definitions; the
pattern matcher is additionally cross-checked against an independent
brute-force enumerator over image lengths.
"""

from __future__ import annotations

import itertools
import random

import pytest

from monoidlab.words import (
    EMPTY,
    Identity,
    Word,
    WordSyntaxError,
    extend_match,
    format_word,
    format_word_compact,
    ini,
    is_factor,
    match_exact,
    match_pattern,
    occ,
    parse_identity,
    parse_word,
    project,
    sigma,
    sigma_infinity,
    substitute,
    wn_xyxy,
    wn_zimin,
    zimin,
    zimin_decompose,
)


def W(text: str) -> Word:
    return parse_word(text)


# ---------------------------------------------------------------------------
# Basic word operations
# ---------------------------------------------------------------------------


def test_parse_basics():
    assert W("xy^2x").letters == ("x", "y", "y", "x")
    assert W("x^3").letters == ("x", "x", "x")
    assert W("x0^2").letters == ("x0", "x0")
    assert W("x0 y").letters == ("x0", "y")
    assert W("x0.y").letters == ("x0", "y")
    assert W("1").letters == ()
    assert W("x 1 y").letters == ("x", "y")
    assert W("x1").letters == ("x1",)  # a single variable, not x followed by 1


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("x0y")  # multi-char variable inside a run
    with pytest.raises(WordSyntaxError):
        parse_word("x^0")
    with pytest.raises(WordSyntaxError):
        parse_word("")
    with pytest.raises(WordSyntaxError):
        parse_word("X")
    with pytest.raises(WordSyntaxError):
        parse_identity("x = y = z")
    with pytest.raises(WordSyntaxError):
        parse_identity("x y")
    # Exactly one '=' (or one '=='), with a non-blank side on each side.
    for text in ["x = y =", "= x = y", "x = = y", "x === y"]:
        with pytest.raises(WordSyntaxError, match="exactly one '='"):
            parse_identity(text)
    assert parse_identity("x == y") == parse_identity("x = y")


def test_format_roundtrip():
    for text in ["x y^2 x", "1", "x0 x0 y", "h1 x x y y", "a b a b a"]:
        w = W(text)
        assert parse_word(format_word(w)) == w
    assert format_word(W("x x y y h x x y y")) == "x^2 y^2 h x^2 y^2"
    assert format_word(EMPTY) == "1"
    assert format_word_compact(W("x y x y")) == "xyxy"
    assert format_word_compact(W("x0 y x0")) == "x0.y.x0"
    assert parse_word(format_word_compact(W("x0 y x0"))) == W("x0 y x0")


def test_word_algebra():
    u, v = W("x y"), W("y x")
    assert (u * v).letters == ("x", "y", "y", "x")
    assert (u ** 2) == W("x y x y")
    assert u ** 0 == EMPTY
    assert u[0] == "x" and u[1:] == W("y")
    assert sorted([W("y"), W("x"), W("x x"), EMPTY]) == [EMPTY, W("x"), W("y"), W("x x")]


def test_content_occ_ini_simple():
    w = W("x y x z x y")
    assert w.content() == {"x", "y", "z"}
    assert occ(w) == {"x": 3, "y": 2, "z": 1}
    assert ini(w) == W("x y z")
    assert w.is_simple("z") and not w.is_simple("x")


def test_project_substitute_factor():
    w = W("x y x z x y")
    assert project(w, {"x", "z"}) == W("x x z x")
    theta = {"x": W("a b"), "y": EMPTY}
    assert substitute(W("x y x"), theta) == W("a b a b")
    assert is_factor(W("y x z"), w)
    assert not is_factor(W("z y"), w)
    assert is_factor(EMPTY, w)
    assert is_factor(w, w)


# ---------------------------------------------------------------------------
# Word families (hand-frozen values)
# ---------------------------------------------------------------------------


def test_zimin_words():
    assert zimin(1) == W("x1")
    assert zimin(2) == W("x1 x2 x1")
    assert zimin(3) == W("x1 x2 x1 x3 x1 x2 x1")
    for n in range(1, 11):
        z = zimin(n)
        assert len(z) == 2 ** n - 1
        if n > 1:
            prev = zimin(n - 1)
            assert z == prev * W(f"x{n}") * prev


def test_zimin_decomposition_frozen():
    d3 = zimin_decompose(3)
    assert d3.parts == (W("x1"), W("x2"), W("x3 x1"))
    assert d3.tail == W("x1")
    assert d3.reassemble() == zimin(3)

    d4 = zimin_decompose(4)
    assert d4.parts[3] == W("x1 x4 x1 x2 x1")
    assert d4.tail == W("x2 x1")
    assert d4.reassemble() == zimin(4)


def test_zimin_decomposition_invariants():
    for n in range(3, 11):
        d = zimin_decompose(n)
        assert d.reassemble() == zimin(n)
        for i, p in enumerate(d.parts, start=1):
            allowed = {f"x{j}" for j in range(1, i + 1)}
            assert p.content() <= allowed
            assert p.occurrences().get(f"x{i}", 0) == 1
        assert d.tail.content() <= {f"x{j}" for j in range(1, n - 1)}


def test_wn_xyxy_frozen():
    assert wn_xyxy(2) == W("x0 y z x1 x0 x2 x1 y z x2")
    assert wn_xyxy(3) == W("x0 y z x1 x0 x2 x1 x3 x2 y z x3")
    assert wn_xyxy(3, primed=True) == W("x0 z y x1 x0 x2 x1 x3 x2 z y x3")
    for n in range(2, 9):
        assert len(wn_xyxy(n)) == 2 * n + 6
        swap = {"y": W("z"), "z": W("y")}
        assert substitute(wn_xyxy(n), swap) == wn_xyxy(n, primed=True)
    with pytest.raises(ValueError):
        wn_xyxy(1)


def test_wn_zimin_frozen():
    w3 = wn_zimin(3)
    assert w3 == W("x0 h x1 y z x0 x2 x1 x3 y z x2 t x3")
    assert len(w3) == 14
    assert project(w3, {"x0", "h", "x1", "y", "z"}) == W("x0 h x1 y z x0 x1 y z")
    assert project(w3, {"x0", "x1", "x2", "x3", "t"}) == W("x0 x1 x0 x2 x1 x3 x2 t x3")
    for n in range(3, 9):
        assert len(wn_zimin(n)) == 2 * n + 8
        swap = {"y": W("z"), "z": W("y")}
        assert substitute(wn_zimin(n), swap) == wn_zimin(n, primed=True)
    with pytest.raises(ValueError):
        wn_zimin(2)


def test_sigma_family_frozen():
    s1 = sigma(1)
    assert s1.lhs == W("x^2 h1 x^2 y^2") and s1.rhs == W("x^2 h1 y^2 x^2")
    s2 = sigma(2)
    assert s2.lhs == W("x^2 h1 y^2 h2 x^2 y^2")
    assert s2.rhs == W("x^2 h1 y^2 h2 y^2 x^2")
    s3 = sigma(3)
    assert s3.lhs == W("x^2 h1 y^2 h2 x^2 h3 x^2 y^2")
    inf = sigma_infinity()
    assert inf.lhs == W("x^2 y^2 h x^2 y^2") and inf.rhs == W("x^2 y^2 h y^2 x^2")
    assert parse_identity("x^2 y^2 h x^2 y^2 = x^2 y^2 h y^2 x^2") == inf


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


def _theta_key(theta: dict[str, Word]) -> tuple:
    return tuple(sorted((v, w.letters) for v, w in theta.items()))


def _brute_matches(pattern: Word, text: Word, nonempty: bool = False) -> set[tuple]:
    """Independent enumerator: choose image lengths with the occurrence-
    weighted sum bounded by len(text), then all image words over
    content(text); keep substitutions whose instance is a factor."""
    variables = sorted(pattern.content())
    counts = occ(pattern)
    alphabet = sorted(text.content())
    n = len(text)
    minlen = 1 if nonempty else 0
    found: set[tuple] = set()
    if not variables:
        return {()} if is_factor(pattern, text) else set()

    def length_vectors(idx: int, remaining: int):
        if idx == len(variables):
            yield []
            return
        v = variables[idx]
        max_l = remaining // counts[v]
        for l in range(minlen, max_l + 1):
            for rest in length_vectors(idx + 1, remaining - counts[v] * l):
                yield [l] + rest

    for lengths in length_vectors(0, n):
        pools = [itertools.product(alphabet, repeat=l) for l in lengths]
        for images in itertools.product(*pools):
            theta = {v: Word(img) for v, img in zip(variables, images)}
            if is_factor(substitute(pattern, theta), text):
                found.add(_theta_key(theta))
    return found


def test_match_pattern_frozen_square():
    matches = match_pattern(W("x x"), W("a b a b"))
    images = {m["x"] for m in matches}
    assert images == {EMPTY, W("a b")}
    nonempty = match_pattern(W("x x"), W("a b a b"), nonempty=True)
    assert {m["x"] for m in nonempty} == {W("a b")}


def test_match_pattern_two_vars():
    matches = match_pattern(W("x y x"), W("a b a"), nonempty=True)
    keys = {_theta_key(m) for m in matches}
    assert (("x", ("a",)), ("y", ("b",))) in keys
    for m in matches:
        assert is_factor(substitute(W("x y x"), m), W("a b a"))


def test_match_exact():
    solutions = match_exact(W("x y x"), W("a b a b a"))
    keys = {_theta_key(m) for m in solutions}
    # x must be both a prefix and a suffix with 2|x| + |y| = 5
    assert keys == {
        (("x", ()), ("y", ("a", "b", "a", "b", "a"))),
        (("x", ("a",)), ("y", ("b", "a", "b"))),
    }
    for m in solutions:
        assert substitute(W("x y x"), m) == W("a b a b a")


def test_extend_match_seeded_and_bounded():
    text = W("a b a b a").letters

    def solutions(pat, start, end, bindings):
        return [(dict(bindings), stop) for stop in extend_match(pat, text, start, end, bindings)]

    # A seeded variable is a fixed image; y is solved around it.
    bindings = {"x": ("a",)}
    assert solutions(W("x y x").letters, 0, 5, bindings) == [
        ({"x": ("a",), "y": ("b", "a", "b")}, 5)
    ]
    assert bindings == {"x": ("a",)}  # restored
    # Without an end bound every stop counts, shortest images first, and
    # only the given start position is tried.
    bindings = {"x": ("b",)}
    assert solutions(W("y x").letters, 2, None, bindings) == [({"x": ("b",), "y": ("a",)}, 4)]
    bindings = {}
    assert solutions(W("y").letters, 3, None, bindings) == [
        ({"y": ()}, 3), ({"y": ("b",)}, 4), ({"y": ("b", "a")}, 5)
    ]


def test_extend_match_restores_bindings_when_abandoned():
    text = W("a b a b a").letters
    pat = W("x y z x").letters
    seed = {"z": ("b",)}
    # Taken to its first solution and closed: the images bound on the way
    # are removed, and the seeded image stays.
    bindings = dict(seed)
    matches = extend_match(pat, text, 0, None, bindings)
    assert next(matches) == 2
    assert bindings == {"x": (), "y": ("a",), "z": ("b",)}
    matches.close()
    assert bindings == seed
    # Left by break out of a loop, deep in the search: the same.
    bindings = dict(seed)
    stops = []
    for stop in extend_match(pat, text, 0, None, bindings):
        stops.append(stop)
        if bindings["x"]:
            break
    assert stops == [2, 4, 3] and bindings == seed


def oracle_extend_match(pat, txt, start, end, bindings):
    """``extend_match`` before its length bound divided by the variable's
    occurrences: an unbound variable may take every length up to the text
    left after the other letters' bound images, even one whose repeats
    cannot fit."""
    if end is not None:
        txt = txt[:end]
    limit = len(txt)
    npat = len(pat)
    stack = []
    pi, pos = 0, start
    try:
        while True:
            while pi < npat:
                c = pat[pi]
                bound = bindings.get(c)
                if bound is None:
                    longest = limit - pos
                    for d in pat[pi + 1 :]:
                        longest -= len(bindings.get(d, ()))
                    if longest < 0:
                        break
                    bound = bindings[c] = ()
                    stack.append((pi, pos, longest))
                elif txt[pos : pos + len(bound)] != bound:
                    break
                pi, pos = pi + 1, pos + len(bound)
            else:
                if end is None or pos == limit:
                    yield pos
            while stack:
                pi, pos, longest = stack[-1]
                c = pat[pi]
                length = len(bindings[c]) + 1
                if length <= longest:
                    bindings[c] = txt[pos : pos + length]
                    pi, pos = pi + 1, pos + length
                    break
                del bindings[c]
                stack.pop()
            else:
                return
    finally:
        for pi, _, _ in stack:
            del bindings[pat[pi]]


def test_extend_match_matches_unbounded_oracle():
    # Every stop with the bindings it was yielded with, in order, and the
    # bindings left after: seeded patterns with repeated letters, texts,
    # windows and seed images, some of which cannot occur in the text.
    rng = random.Random(20261021)
    solutions = 0
    for _ in range(5000):
        pat = tuple(rng.choice("xyzt"[: rng.randint(1, 4)]) for _ in range(rng.randint(0, 7)))
        txt = tuple(rng.choice("ab") for _ in range(rng.randint(0, 10)))
        start = rng.randint(0, len(txt))
        end = rng.choice([None, rng.randint(start, len(txt))])
        seed = {c: tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
                for c in set(pat) if rng.random() < 0.3}
        runs = []
        for matcher in (extend_match, oracle_extend_match):
            bindings = dict(seed)
            runs.append(([(stop, dict(bindings)) for stop in matcher(pat, txt, start, end, bindings)],
                         bindings))
        assert runs[0] == runs[1], (pat, txt, start, end, seed)
        assert runs[0][1] == seed
        solutions += len(runs[0][0])
    assert solutions > 10_000, solutions


def test_match_pattern_against_brute_force():
    rng = random.Random(20260814)
    pattern_vars = ["x", "y", "z"]
    for _ in range(60):
        plen = rng.randint(1, 5)
        nvars = rng.randint(1, 3)
        pattern = Word(rng.choice(pattern_vars[:nvars]) for _ in range(plen))
        tlen = rng.randint(0, 8)
        text = Word(rng.choice("ab") for _ in range(tlen))
        for nonempty in (False, True):
            got = {_theta_key(m) for m in match_pattern(pattern, text, nonempty=nonempty)}
            want = _brute_matches(pattern, text, nonempty=nonempty)
            assert got == want, (pattern, text, nonempty)


def test_match_results_deterministic_order():
    a = match_pattern(W("x y"), W("a b a"))
    b = match_pattern(W("x y"), W("a b a"))
    assert [_theta_key(m) for m in a] == [_theta_key(m) for m in b]
    assert [_theta_key(m) for m in a] == sorted(_theta_key(m) for m in a)
