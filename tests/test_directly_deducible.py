"""Differential tests of the rule-application engines against the
exhaustive searches they replaced.

``oracle_directly_deducible`` is the former body of
``deduction.directly_deducible``, kept verbatim: it enumerates every
embedding of a rule side into u with ``match_pattern`` and returns the
first one, in (substitution, position) order, that fits the u -> v
context.  The anchored search, which matches the shorter changing side of
each rule direction first (P on u or Q on v), must return the identical
step -- rule, direction, substitution (with its key order), left and right
context -- on every input, including ``None`` when no single step exists.
Seeded random single rules make each order decide many steps (Q first, P
first, a tie), also where the shorter side holds variables the other side
lacks.  ``check_derivation``, which plans each rule direction once per
chain, must return the steps of a fresh ``directly_deducible`` call per
link.

``oracle_successors`` is the first body of ``deduction.successors``: it
enumerates every substitution with ``match_pattern``, then every position
of its image in u.  ``enumerating_successors`` is the body that replaced
it: every embedding of a rule side, matched from each start of u with
``extend_match``.  ``successors`` matches only an anchor: the part of a
rule direction that changes, grown over the context up to the nearest
filler letter on each side (the whole side when it has none), and asks the
rest of the side for one extension; it must return the identical list.  On
the sigma(n) rules the enumeration costs about 10x more per stage, so the
words of ``sigma_step_4`` and ``sigma_step_5`` and the Fig4 search regime
are checked against ``enumerating_successors`` only.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

import pytest

from monoidlab.deduction import (
    E1_BASIS,
    DerivationStep,
    bundled_scripts,
    check_derivation,
    derive_bounded,
    directly_deducible,
    successors,
)
from monoidlab.words import (
    EMPTY,
    Identity,
    Word,
    extend_match,
    match_exact,
    match_pattern,
    parse_identity,
    parse_word,
    sigma,
    sigma_infinity,
)


def _occurrences(text: tuple[str, ...], factor: tuple[str, ...]) -> Iterator[int]:
    n, m = len(text), len(factor)
    for i in range(n - m + 1):
        if text[i : i + m] == factor:
            yield i


def oracle_successors(
    u: Word, rules: Sequence[Identity], *, max_length: int | None = None
) -> list[Word]:
    """All words one rule application away from u, by enumerating every
    (substitution, position) pair; variables only on the replacement side
    map to the empty word."""
    out: set[Word] = set()
    for rule in rules:
        for p, q in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs)):
            for theta in match_pattern(p, u):
                image_p = p.substitute(theta)
                full = {v: theta.get(v, EMPTY) for v in (p.content() | q.content())}
                image_q = q.substitute(full)
                if max_length is not None and len(u) - len(image_p) + len(image_q) > max_length:
                    continue
                for pos in _occurrences(u.letters, image_p.letters):
                    result = Word(u.letters[:pos] + image_q.letters + u.letters[pos + len(image_p):])
                    if result != u:
                        out.add(result)
    return sorted(out)


def enumerating_successors(
    u: Word, rules: Sequence[Identity], *, max_length: int | None = None
) -> list[Word]:
    """All words one rule application away from u, by matching every
    embedding of each rule side from each start of u; variables only on
    the replacement side map to the empty word."""
    ut = u.letters
    out: set[tuple[str, ...]] = set()
    bindings: dict[str, tuple[str, ...]] = {}
    for rule in rules:
        for p, q in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs)):
            for start in range(len(ut) + 1):
                for stop in extend_match(p.letters, ut, start, None, bindings):
                    image = tuple(x for c in q.letters for x in bindings.get(c, ()))
                    if max_length is None or len(ut) - (stop - start) + len(image) <= max_length:
                        out.add(ut[:start] + image + ut[stop:])
    out.discard(ut)
    return [Word(t) for t in sorted(out, key=lambda t: (len(t), t))]


def oracle_directly_deducible(
    u: Word, v: Word, rules: Sequence[Identity]
) -> DerivationStep | None:
    """The first single derivation step turning u into v, or None.

    Deterministic search order: rules in the given order, each used forward
    then backward, substitutions in the sorted order produced by the
    matcher, occurrence positions left to right.  Variables occurring only
    on the replacement side are solved against the target word, so the
    check is exact for arbitrary rules.
    """
    if u == v:
        return None

    for idx, rule in enumerate(rules):
        for forward in (True, False):
            p, q = (rule.lhs, rule.rhs) if forward else (rule.rhs, rule.lhs)
            delta = len(v) - len(u)
            one_sided = q.content() - p.content()
            for theta_p in match_pattern(p, u):
                image_p = p.substitute(theta_p)
                qlen = len(image_p) + delta
                if qlen < 0:
                    continue
                for pos in _occurrences(u.letters, image_p.letters):
                    if v.letters[:pos] != u.letters[:pos]:
                        continue
                    if v.letters[pos + qlen:] != u.letters[pos + len(image_p):]:
                        continue
                    factor = Word(v.letters[pos : pos + qlen])
                    if not one_sided:
                        if q.substitute(theta_p) != factor:
                            continue
                        theta = dict(theta_p)
                    else:
                        theta = None
                        for theta_q in match_exact(q, factor):
                            if all(
                                theta_q[c] == theta_p[c]
                                for c in q.content() & p.content()
                            ):
                                theta = {**theta_p, **theta_q}
                                break
                        if theta is None:
                            continue
                    return DerivationStep(
                        source=u,
                        target=v,
                        rule_index=idx,
                        forward=forward,
                        theta=theta,
                        left=u[:pos],
                        right=u[pos + len(image_p):],
                    )
    return None


COMMUTE = parse_identity("x y = y x")
GROW = parse_identity("x = x z")  # z occurs on one side only
RULE_SETS = (
    E1_BASIS,
    (COMMUTE,),
    (GROW,),
    (sigma(1),),
    E1_BASIS + (COMMUTE, GROW, sigma(1)),
)

#: Scripts too costly for ``oracle_directly_deducible`` and
#: ``oracle_successors``: each lists every embedding of sigma(n) into
#: sigma(n+1), about 10x more per stage (4.5 s and 800 MB at n = 5).  Their
#: steps are pinned to the closed form below, which the oracle confirms for
#: n <= 4; the successors of sigma_step_5's words are checked against
#: ``enumerating_successors`` (about 6 s per word) instead.
ORACLE_TOO_SLOW = ("sigma_step_5", "sigma_step_6", "sigma_step_7", "sigma_step_8")


def _assert_same(u: Word, v: Word, rules: Sequence[Identity]) -> DerivationStep | None:
    got = directly_deducible(u, v, rules)
    want = oracle_directly_deducible(u, v, rules)
    assert got == want, (u, v, rules)
    if want is not None:
        assert list(got.theta) == list(want.theta)
    return got


def _sigma_step_closed_form(n: int) -> dict[str, Word]:
    """The substitution proving sigma(n+1) from sigma(n) in one step: h_n
    absorbs the next square block and separator, all else is fixed."""
    e_next = "x^2" if (n + 1) % 2 else "y^2"
    theta = {"x": parse_word("x")}
    for i in range(1, n + 1):
        theta[f"h{i}"] = parse_word(f"h{i}")
        if i == 1:
            theta["y"] = parse_word("y")
    theta[f"h{n}"] = parse_word(f"h{n} {e_next} h{n + 1}")
    return theta


def test_oracle_agrees_on_bundled_script_links():
    checked = 0
    for name, script in bundled_scripts().items():
        if name in ORACLE_TOO_SLOW:
            continue
        for u, v in zip(script.words, script.words[1:]):
            assert _assert_same(u, v, script.rules) is not None, (name, u, v)
            checked += 1
    assert checked == 58


def test_sigma_steps_closed_form():
    scripts = bundled_scripts()
    for n in range(1, 9):
        script = scripts[f"sigma_step_{n}"]
        u, v = script.words
        if f"sigma_step_{n}" in ORACLE_TOO_SLOW:
            step = directly_deducible(u, v, script.rules)
        else:
            step = _assert_same(u, v, script.rules)
        assert step.rule_index == 0 and step.forward
        assert step.theta == _sigma_step_closed_form(n)
        assert list(step.theta) == list(_sigma_step_closed_form(n))
        assert step.left == EMPTY and step.right == EMPTY


def _random_word(
    rng: random.Random, letters: str = "xyz", lengths: tuple[int, int] = (0, 7)
) -> Word:
    return Word(rng.choice(letters) for _ in range(rng.randint(*lengths)))


# The long corpus gives u and v long common prefixes and suffixes, where
# the open-ended match of a rule side from each start yields many stops
# that end before the common suffix and are discarded.
@pytest.mark.parametrize(
    "seed, pairs, letters, lengths, bounds",
    [
        (20261018, 3000, "xyz", (0, 7), (1000, 2500)),
        (20261020, 200, "xyh", (8, 12), (80, 170)),
    ],
    ids=["short", "long"],
)
def test_oracle_agrees_on_seeded_pairs(seed, pairs, letters, lengths, bounds):
    rng = random.Random(seed)
    found = 0
    for _ in range(pairs):
        rules = rng.choice(RULE_SETS)
        u = _random_word(rng, letters, lengths)
        nearby = successors(u, rules)
        if nearby and rng.random() < 0.7:
            v = rng.choice(nearby)
        else:
            v = _random_word(rng, letters, lengths)
        found += _assert_same(u, v, rules) is not None
    # Both outcomes are well represented.
    low, high = bounds
    assert low < found < high


def _changed_sides(p: Word, q: Word) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """P and Q of p = A·P·B, q = A·Q·B: what is left of each side after
    their longest common prefix, then their longest common suffix."""
    pt, qt = p.letters, q.letters
    a = 0
    while a < min(len(pt), len(qt)) and pt[a] == qt[a]:
        a += 1
    b = 0
    while b < min(len(pt), len(qt)) - a and pt[-1 - b] == qt[-1 - b]:
        b += 1
    return pt[a : len(pt) - b], qt[a : len(qt) - b]


def test_oracle_agrees_on_seeded_random_rules():
    # One random rule per pair, sides of 0-6 letters over xyhz, so that the
    # shorter changed side is Q, P or neither (a tie), and the shorter side
    # often holds variables the other side lacks.
    rng = random.Random(20261023)
    roles = dict.fromkeys(("q_first", "p_first", "tie", "one_sided_shorter"), 0)
    found = 0
    for _ in range(2000):
        sides = [_random_word(rng, "xyhz", (0, 6)) for _ in range(2)]
        rules = (Identity(*sides),)
        u = _random_word(rng, "xyhz", (0, 9))
        nearby = successors(u, rules)
        if nearby and rng.random() < 0.7:
            v = rng.choice(nearby)
        else:
            v = _random_word(rng, "xyhz", (0, 9))
        step = _assert_same(u, v, rules)
        if step is None:
            continue
        found += 1
        p, q = sides if step.forward else sides[::-1]
        p_mid, q_mid = _changed_sides(p, q)
        if len(q_mid) < len(p_mid):
            roles["q_first"] += 1
            roles["one_sided_shorter"] += bool(q.content() - p.content())
        elif len(p_mid) < len(q_mid):
            roles["p_first"] += 1
            roles["one_sided_shorter"] += bool(p.content() - q.content())
        else:
            roles["tie"] += 1
    assert 1000 < found < 1800
    # Every order of the two changed sides decides many steps.
    assert min(roles.values()) > 100, roles


def test_check_derivation_matches_directly_deducible_on_bundled_scripts():
    # check_derivation plans each rule direction once for the whole chain;
    # its steps must be those of a fresh directly_deducible call per link.
    links = 0
    for name, script in bundled_scripts().items():
        words = script.words
        got = check_derivation(words, script.rules)
        want = [directly_deducible(u, v, script.rules) for u, v in zip(words, words[1:])]
        assert got == want, name
        assert [list(s.theta) for s in got] == [list(s.theta) for s in want], name
        links += len(got)
    assert links == 62


def test_empty_source_word():
    step = _assert_same(EMPTY, parse_word("x y"), (GROW,))
    assert step.forward and step.theta == {"x": EMPTY, "z": parse_word("x y")}
    assert step.left == EMPTY and step.right == EMPTY
    assert _assert_same(EMPTY, parse_word("x^2"), E1_BASIS) is None


def test_empty_target_word():
    step = _assert_same(parse_word("x"), EMPTY, (GROW,))
    assert not step.forward and step.theta == {"x": EMPTY, "z": parse_word("x")}


def test_target_is_prefix_or_suffix_of_source():
    step = _assert_same(parse_word("x y x^2"), parse_word("x y x"), E1_BASIS)
    assert step.rule_index == 2 and step.forward
    step = _assert_same(parse_word("x^2 y x"), parse_word("x y x"), E1_BASIS)
    assert step.rule_index == 1 and step.forward
    step = _assert_same(parse_word("x y z x"), parse_word("x y x"), (GROW,))
    assert not step.forward and step.theta == {"x": EMPTY, "z": parse_word("z")}
    assert step.left == parse_word("x y") and step.right == parse_word("x")


def test_common_prefix_and_suffix_overlap():
    # x^2 and x^3 share a prefix and a suffix of length 2 each, together
    # longer than x^2: the common prefix and suffix overlap.
    step = _assert_same(parse_word("x^2"), parse_word("x^3"), E1_BASIS)
    assert step.rule_index == 0 and not step.forward
    assert step.theta == {"x": parse_word("x")}
    step = _assert_same(parse_word("x^3"), parse_word("x^2"), E1_BASIS)
    assert step.rule_index == 0 and step.forward


def test_no_single_step():
    assert _assert_same(parse_word("x^2"), parse_word("y^2"), E1_BASIS) is None
    # The words differ in two places; one commutation fixes only one.
    assert _assert_same(parse_word("x y z"), parse_word("z y x"), (COMMUTE,)) is None
    step = _assert_same(parse_word("x y z"), parse_word("x z y"), (COMMUTE,))
    assert step.theta == {"x": parse_word("y"), "y": parse_word("z")}
    assert step.left == parse_word("x") and step.right == EMPTY


def test_one_sided_variables_ordered_by_name_not_position():
    # z precedes w in the rule but w sorts first, so the least step takes
    # the least image of w (the empty word), not the first split found.
    rules = (parse_identity("x = x z w"),)
    step = _assert_same(parse_word("x"), parse_word("x y z"), rules)
    assert step.theta == {"x": EMPTY, "z": parse_word("y z"), "w": EMPTY}
    assert step.left == parse_word("x") and step.right == EMPTY


def _assert_same_successors(u: Word, rules: Sequence[Identity]) -> int:
    """Compare at every length cap; returns the uncapped successor count."""
    counts = []
    for m in (None, len(u), len(u) + 2):
        got = successors(u, rules, max_length=m)
        assert got == oracle_successors(u, rules, max_length=m), (u, rules, m)
        counts.append(len(got))
    return counts[0]


def test_successors_agree_with_oracle_on_seeded_words():
    rng = random.Random(20261019)
    scripts = bundled_scripts()
    rule_sets = RULE_SETS + tuple(
        s.rules for name, s in scripts.items() if name not in ORACLE_TOO_SLOW
    )
    nonempty = 0
    for i in range(480):
        nonempty += _assert_same_successors(_random_word(rng), rule_sets[i % len(rule_sets)]) > 0
    assert nonempty > 180
    # sigma(5..8) rewrite no word shorter than 8 letters, and the oracle's
    # cost on them grows about 3x per letter (0.6 s at 7 letters), so
    # their rules are checked on short words only.
    for name in ORACLE_TOO_SLOW:
        for _ in range(8):
            u = Word(rng.choice("xyz") for _ in range(rng.randint(0, 4)))
            assert _assert_same_successors(u, scripts[name].rules) == 0


def test_successors_agree_with_oracle_on_bundled_script_words():
    # On sigma_step_4's words the oracle takes about 4 s per length cap.
    too_slow = ("sigma_step_4",) + ORACLE_TOO_SLOW
    checked = 0
    for name, script in bundled_scripts().items():
        if name in too_slow:
            continue
        for u in script.words:
            _assert_same_successors(u, script.rules)
            checked += 1
    assert checked == 65


def _assert_same_as_enumerating(u: Word, rules: Sequence[Identity]) -> int:
    """Compare with ``enumerating_successors`` at caps None, len(u) and
    len(u) + 2; returns the uncapped successor count.  The oracle's cap only
    drops outputs longer than it, so its capped lists are its uncapped one
    filtered by length: one enumeration serves all three caps."""
    want = enumerating_successors(u, rules)
    for m in (None, len(u), len(u) + 2):
        capped = [w for w in want if m is None or len(w) <= m]
        assert successors(u, rules, max_length=m) == capped, (u, rules, m)
    return len(want)


def test_successors_agree_with_enumeration_on_sigma_step_words():
    scripts = bundled_scripts()
    for name in ("sigma_step_4", "sigma_step_5"):
        script = scripts[name]
        for u in script.words:
            # Each word's only successor is the other word of the step.
            assert _assert_same_as_enumerating(u, script.rules) == 1


def test_successors_agree_with_enumeration_in_the_fig4_regime():
    # The searches behind the Fig4 stage edges: words over x, y, h of up to
    # 11 letters under the E^1 basis plus one stage identity.
    rng = random.Random(20261020)
    rule_sets = tuple(E1_BASIS + (sigma(n),) for n in (2, 3, 4))
    nonempty = 0
    for i in range(200):
        u = Word(rng.choice("xyh") for _ in range(rng.randint(0, 11)))
        nonempty += _assert_same_as_enumerating(u, rule_sets[i % 3]) > 0
    assert nonempty > 150


#: Rules whose directions cover the anchor shapes of ``successors``: filler
#: letters (in neither changing part) on one side of the change, on both or
#: on none; an anchor grown over letters that repeat its variables, and a
#: filler past such a letter; a variable of the changing part of q bound
#: inside the grown anchor, or only by the context beyond it.
ANCHOR_RULES = tuple(
    parse_identity(text)
    for text in (
        "h x k y = h x y k",
        "x h y k x = x h z k x",
        "x h g y x = x h g x x",
        "h k x = h k x x",
        "h g x y h = h g y x h",
        "x y h g x = x y h g",
        "h x k x = h k x x",
        "h g = g h",
        "x h y h x = x h x h x",
        "z x = z z",
        "x h x y = x h y x",
    )
)


def test_successors_agree_with_enumeration_on_anchor_rules():
    rng = random.Random(20261021)
    rule_sets = tuple((rule,) for rule in ANCHOR_RULES) + (ANCHOR_RULES, (sigma(1), sigma_infinity()))
    nonempty = 0
    for i in range(600):
        u = Word(rng.choice("xyhz") for _ in range(rng.randint(0, 8)))
        nonempty += _assert_same_as_enumerating(u, rule_sets[i % len(rule_sets)]) > 0
    assert nonempty > 400


def test_successors_agree_with_enumeration_on_random_rules():
    # Rule sides of up to 6 letters over 5 letters: most directions have no
    # filler, so their anchor is the whole side.
    rng = random.Random(20261022)
    nonempty = 0
    for _ in range(600):
        sides = (Word(rng.choice("xyhgz") for _ in range(rng.randint(0, 6))) for _ in range(2))
        u = Word(rng.choice("xyhgz") for _ in range(rng.randint(0, 8)))
        nonempty += _assert_same_as_enumerating(u, (Identity(*sides),)) > 0
    assert nonempty > 400


def test_fig4_stage_searches_unchanged():
    # derive_bounded as lattice._derives_all runs it on the Fig4 stage
    # edges; status, explored count and script captured before successors
    # was anchored.
    cases = (
        (sigma(2), sigma(3), 9, (sigma(3).lhs, sigma(3).rhs)),
        (sigma(3), sigma(4), 10, (sigma(4).lhs, sigma(4).rhs)),
        (
            sigma(3),
            sigma_infinity(),
            383,
            tuple(
                parse_word(w)
                for w in (
                    "x^2 y^2 h x^2 y^2",
                    "x^4 y^2 h x^2 y^2",
                    "x^2 y^2 x^2 h x^2 y^2",
                    "x^2 y^2 x^2 h y^2 x^2",
                    "x^4 y^2 h y^2 x^2",
                    "x^2 y^2 h y^2 x^2",
                )
            ),
        ),
    )
    for lower, upper, explored, words in cases:
        out = derive_bounded(
            upper.lhs,
            upper.rhs,
            E1_BASIS + (lower,),
            max_words=20_000,
            max_length=len(upper.lhs) + 2,
        )
        assert (out.status, out.explored, out.script.words) == ("found", explored, words)
