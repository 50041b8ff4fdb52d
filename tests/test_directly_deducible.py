"""Differential tests of the rule-application engines against the
exhaustive searches they replaced.

``oracle_directly_deducible`` is the former body of
``deduction.directly_deducible``, kept verbatim: it enumerates every
embedding of a rule side into u with ``match_pattern`` and returns the
first one, in (substitution, position) order, that fits the u -> v
context.  The anchored search must return the identical step -- rule,
direction, substitution (with its key order), left and right context -- on
every input, including ``None`` when no single step exists.

``oracle_successors`` is the former body of ``deduction.successors``: it
enumerates every substitution with ``match_pattern``, then every position
of its image in u.  ``successors`` matches from each start of u instead
and must return the identical list.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from monoidlab.deduction import (
    E1_BASIS,
    DerivationStep,
    bundled_scripts,
    directly_deducible,
    successors,
)
from monoidlab.words import (
    EMPTY,
    Identity,
    Word,
    match_exact,
    match_pattern,
    parse_identity,
    parse_word,
    sigma,
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

#: Scripts whose single link is too costly for the oracle: it lists every
#: embedding of sigma(n) into sigma(n+1), about 10x more per stage (4.5 s
#: and 800 MB at n = 5).  Their steps are pinned to the closed form below,
#: which the oracle confirms for n <= 4.
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


def _random_word(rng: random.Random) -> Word:
    return Word(rng.choice("xyz") for _ in range(rng.randint(0, 7)))


def test_oracle_agrees_on_seeded_pairs():
    rng = random.Random(20261018)
    found = 0
    for _ in range(3000):
        rules = rng.choice(RULE_SETS)
        u = _random_word(rng)
        nearby = successors(u, rules)
        if nearby and rng.random() < 0.7:
            v = rng.choice(nearby)
        else:
            v = _random_word(rng)
        found += _assert_same(u, v, rules) is not None
    # Both outcomes are well represented.
    assert 1000 < found < 2500


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
