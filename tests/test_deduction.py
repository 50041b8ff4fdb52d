"""Tests for derivation steps and chains, bounded derivation search, the
bundled derivation scripts, canonical words, lambda identities, and the
alternating-squares classification.

Frozen expected values were computed once and cross-checked by hand (the
single-step derivation of the limit identity from stage two is re-derived
in a comment).  Semantic property tests cross-check the symbolic machinery
against brute-force identity evaluation on catalog monoids.
"""

from __future__ import annotations

import random

import pytest

from monoidlab.deduction import (
    E1_BASIS,
    CanonicalDecomposition,
    DerivationError,
    DerivationScript,
    LambdaIdentity,
    PREFIX_CHOICES,
    SigmaClass,
    bundled_script,
    bundled_scripts,
    canonical_decomposition,
    check_derivation,
    derive_bounded,
    directly_deducible,
    is_canonical,
    lambda_reduce,
    sigma_classify,
    successors,
    to_canonical,
)
from monoidlab.equations import BudgetExceededError, satisfies
from monoidlab.monoids import catalog
from monoidlab.words import (
    EMPTY,
    Identity,
    Word,
    format_identity,
    parse_identity,
    parse_word,
    sigma,
    sigma_infinity,
    zimin,
)


#: Catalog monoids that satisfy every rule in E1_BASIS, among the stock
#: tables, small cyclic groups, S3, and small factor-word quotients.
BASIS_MODELS = (
    "Z1", "N2^1", "B0^1", "I^1", "J^1", "L2^1", "Q^1", "E^1", "M(x)", "M(xy)",
)

#: Cheap members of BASIS_MODELS used in semantic property tests.
CHEAP_MODELS = ("N2^1", "B0^1", "L2^1", "Q^1", "E^1", "M(xy)")


def _holds(name: str, ident: Identity) -> bool | None:
    """Whether the catalog monoid satisfies the identity; None if the
    substitution space exceeds the default budget."""
    try:
        return satisfies(catalog(name), ident).holds
    except BudgetExceededError:
        return None


def test_e1_basis_frozen():
    assert E1_BASIS == (
        parse_identity("x^3 = x^2"),
        parse_identity("x^2 y x = x y x"),
        parse_identity("x y x^2 = x y x"),
        parse_identity("x y^2 x = x^2 y^2"),
    )


def test_basis_satisfying_catalog_frozen():
    candidates = [
        "Z1", "Z2", "Z3", "Z6", "S3",
        "N2^1", "N6^1", "B2^1", "B0^1", "A0^1", "A2^1", "I^1", "J^1",
        "L2^1", "R2^1", "P2^1", "Q^1", "E^1", "O^1",
        "M(x)", "M(xy)", "M(xyx)",
    ]
    sat = tuple(
        name
        for name in candidates
        if all(satisfies(catalog(name), rule).holds for rule in E1_BASIS)
    )
    assert sat == BASIS_MODELS


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def test_directly_deducible_forward():
    step = directly_deducible(parse_word("x^3"), parse_word("x^2"), E1_BASIS)
    assert step is not None
    assert step.rule_index == 0 and step.forward
    assert step.theta == {"x": parse_word("x")}
    assert step.left == EMPTY and step.right == EMPTY


def test_directly_deducible_backward():
    step = directly_deducible(parse_word("x^2"), parse_word("x^3"), E1_BASIS)
    assert step is not None
    assert step.rule_index == 0 and not step.forward
    assert step.theta == {"x": parse_word("x")}


def test_directly_deducible_in_context():
    step = directly_deducible(
        parse_word("y x^3 y"), parse_word("y x^2 y"), E1_BASIS
    )
    assert step is not None
    assert step.rule_index == 0 and step.forward
    assert step.theta == {"x": parse_word("x")}
    assert step.left == parse_word("y") and step.right == parse_word("y")


def test_directly_deducible_none():
    assert directly_deducible(parse_word("x^2"), parse_word("y^2"), E1_BASIS) is None
    # Equal words are zero steps apart, not one.
    assert directly_deducible(parse_word("x^2"), parse_word("x^2"), E1_BASIS) is None


def test_directly_deducible_replacement_side_variable():
    # The rule grows the word through a variable absent from the matched
    # side; its image is solved against the target word.
    rules = [parse_identity("x = x y")]
    step = directly_deducible(parse_word("x"), parse_word("x z"), rules)
    assert step is not None
    assert step.rule_index == 0 and step.forward
    assert step.theta == {"x": EMPTY, "y": parse_word("z")}
    assert step.left == parse_word("x") and step.right == EMPTY
    assert step.describe(rules) == (
        "x => x z via rule 0 (->) x = x y with [x=1 y=z] in context (x, 1)"
    )


def test_successors_frozen():
    assert successors(parse_word("x^2"), [parse_identity("x^3 = x^2")]) == [
        parse_word("x^3")
    ]
    assert successors(parse_word("x y x"), E1_BASIS) == [
        parse_word("x^2 y x"),
        parse_word("x y x^2"),
    ]
    assert successors(parse_word("x y x"), E1_BASIS, max_length=3) == []


def test_check_derivation_errors():
    with pytest.raises(DerivationError, match="empty"):
        check_derivation([], E1_BASIS)
    with pytest.raises(DerivationError, match="pairwise distinct"):
        check_derivation(
            [parse_word("x^2"), parse_word("x^3"), parse_word("x^2")],
            E1_BASIS,
        )
    with pytest.raises(DerivationError, match="step 0"):
        check_derivation([parse_word("x^2"), parse_word("y^2")], E1_BASIS)
    # A single word is a valid (empty) derivation.
    assert check_derivation([parse_word("x")], E1_BASIS) == []


# ---------------------------------------------------------------------------
# Bounded derivation search
# ---------------------------------------------------------------------------


def test_derive_bounded_limit_from_stage_two():
    # The limit identity follows from stage two in one step: substituting
    # the empty word for the first separator and h for the second turns
    # x^2 h1 y^2 h2 x^2 y^2 = x^2 h1 y^2 h2 y^2 x^2 into
    # x^2 y^2 h x^2 y^2 = x^2 y^2 h y^2 x^2.
    limit = sigma_infinity()
    rules = E1_BASIS + (sigma(2),)
    out = derive_bounded(limit.lhs, limit.rhs, rules)
    assert out and out.status == "found"
    assert out.explored == 8
    assert out.script.words == (limit.lhs, limit.rhs)
    (step,) = out.script.check()
    assert step.rule_index == 4 and step.forward
    assert step.theta == {
        "x": parse_word("x"),
        "y": parse_word("y"),
        "h1": EMPTY,
        "h2": parse_word("h"),
    }
    assert step.left == EMPTY and step.right == EMPTY


def test_derive_bounded_space_exhausted():
    # The whole length-6 component of x^2 y^2 under the basis is finite and
    # does not contain y^2 x^2: commuting the squares needs longer words.
    out = derive_bounded(
        parse_word("x^2 y^2"), parse_word("y^2 x^2"), E1_BASIS, max_length=6
    )
    assert not out and out.status == "space_exhausted"
    assert out.explored == 61 and out.script is None


def test_derive_bounded_cap_reached():
    out = derive_bounded(
        parse_word("x^2 y^2"),
        parse_word("y^2 x^2"),
        E1_BASIS,
        max_length=6,
        max_words=60,
    )
    assert not out and out.status == "cap_reached"
    assert out.explored == 60 and out.script is None


def test_derive_bounded_commute_squares_found():
    # Under the bare basis the squares only commute through words longer
    # than 12 letters; the bundled script's helper rule brings the search
    # well within reach.
    script = bundled_scripts()["commute_squares"]
    out = derive_bounded(
        parse_word("x^2 y^2"), parse_word("y^2 x^2"), script.rules, max_length=10
    )
    assert out.status == "found"
    assert out.explored == 1247
    assert out.script.identity() == parse_identity("x^2 y^2 = y^2 x^2")
    # check() already ran inside derive_bounded; the chain is a real proof.
    assert len(out.script.words) == 13


def test_derive_bounded_argument_errors():
    with pytest.raises(DerivationError, match="differ"):
        derive_bounded(parse_word("x"), parse_word("x"), E1_BASIS)
    with pytest.raises(DerivationError, match="max_length"):
        derive_bounded(parse_word("x^9"), parse_word("x^2"), E1_BASIS, max_length=4)


# ---------------------------------------------------------------------------
# Bundled scripts
# ---------------------------------------------------------------------------


def test_bundled_scripts_verify_and_endpoints():
    scripts = bundled_scripts()
    assert sorted(scripts) == [
        "block_collapse",
        "collapse_triple_via_deletion",
        "collapse_triple_via_square",
        "commute_squares",
        "sigma2_to_limit",
        "sigma_step_1",
        "sigma_step_2",
        "sigma_step_3",
        "sigma_step_4",
        "sigma_step_5",
        "sigma_step_6",
        "sigma_step_7",
        "sigma_step_8",
    ]
    endpoints = {
        "block_collapse": (8, "x^2 h2 x^2 y^2 = x^2 h2 y^2 x^2"),
        "collapse_triple_via_deletion": (7, "x y x z x = x y z x"),
        "collapse_triple_via_square": (22, "x y x z x = x y z x"),
        "commute_squares": (16, "y^2 x^2 = x^2 y^2"),
        "sigma2_to_limit": (6, None),
    }
    for name, script in scripts.items():
        steps = script.check()
        assert len(steps) == len(script.words) - 1
        assert script.meta.get("origin")
        if name in endpoints:
            length, ident = endpoints[name]
            assert len(script.words) == length
            if ident is not None:
                assert script.identity() == parse_identity(ident)
    assert scripts["sigma2_to_limit"].identity() == sigma_infinity()
    for n in range(1, 9):
        assert scripts[f"sigma_step_{n}"].identity() == sigma(n + 1)
        assert scripts[f"sigma_step_{n}"].rules == (sigma(n),)


def test_bundled_scripts_sound_on_catalog():
    # A derivation transports satisfaction: any monoid satisfying every
    # rule of a script must satisfy its endpoint identity.
    for name, script in bundled_scripts().items():
        for model in BASIS_MODELS:
            rule_status = [_holds(model, rule) for rule in script.rules]
            if any(s is None for s in rule_status):
                continue
            if not all(rule_status):
                continue
            endpoint = _holds(model, script.identity())
            assert endpoint is None or endpoint, (name, model)


def test_bundled_script_by_name():
    scripts = bundled_scripts()
    for name, script in scripts.items():
        assert bundled_script(name) == script
    assert bundled_script("no_such_script") is None


def test_script_json_roundtrip():
    script = bundled_scripts()["commute_squares"]
    again = DerivationScript.from_json(script.to_json())
    assert again == script
    assert again.check()


# ---------------------------------------------------------------------------
# Canonical words
# ---------------------------------------------------------------------------


def test_canonical_decomposition_frozen():
    dec = canonical_decomposition(parse_word("x^2 h1 x^2 y^2"))
    assert dec == CanonicalDecomposition(
        blocks=(("x",), ("x", "y")), separators=("h1",)
    )
    assert canonical_decomposition(EMPTY) == CanonicalDecomposition(
        blocks=((),), separators=()
    )
    assert canonical_decomposition(parse_word("x y")) == CanonicalDecomposition(
        blocks=((), (), ()), separators=("x", "y")
    )
    for text in ["x^3", "x^4", "y^2 x^2 y^2", "x y x"]:
        assert canonical_decomposition(parse_word(text)) is None
        assert not is_canonical(parse_word(text))
    assert not is_canonical(zimin(2))


def test_canonical_decomposition_roundtrip():
    rng = random.Random(20260814)
    pool = ["a", "b", "c", "d"]
    for _ in range(50):
        nblocks = rng.randint(1, 4)
        blocks = tuple(
            tuple(rng.sample(pool, rng.randint(0, 3))) for _ in range(nblocks)
        )
        separators = tuple(f"h{i}" for i in range(1, nblocks))
        dec = CanonicalDecomposition(blocks=blocks, separators=separators)
        word = dec.word()
        assert canonical_decomposition(word) == dec
        assert is_canonical(word)


def test_to_canonical_frozen():
    found, script = to_canonical(parse_word("x y x"))
    assert found == parse_word("x^2 y x^2")
    assert script.words == (
        parse_word("x y x"),
        parse_word("x^2 y x"),
        parse_word("x^2 y x^2"),
    )
    found, script = to_canonical(parse_word("x^4"))
    assert found == parse_word("x^2")
    assert script.words == (parse_word("x^4"), parse_word("x^3"), parse_word("x^2"))
    found, script = to_canonical(parse_word("x^2 y^2"))
    assert found == parse_word("x^2 y^2")
    assert script.words == (parse_word("x^2 y^2"),)


def test_to_canonical_checks_in_e1_only_for_rules_that_hold_there():
    # x y x = y fails in E^1, so E^1 says nothing about its results: the
    # chain is re-checked against the rule, and the E^1 check is skipped.
    rules = [parse_identity("x y x = y")]
    found, script = to_canonical(parse_word("x y x"), rules=rules)
    assert found == parse_word("y")
    assert script.words == (parse_word("x y x"), parse_word("y"))
    assert script.rules == tuple(rules)
    assert len(script.check()) == 1


def test_to_canonical_unreachable():
    with pytest.raises(DerivationError, match="within bounds"):
        to_canonical(parse_word("x y x"), rules=[])


# ---------------------------------------------------------------------------
# Lambda identities
# ---------------------------------------------------------------------------


def test_lambda_identity_frozen():
    assert LambdaIdentity((parse_word("x^2"),)).identity() == sigma(1)
    lam = LambdaIdentity((parse_word("x^2 y^2"),))
    assert lam.identity() == parse_identity(
        "x^2 y^2 h1 x^2 y^2 = x^2 y^2 h1 y^2 x^2"
    )
    # The limit identity itself uses the separator name h, not h1.
    assert lam.identity() != sigma_infinity()
    with pytest.raises(ValueError):
        LambdaIdentity((parse_word("x y"),))


def test_lambda_identity_from_identity():
    assert LambdaIdentity.from_identity(sigma(3)).prefixes == (
        parse_word("x^2"),
        parse_word("y^2"),
        parse_word("x^2"),
    )
    for prefixes in [
        (),
        (EMPTY, parse_word("x^2")),
        (parse_word("y^2 x^2"), parse_word("x^2")),
    ]:
        lam = LambdaIdentity(tuple(prefixes))
        assert LambdaIdentity.from_identity(lam.identity()) == lam
    with pytest.raises(DerivationError):
        LambdaIdentity.from_identity(parse_identity("x^3 = x^2"))
    with pytest.raises(DerivationError):
        LambdaIdentity.from_identity(parse_identity("x^2 y^2 = x^2 y^2"))


def test_sigma_classify_frozen():
    cases = [
        ((), True, 0),
        (("x^2",), True, 1),
        (("x^2", "y^2"), True, 2),
        (("x^2", "x^2"), True, 1),
        (("1", "x^2"), True, 1),
        (("y^2",), True, 1),
        (("y^2", "x^2"), True, 2),
        (("x^2 y^2",), False, None),
        (("y^2 x^2",), False, None),
        (("x^2", "x^2 y^2", "x^2"), False, None),
    ]
    for prefixes, finite, n in cases:
        lam = LambdaIdentity(tuple(parse_word(p) for p in prefixes))
        assert sigma_classify(lam) == SigmaClass(finite=finite, n=n), prefixes
    assert SigmaClass(finite=True, n=0).identity() == parse_identity(
        "x^2 y^2 = y^2 x^2"
    )
    assert SigmaClass(finite=False, n=None).identity() == sigma_infinity()
    assert SigmaClass(finite=False, n=None).describe() == "limit"
    assert SigmaClass(finite=True, n=3).describe() == "stage 3"


def test_sigma_classify_sigma_roundtrip():
    for n in range(1, 6):
        lam = LambdaIdentity.from_identity(sigma(n))
        assert sigma_classify(lam) == SigmaClass(finite=True, n=n)


def test_sigma_classify_matches_satisfaction():
    # Classification is an equivalence modulo the basis: on any catalog
    # monoid satisfying the basis, a lambda identity and its classified
    # stage identity hold together or fail together.
    rng = random.Random(20260814)
    samples = [LambdaIdentity(())]
    for _ in range(14):
        prefixes = tuple(
            rng.choice(PREFIX_CHOICES) for _ in range(rng.randint(1, 3))
        )
        samples.append(LambdaIdentity(prefixes))
    for lam in samples:
        stage = sigma_classify(lam).identity()
        for model in CHEAP_MODELS:
            assert _holds(model, lam.identity()) == _holds(model, stage), (
                lam,
                model,
            )


# ---------------------------------------------------------------------------
# lambda_reduce
# ---------------------------------------------------------------------------


def test_lambda_reduce_frozen():
    out = lambda_reduce(
        parse_word("x^2 h1 x^2 y^2"), parse_word("x^2 h1 y^2 x^2")
    )
    assert out == [LambdaIdentity((parse_word("y^2"),))]
    assert sigma_classify(out[0]) == SigmaClass(finite=True, n=1)

    out = lambda_reduce(
        parse_word("a^2 b^2 c^2 h1 a^2 b^2 c^2"),
        parse_word("a^2 b^2 c^2 h1 b^2 c^2 a^2"),
    )
    assert out == [LambdaIdentity((parse_word("y^2 x^2"),))]
    assert sigma_classify(out[0]) == SigmaClass(finite=False, n=None)

    assert lambda_reduce(parse_word("x^2 h1 y^2"), parse_word("x^2 h1 y^2")) == []


def test_lambda_reduce_errors():
    with pytest.raises(DerivationError, match="canonical"):
        lambda_reduce(parse_word("x^3"), parse_word("x^2"))
    with pytest.raises(DerivationError, match="separator"):
        lambda_reduce(parse_word("x^2 h1 y^2"), parse_word("x^2 h2 y^2"))
    with pytest.raises(DerivationError, match="content"):
        lambda_reduce(parse_word("x^2 h1 x^2"), parse_word("x^2 h1 y^2"))
    with pytest.raises(DerivationError, match="initial"):
        lambda_reduce(parse_word("x^2 y^2 h1"), parse_word("y^2 x^2 h1"))


def _random_reducible_pair(rng: random.Random) -> tuple[Word, Word]:
    """A pair of canonical words sharing separators, blockwise content, and
    initial parts: a fixed first block containing every letter, then
    shuffled permutations of common block contents."""
    letters = ["a", "b", "c"]
    first = letters[:]
    rng.shuffle(first)
    nlater = rng.randint(1, 2)
    ublocks, vblocks = [tuple(first)], [tuple(first)]
    for _ in range(nlater):
        content = rng.sample(letters, rng.randint(1, 3))
        u_order = content[:]
        v_order = content[:]
        rng.shuffle(u_order)
        rng.shuffle(v_order)
        ublocks.append(tuple(u_order))
        vblocks.append(tuple(v_order))
    separators = tuple(f"h{i}" for i in range(1, len(ublocks)))
    u = CanonicalDecomposition(tuple(ublocks), separators).word()
    v = CanonicalDecomposition(tuple(vblocks), separators).word()
    return u, v


def test_lambda_reduce_semantic_property():
    # The emitted lambda identities carry the same satisfaction content as
    # the original pair, on every basis-satisfying catalog monoid.
    rng = random.Random(20260814)
    for _ in range(12):
        u, v = _random_reducible_pair(rng)
        lams = lambda_reduce(u, v)
        if u == v:
            assert lams == []
            continue
        pair_ident = Identity(u, v)
        for model in CHEAP_MODELS:
            expected = all(_holds(model, lam.identity()) for lam in lams)
            assert _holds(model, pair_ident) == expected, (u, v, model)


def test_lambda_reduce_agrees_with_derivation_search():
    # Spot check: the reduced pair is mechanically derivable from the basis
    # plus the emitted lambda identities.
    u = parse_word("x^2 h1 x^2 y^2")
    v = parse_word("x^2 h1 y^2 x^2")
    lams = lambda_reduce(u, v)
    rules = E1_BASIS + tuple(lam.identity() for lam in lams)
    out = derive_bounded(u, v, rules, max_length=len(u) + 2)
    assert out.status == "found"
