"""Print a digest of the workbench's verdicts, one line per family.

    python3 tools/verdict_digest.py [--root <checkout>]

Imports ``monoidlab`` from ``<root>/src`` (by default the checkout holding
this script) and prints, for each family of results below, the number of
results and a SHA-256 over their ``repr``s, in a fixed order; the time
each family took goes to stderr.  Run it on two checkouts, each in a
fresh process: equal lines mean that every verdict, witness, count and
detail of that family is identical.

Families:

- ``satisfies``: 3,000 seeded identities over 0-4 variables on each of
  ``SATISFIES_MONOIDS``; a fifth of them have equal sides and half share a
  context (a common prefix and suffix) around their middles.  Then
  ``sigma(1..5)`` on each of ``SIGMA_MONOIDS``.  A ``BudgetExceededError``
  counts as a result, by its message.
- ``isoterm``: every word of length <= 4 over x, y, z on each of
  ``ISOTERM_MONOIDS``, at the default budget.
- ``member``: every ordered pair of distinct ``MEMBER_MONOIDS``, at
  ``max_states=20000``.
- ``relfree``: the builds of ``perfbench/data/relfree_states.json``, as
  size, completeness and the transition, parent and letter arrays.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import pathlib
import random
import sys
import time

SEED = 20261022
SATISFIES_COUNT = 3_000
SATISFIES_MONOIDS = (
    "Q^1", "L2^1", "E^1", "B0^1", "B2^1", "A2^1", "M(xyxy)", "M(xy)", "S3", "Z3",
    "I^1", "J^1", "R2^1", "P2^1",
)
SIGMA_MONOIDS = ("Q^1", "L2^1", "E^1", "B0^1", "B2^1", "M(xyxy)")
ISOTERM_MONOIDS = ("M(xyxy)", "B2^1", "A2^1", "Q^1", "B0^1", "M(xyx)", "E^1", "L2^1", "J^1")
MEMBER_MONOIDS = (
    "L2^1", "R2^1", "Q^1", "B0^1", "B2^1", "A0^1", "A2^1", "E^1", "P2^1", "M(x)", "M(xy)",
    "M(xyx)", "Z2", "Z3", "S3",
)


def identities(seed: int, count: int) -> list:
    """Seeded identities over 0-4 of x, y, z, w: a fifth with equal sides;
    of the rest, half P·X·S = P·Y·S with a random context P, S of up to 6
    letters each, half two independent words of up to 7 letters."""
    from monoidlab.words import Identity, Word

    rng = random.Random(seed)
    out = []
    for i in range(count):
        vs = "xyzw"[: i % 5]

        def draw(most):
            return [rng.choice(vs) for _ in range(rng.randint(0, most))] if vs else []

        if i % 5 == 0:
            u = v = draw(8)
        elif i % 2:
            p, s = draw(6), draw(6)
            u, v = p + draw(3) + s, p + draw(3) + s
        else:
            u, v = draw(7), draw(7)
        out.append(Identity(Word(u), Word(v)))
    return out


def satisfies_family(root: pathlib.Path) -> list:
    from monoidlab.equations import BudgetExceededError, satisfies
    from monoidlab.monoids import catalog
    from monoidlab.words import sigma

    def verdict(M, ident):
        try:
            return satisfies(M, ident)
        except BudgetExceededError as exc:
            return f"BudgetExceededError: {exc}"

    corpus = identities(SEED, SATISFIES_COUNT)
    out = [(name, str(ident), verdict(catalog(name), ident))
           for name in SATISFIES_MONOIDS for ident in corpus]
    out += [(name, f"sigma({n})", verdict(catalog(name), sigma(n)))
            for name in SIGMA_MONOIDS for n in range(1, 6)]
    return out


def isoterm_family(root: pathlib.Path) -> list:
    from monoidlab.equations import isoterm
    from monoidlab.monoids import catalog
    from monoidlab.words import Word

    words = [Word(t) for ell in range(5) for t in itertools.product("xyz", repeat=ell)]
    return [(name, str(w), isoterm(catalog(name), w)) for name in ISOTERM_MONOIDS for w in words]


def member_family(root: pathlib.Path) -> list:
    from monoidlab.equations import member
    from monoidlab.monoids import catalog

    return [(a, b, member(catalog(a), catalog(b), max_states=20_000))
            for a, b in itertools.permutations(MEMBER_MONOIDS, 2)]


def relfree_family(root: pathlib.Path) -> list:
    from monoidlab.equations import rel_free
    from monoidlab.monoids import catalog

    builds = json.loads((root / "perfbench" / "data" / "relfree_states.json").read_text())
    out = []
    for b in builds:
        rf = rel_free(catalog(b["monoid"]), b["k"])
        out.append((b["monoid"], b["k"], rf.size, rf.complete, rf.transitions.tolist(),
                    rf.parent.tolist(), rf.parent_letter.tolist()))
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[1],
                        help="the checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    # Every family imports monoidlab from here on.
    sys.path.insert(0, str(root / "src"))
    import monoidlab

    print(f"monoidlab from {pathlib.Path(monoidlab.__file__).parent}", file=sys.stderr)
    families = [("satisfies", satisfies_family), ("isoterm", isoterm_family),
                ("member", member_family), ("relfree", relfree_family)]
    for name, family in families:
        start = time.perf_counter()
        results = family(root)
        digest = hashlib.sha256()
        for result in results:
            digest.update(repr(result).encode())
            digest.update(b"\n")
        print(f"{name:<10} {len(results):>6} results  sha256 {digest.hexdigest()}")
        print(f"{name}: {time.perf_counter() - start:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
