"""Build the bundled derivation scripts.

Each chain below is written out word by word; ``DerivationScript.check``
re-derives every link mechanically (finding the rule instance and contexts)
and raises if any link is not a single rule application, so a transcription
mistake cannot make it into the package data.

Run from the repository root:  python3 tools/make_scripts.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from monoidlab.deduction import E1_BASIS, DerivationScript, LambdaIdentity
from monoidlab.words import parse_identity, parse_word, sigma, sigma_infinity

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "monoidlab" / "data" / "scripts"

R3A1, R3A2, R3A3, R3B = E1_BASIS
SQUARE_ABSORB = parse_identity("x^2 y^2 x^2 y^2 x^2 = y^2 x^2 y^2 x^2")
MIDDLE_DELETION = parse_identity("x^2 y x^2 z x^2 = x^2 y z x^2")
SQUARED_OCCURRENCE = parse_identity("x^2 y x^4 y x^2 = x^2 y x^2")
DUP_BLOCK = LambdaIdentity((parse_word("x^2"), parse_word("x^2"))).identity()

META = {"origin": "expanded-from-displayed-chain"}


def script(name: str, rules, words) -> DerivationScript:
    s = DerivationScript(
        rules=tuple(rules),
        words=tuple(parse_word(w) if isinstance(w, str) else w for w in words),
        meta=dict(META),
    )
    steps = s.check()
    print(f"{name}: {len(s.words)} words, {len(steps)} steps ok")
    return s


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    scripts: dict[str, DerivationScript] = {}

    scripts["commute_squares"] = script(
        "commute_squares",
        [R3A1, R3A2, R3A3, R3B, SQUARE_ABSORB],
        [
            "y^2 x^2",
            "y^3 x^2",
            "y^4 x^2",
            "y^4 x^3",
            "y^4 x^4",
            "y^2 x^2 y^2 x^2",
            "x^2 y^2 x^2 y^2 x^2",
            "x^2 y^4 x^4",
            "x^4 y^4 x^2",
            "x^6 y^4",
            "x^5 y^4",
            "x^4 y^4",
            "x^3 y^4",
            "x^2 y^4",
            "x^2 y^3",
            "x^2 y^2",
        ],
    )

    scripts["collapse_triple_via_deletion"] = script(
        "collapse_triple_via_deletion",
        [R3A1, R3A2, R3A3, MIDDLE_DELETION],
        [
            "x y x z x",
            "x y x^2 z x",
            "x^2 y x^2 z x",
            "x^2 y x^2 z x^2",
            "x^2 y z x^2",
            "x y z x^2",
            "x y z x",
        ],
    )

    scripts["collapse_triple_via_square"] = script(
        "collapse_triple_via_square",
        [R3A1, R3A2, R3A3, R3B, SQUARED_OCCURRENCE],
        [
            "x y x z x",
            "x y x^2 z x",
            "x^2 y x^2 z x",
            "x^2 y x^2 z x^2",
            "x^2 y x^2 z x^4 y x^2 z x^2",
            "x^2 y^2 x^2 z x^4 y x^2 z x^2",
            "x^2 y^2 x^2 z x^4 y^2 x^2 z x^2",
            "x^2 y^2 x^2 z^2 x^4 y^2 x^2 z x^2",
            "x^2 y^2 x^2 z^2 x^4 y^2 x^2 z^2 x^2",
            "x^2 y^2 x^2 z^2 x^3 y^2 x^2 z^2 x^2",
            "x y^2 x^2 z^2 x^3 y^2 x^2 z^2 x^2",
            "x y^2 x z^2 x^3 y^2 x^2 z^2 x^2",
            "x y^2 x z^2 x^3 y^2 x z^2 x^2",
            "x^2 y^2 z^2 x^3 y^2 x z^2 x^2",
            "x^2 y^2 z^2 x^4 y^2 z^2 x^2",
            "x^2 y z^2 x^4 y^2 z^2 x^2",
            "x^2 y z^2 x^4 y z^2 x^2",
            "x^2 y z x^4 y z^2 x^2",
            "x^2 y z x^4 y z x^2",
            "x^2 y z x^2",
            "x y z x^2",
            "x y z x",
        ],
    )

    scripts["block_collapse"] = script(
        "block_collapse",
        [R3A1, DUP_BLOCK],
        [
            "x^2 h2 x^2 y^2",
            "x^3 h2 x^2 y^2",
            "x^4 h2 x^2 y^2",
            "x^5 h2 x^2 y^2",
            "x^5 h2 y^2 x^2",
            "x^4 h2 y^2 x^2",
            "x^3 h2 y^2 x^2",
            "x^2 h2 y^2 x^2",
        ],
    )

    for n in range(1, 9):
        nxt = sigma(n + 1)
        scripts[f"sigma_step_{n}"] = script(
            f"sigma_step_{n}", [sigma(n)], [nxt.lhs, nxt.rhs]
        )

    lim = sigma_infinity()
    scripts["sigma2_to_limit"] = script(
        "sigma2_to_limit",
        [R3A1, R3A2, R3A3, R3B, sigma(2)],
        [
            "x^2 y^2 h x^2 y^2",
            "x^3 y^2 h x^2 y^2",
            "x^3 y^3 h x^2 y^2",
            "x^3 y^3 h y^2 x^2",
            "x^2 y^3 h y^2 x^2",
            "x^2 y^2 h y^2 x^2",
        ],
    )
    assert scripts["sigma2_to_limit"].identity() == lim

    for name, s in scripts.items():
        path = OUT / f"{name}.json"
        path.write_text(s.to_json() + "\n")
        reread = DerivationScript.from_json(path.read_text())
        assert reread.to_dict() == s.to_dict()
    print(f"wrote {len(scripts)} scripts to {OUT}")


if __name__ == "__main__":
    main()
