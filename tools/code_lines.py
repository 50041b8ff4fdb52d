"""Count the code lines of each module of ``src/monoidlab`` and their total.

A code line is a line that holds a token other than a comment or a
docstring; blank lines do not count.  A docstring is a string literal that
is a whole statement (the first token of its logical line, followed by the
line's end), wherever it stands.  A token that spans several lines, such as
a multi-line string that is part of an expression, counts every line it
spans.

Usage: python tools/code_lines.py [package directory]
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file at ``path``."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in IGNORED]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        starts_line = i == 0 or tokens[i - 1].type in LAYOUT
        ends_line = i + 1 < len(tokens) and tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and starts_line and ends_line:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "monoidlab"
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")


if __name__ == "__main__":
    main(sys.argv)
