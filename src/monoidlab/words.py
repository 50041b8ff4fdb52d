"""Words over a countable variable alphabet, substitutions, and identities.

A *word* is a finite sequence of variables.  Variable names are a lowercase
ASCII letter optionally followed by digits (``x``, ``y``, ``h12``).  The
empty word is the multiplicative identity of the free monoid and prints as
``1``.  An *identity* is an ordered pair of words, printed ``u = v``.

Text syntax
-----------
``parse_word`` accepts whitespace- or ``.``-separated tokens.  A token is
either a single variable with an optional power (``x``, ``x0``, ``x0^2``) or
a juxtaposed run of single-letter variables with optional powers
(``xy^2x`` means ``x y y x``).  Multi-character variables inside a run are
rejected as ambiguous: write ``x0 y`` or ``x0.y``, never ``x0y`` (which
already names the single variable ``x0y``... and is therefore *one* letter
only if written alone; inside a run it is an error).  The token ``1``
denotes the empty word.

This module also builds the structured word families used elsewhere
(Zimin words and their aligned decompositions, the ``wn_*`` families, and
the ``sigma`` identity family) and enumerates pattern substitutions
(`match_pattern`, `match_exact`, and the seedable core `extend_match`).
``extend_match`` is the one matcher protocol of the package: a generator
that yields the stop of each solution while the bindings dict it was
given holds that solution, and restores the dict when it is exhausted or
closed.  Its clients are plain loops, and one that needs only the first
solution takes it with ``next`` and drops the generator.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Word",
    "Identity",
    "WordSyntaxError",
    "EMPTY",
    "is_variable",
    "content",
    "occ",
    "ini",
    "simple",
    "project",
    "substitute",
    "is_factor",
    "parse_word",
    "format_word",
    "format_word_compact",
    "parse_identity",
    "format_identity",
    "zimin",
    "ZiminDecomposition",
    "zimin_decompose",
    "wn_xyxy",
    "wn_zimin",
    "sigma",
    "sigma_infinity",
    "match_pattern",
    "match_exact",
    "extend_match",
]


class WordSyntaxError(ValueError):
    """Raised when word/identity text cannot be parsed."""


_VARIABLE_RE = re.compile(r"[a-z][0-9]*\Z")
_KNOWN_VARIABLES: set[str] = set()


def is_variable(name: str) -> bool:
    """True if ``name`` is a legal variable name (``[a-z][0-9]*``)."""
    if name in _KNOWN_VARIABLES:
        return True
    if isinstance(name, str) and _VARIABLE_RE.match(name):
        _KNOWN_VARIABLES.add(name)
        return True
    return False


@functools.total_ordering
class Word:
    """An immutable finite sequence of variables.

    Words compare in shortlex order (length first, then tuple order), which
    gives every bounded search in the package a deterministic sweep order.
    Concatenate with ``*``, repeat with ``** k``; slicing returns a Word.
    """

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[str] = ()):
        if isinstance(letters, str):
            raise TypeError(
                "Word() takes an iterable of variable names; "
                "use parse_word() to parse text"
            )
        letters = tuple(letters)
        for name in letters:
            if not is_variable(name):
                raise ValueError(f"invalid variable name: {name!r}")
        self.letters = letters
        self._hash = hash(letters)

    @classmethod
    def _of(cls, letters: tuple[str, ...]) -> "Word":
        """The word on ``letters``, a tuple of names already known to be
        variables (such as a slice of another word's letters), made
        without validating them again."""
        word = cls.__new__(cls)
        word.letters = letters
        word._hash = hash(letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.letters[index])
        return self.letters[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Word") -> bool:
        a, b = self.letters, other.letters
        return (len(a), a) < (len(b), b)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            raise ValueError("negative word power")
        return Word(self.letters * k)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def content(self) -> frozenset[str]:
        """The set of variables occurring in the word."""
        return frozenset(self.letters)

    def occurrences(self) -> dict[str, int]:
        """Occurrence count of every variable in the word."""
        counts: dict[str, int] = {}
        for c in self.letters:
            counts[c] = counts.get(c, 0) + 1
        return counts

    def is_simple(self, var: str) -> bool:
        """True if ``var`` occurs exactly once in the word."""
        return self.letters.count(var) == 1

    def initial_part(self) -> "Word":
        """The word of first occurrences of each variable, in order."""
        seen: set[str] = set()
        out: list[str] = []
        for c in self.letters:
            if c not in seen:
                seen.add(c)
                out.append(c)
        return Word(out)

    def project(self, keep: Iterable[str]) -> "Word":
        """Delete every letter not in ``keep``."""
        keep = set(keep)
        return Word(c for c in self.letters if c in keep)

    def substitute(self, theta: Mapping[str, "Word"]) -> "Word":
        """Apply a substitution; unmapped variables are left unchanged."""
        out: list[str] = []
        for c in self.letters:
            image = theta.get(c)
            if image is None:
                out.append(c)
            else:
                out.extend(image.letters)
        return Word(out)

    def is_factor_of(self, other: "Word") -> bool:
        """True if this word occurs as a contiguous factor of ``other``."""
        a, b = self.letters, other.letters
        if not a:
            return True
        n, m = len(b), len(a)
        first = a[0]
        for i in range(n - m + 1):
            if b[i] == first and b[i : i + m] == a:
                return True
        return False


EMPTY = Word(())


def content(w: Word) -> frozenset[str]:
    return w.content()


def occ(w: Word) -> dict[str, int]:
    return w.occurrences()


def ini(w: Word) -> Word:
    return w.initial_part()


def simple(w: Word, var: str) -> bool:
    return w.is_simple(var)


def project(w: Word, keep: Iterable[str]) -> Word:
    return w.project(keep)


def substitute(w: Word, theta: Mapping[str, Word]) -> Word:
    return w.substitute(theta)


def is_factor(u: Word, v: Word) -> bool:
    return u.is_factor_of(v)


def _common_prefix(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """The length of the longest common prefix of two letter tuples."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _split_rule(
    p: tuple[str, ...], q: tuple[str, ...]
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """(A, P, Q, B) with p = A·P·B and q = A·Q·B: A is the longest common
    prefix of the two sides and B the longest common suffix of what is left,
    so a rewrite by p -> q changes only the part matched by P."""
    a = _common_prefix(p, q)
    p_rest, q_rest = p[a:], q[a:]
    b = _common_prefix(p_rest[::-1], q_rest[::-1])
    return p[:a], p_rest[: len(p_rest) - b], q_rest[: len(q_rest) - b], p_rest[len(p_rest) - b :]


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------

_SINGLE_TOKEN_RE = re.compile(r"([a-z][0-9]*)(?:\^([0-9]+))?\Z")
_RUN_PIECE_RE = re.compile(r"([a-z])(?:\^([0-9]+))?")


def _power(tok: str, digits: str | None) -> int:
    if digits is None:
        return 1
    k = int(digits)
    if k < 1:
        raise WordSyntaxError(f"power must be >= 1 in token {tok!r}")
    return k


def parse_word(text: str) -> Word:
    """Parse word text (see module docstring for the accepted syntax)."""
    if not isinstance(text, str):
        raise TypeError("parse_word() takes a string")
    tokens = text.replace(".", " ").split()
    if not tokens:
        raise WordSyntaxError(f"empty word text {text!r}; write 1 for the empty word")
    letters: list[str] = []
    for tok in tokens:
        if tok == "1":
            continue
        m = _SINGLE_TOKEN_RE.match(tok)
        if m:
            letters.extend([m.group(1)] * _power(tok, m.group(2)))
            continue
        pos = 0
        run: list[str] = []
        while pos < len(tok):
            m = _RUN_PIECE_RE.match(tok, pos)
            if m is None:
                raise WordSyntaxError(
                    f"cannot parse token {tok!r}: multi-character variables "
                    "must be separated by spaces or dots"
                )
            run.extend([m.group(1)] * _power(tok, m.group(2)))
            pos = m.end()
        letters.extend(run)
    return Word(letters)


def format_word(w: Word) -> str:
    """Format a word; inverse of ``parse_word``.  The empty word is ``1``."""
    if not w.letters:
        return "1"
    parts: list[str] = []
    for name, group in itertools.groupby(w.letters):
        k = sum(1 for _ in group)
        parts.append(name if k == 1 else f"{name}^{k}")
    return " ".join(parts)


def format_word_compact(w: Word) -> str:
    """Compact label form: juxtaposed when all variables are single letters
    (``xyx``), dot-separated otherwise (``x0.y``).  Parses back with
    ``parse_word``."""
    if not w.letters:
        return "1"
    if all(len(c) == 1 for c in w.letters):
        return "".join(w.letters)
    return ".".join(w.letters)


@dataclass(frozen=True)
class Identity:
    """An ordered pair of words ``lhs = rhs``."""

    lhs: Word
    rhs: Word

    def __str__(self) -> str:
        return format_identity(self)

    def variables(self) -> frozenset[str]:
        return self.lhs.content() | self.rhs.content()

    def is_trivial(self) -> bool:
        return self.lhs == self.rhs

    def swapped(self) -> "Identity":
        return Identity(self.rhs, self.lhs)

    def unordered_key(self) -> frozenset:
        """Key identifying the identity up to swapping sides."""
        return frozenset((self.lhs.letters, self.rhs.letters))


def parse_identity(text: str) -> Identity:
    """Parse ``u = v`` (also accepts ``==``) into an Identity: exactly one
    separator, with a non-blank side on each side of it."""
    lhs, _, rhs = text.partition("=")
    rhs = rhs.removeprefix("=")
    if "=" in rhs or not lhs.strip() or not rhs.strip():
        raise WordSyntaxError(f"identity text must have exactly one '=': {text!r}")
    return Identity(parse_word(lhs), parse_word(rhs))


def format_identity(ident: Identity) -> str:
    return f"{format_word(ident.lhs)} = {format_word(ident.rhs)}"


# ---------------------------------------------------------------------------
# Word families
# ---------------------------------------------------------------------------


def _xvar(i: int) -> str:
    return f"x{i}"


def zimin(n: int) -> Word:
    """The n-th Zimin word over x1..xn: Z1 = x1, Z(k+1) = Zk x(k+1) Zk."""
    if n < 1:
        raise ValueError("zimin(n) needs n >= 1")
    w = Word((_xvar(1),))
    for k in range(2, n + 1):
        w = w * Word((_xvar(k),)) * w
    return w


@dataclass(frozen=True)
class ZiminDecomposition:
    """Aligned factorization of the n-th Zimin word.

    ``parts[i-1]`` is the i-th aligned factor (1-indexed ``p_i``) and
    ``tail`` is the closing factor; ``reassemble()`` returns
    ``p1 (p2 p1)(p3 p2)...(pn p(n-1)) tail`` which must equal ``zimin(n)``.
    """

    n: int
    parts: tuple[Word, ...]
    tail: Word

    def reassemble(self) -> Word:
        w = self.parts[0]
        for i in range(1, self.n):
            w = w * self.parts[i] * self.parts[i - 1]
        return w * self.tail


def zimin_decompose(n: int) -> ZiminDecomposition:
    """Build the aligned factorization of ``zimin(n)`` for n >= 3.

    Invariants (pinned by tests): part i uses only x1..xi and contains xi
    exactly once; the tail uses only x1..x(n-2).
    """
    if n < 3:
        raise ValueError("zimin_decompose(n) needs n >= 3")
    parts: list[Word] = [
        Word((_xvar(1),)),
        Word((_xvar(2),)),
        Word((_xvar(3), _xvar(1))),
    ]
    tail = Word((_xvar(1),))
    for m in range(4, n + 1):
        inner = parts[0]
        for i in range(1, m - 2):
            inner = inner * parts[i] * parts[i - 1]
        new_part = tail * Word((_xvar(m),)) * inner
        tail = parts[m - 3] * tail
        parts.append(new_part)
    return ZiminDecomposition(n=n, parts=tuple(parts), tail=tail)


def wn_xyxy(n: int, primed: bool = False) -> Word:
    """Length-(2n+6) family over x0..xn, y, z; ``primed`` swaps y and z."""
    if n < 2:
        raise ValueError("wn_xyxy(n) needs n >= 2")
    y, z = ("z", "y") if primed else ("y", "z")
    letters = [_xvar(0), y, z]
    for i in range(1, n + 1):
        letters.extend([_xvar(i), _xvar(i - 1)])
    letters.extend([y, z, _xvar(n)])
    return Word(letters)


def wn_zimin(n: int, primed: bool = False) -> Word:
    """Length-(2n+8) family over x0..xn, y, z, h, t; ``primed`` swaps y, z."""
    if n < 3:
        raise ValueError("wn_zimin(n) needs n >= 3")
    y, z = ("z", "y") if primed else ("y", "z")
    letters = [_xvar(0), "h", _xvar(1), y, z, _xvar(0)]
    for i in range(2, n):
        letters.extend([_xvar(i), _xvar(i - 1)])
    letters.extend([_xvar(n), y, z, _xvar(n - 1), "t", _xvar(n)])
    return Word(letters)


def _hvar(i: int) -> str:
    return f"h{i}"


def sigma(n: int) -> Identity:
    """The n-th identity of the alternating-squares family over
    x, y, h1..hn: ``e1 h1 ... en hn x^2 y^2 = e1 h1 ... en hn y^2 x^2``
    with ``e_i = x^2`` for odd i and ``y^2`` for even i."""
    if n < 1:
        raise ValueError("sigma(n) needs n >= 1")
    prefix: list[str] = []
    for i in range(1, n + 1):
        e = "x" if i % 2 == 1 else "y"
        prefix.extend([e, e, _hvar(i)])
    lhs = Word(prefix + ["x", "x", "y", "y"])
    rhs = Word(prefix + ["y", "y", "x", "x"])
    return Identity(lhs, rhs)


def sigma_infinity() -> Identity:
    """The limit identity ``x^2 y^2 h x^2 y^2 = x^2 y^2 h y^2 x^2``."""
    prefix = ["x", "x", "y", "y", "h"]
    return Identity(Word(prefix + ["x", "x", "y", "y"]), Word(prefix + ["y", "y", "x", "x"]))


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


def extend_match(
    pat: tuple[str, ...],
    txt: tuple[str, ...],
    start: int,
    end: int | None,
    bindings: dict[str, tuple[str, ...]],
) -> Iterator[int]:
    """Backtracking core of the matchers, on letter tuples.

    Matches ``pat`` against ``txt`` from ``start``, extending ``bindings``
    (variable -> tuple of letters) in place, and yields the stop where each
    solution ends; when ``end`` is given, only matches ending exactly there
    count.  At each yield ``bindings`` holds the solution, so the consumer
    copies what it keeps; it may bind more variables meanwhile (a nested
    match on the same dict) if they are gone again when it resumes.
    Variables bound on entry are fixed images: the caller seeds them to
    solve several patterns jointly.  Unbound variables take every length in
    increasing order, so solutions come in a fixed order.  A variable c
    bound here that occurs m times in the rest of the pattern (this
    occurrence included) takes at most (room − images bound to the other
    letters there) // m letters, the room being the text left from where
    its image starts: a longer image cannot fit, so the bound cuts no
    solution and reorders none.  ``bindings`` is
    restored when the generator is exhausted or closed, so a consumer may
    stop at any solution.  Backtracking runs on an explicit stack of choice
    points, one per variable bound here (its index in ``pat``, where its
    image starts in ``txt`` and its longest image), not on recursion.
    """
    if end is not None:
        txt = txt[:end]
    limit = len(txt)
    npat = len(pat)
    stack: list[tuple[int, int, int]] = []
    pi, pos = 0, start
    try:
        while True:
            while pi < npat:
                c = pat[pi]
                bound = bindings.get(c)
                if bound is None:
                    rest = pat[pi + 1 :]
                    longest = limit - pos
                    for d in rest:
                        longest -= len(bindings.get(d, ()))
                    if longest < 0:
                        break
                    longest //= rest.count(c) + 1
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


def _match_engine(
    pattern: Word,
    text: Word,
    *,
    nonempty: bool,
    full: bool,
) -> list[dict[str, Word]]:
    pat = pattern.letters
    txt = text.letters
    seen: set[tuple] = set()
    results: list[dict[str, Word]] = []
    bindings: dict[str, tuple[str, ...]] = {}
    for start in (0,) if full else range(len(txt) + 1):
        for _stop in extend_match(pat, txt, start, len(txt) if full else None, bindings):
            if nonempty and not all(bindings.values()):
                continue
            key = tuple(sorted(bindings.items()))
            if key not in seen:
                seen.add(key)
                results.append({v: Word(b) for v, b in bindings.items()})
    results.sort(key=lambda th: tuple(sorted((v, th[v].letters) for v in th)))
    return results


def match_pattern(
    pattern: Word, text: Word, *, nonempty: bool = False
) -> list[dict[str, Word]]:
    """All substitutions theta (domain = content(pattern), images words over
    content(text), empty images allowed unless ``nonempty``) such that
    pattern·theta is a factor of ``text``.

    Complete: every image of every variable must itself be a factor of
    ``text``, so the left-to-right backtracking over factor positions
    enumerates every solution.  Results are deduplicated and sorted.
    """
    return _match_engine(pattern, text, nonempty=nonempty, full=False)


def match_exact(
    pattern: Word, text: Word, *, nonempty: bool = False
) -> list[dict[str, Word]]:
    """All substitutions with pattern·theta equal to ``text`` exactly."""
    return _match_engine(pattern, text, nonempty=nonempty, full=True)
