"""Finite monoids and semigroups as explicit multiplication tables.

A `FiniteMonoid` is a tuple of element labels, an n-by-n table of product
indices, and an optional identity index (``None`` models a semigroup with no
neutral element; operations that genuinely need an identity raise).

Construction routes:

- ``from_presentation``: bounded congruence closure over all words up to a
  growing length bound.  Relations apply in both directions in all contexts,
  so non-length-reducing consequences are found.  A relation side ``0``
  introduces an absorbing zero, ``1`` denotes the empty word (and makes the
  presented object a monoid).  The closure result is certified exact before
  it is returned (see ``_try_closure``), and the bounds raise explicitly
  when exhausted.
- ``rees_quotient``: the factor-word quotient of a finite set of words
  (all factors of the words, a fresh identity, and an absorbing zero).
- ``catalog``: stock semigroups/monoids shipped as frozen tables, plus
  cyclic groups ``Zn``, the symmetric group ``S3``, factor-word quotients
  ``M(...)``, and ``^1`` adjoined-identity variants.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .words import Word, format_word_compact, parse_word

__all__ = [
    "FiniteMonoid",
    "ValidationReport",
    "PresentationError",
    "ClosureBoundExceeded",
    "NeedsIdentityError",
    "validate",
    "from_presentation",
    "adjoin_identity",
    "direct_product",
    "generated_indices",
    "submonoid",
    "rees_quotient",
    "catalog",
    "catalog_names",
    "find_isomorphism",
    "parse_monoid_text",
    "format_monoid_text",
    "load_monoid_file",
    "monoid_to_json_dict",
    "monoid_from_json_dict",
    "STOCK_PRESENTATIONS",
]


class PresentationError(ValueError):
    """Raised for malformed presentations or tables."""


class ClosureBoundExceeded(RuntimeError):
    """Raised when the bounded closure exhausts its word-length/word-count
    budget before certifying the quotient."""


class NeedsIdentityError(ValueError):
    """Raised when an operation requires an identity element but the
    structure is a plain semigroup."""


class FiniteMonoid:
    """A finite semigroup/monoid given by labels and a multiplication table.

    ``table[i][j]`` is the index of ``elements[i] * elements[j]``.  Instances
    are treated as immutable; do not mutate ``table`` after construction.

    ``factor_words`` is set only by ``rees_quotient``: the words W whose
    factor quotient M(W) this is, which lets identities be decided by factor
    embeddings (see ``equations``).  ``factors`` is set only by
    ``direct_product``: the leaf factors whose product this is, in order
    (nested products flattened), so that element (a_1, ..., a_m) has the
    mixed-radix index of (index(a_1), ..., index(a_m)) over the factors'
    orders; ``equations.rel_free`` and ``member`` evaluate words factor by
    factor on it.  Both are provenance, not structure: they are no part of
    equality or hashing, and derived monoids do not carry them.
    """

    __slots__ = ("name", "elements", "table", "identity", "factor_words", "factors", "_index")

    def __init__(self, name, elements, table, identity=None, *, factor_words=None, factors=None):
        elements = tuple(str(e) for e in elements)
        n = len(elements)
        if n == 0:
            raise PresentationError("a semigroup needs at least one element")
        if len(set(elements)) != n:
            raise PresentationError(f"duplicate element labels in {elements!r}")
        for label in elements:
            if not label or any(ch.isspace() for ch in label):
                raise PresentationError(f"bad element label {label!r}")
        table = np.asarray(table, dtype=np.int32)
        if table.shape != (n, n):
            raise PresentationError(
                f"table shape {table.shape} does not match {n} elements"
            )
        if table.size and (table.min() < 0 or table.max() >= n):
            raise PresentationError("table entries out of range")
        if identity is not None:
            identity = int(identity)
            if not 0 <= identity < n:
                raise PresentationError(f"identity index {identity} out of range")
        self.name = str(name)
        self.elements = elements
        self.table = table
        self.identity = identity
        self.factor_words = None if factor_words is None else tuple(factor_words)
        self.factors = None if factors is None else tuple(factors)
        self._index = {label: i for i, label in enumerate(elements)}

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_monoid(self) -> bool:
        return self.identity is not None

    def require_identity(self) -> int:
        if self.identity is None:
            raise NeedsIdentityError(
                f"{self.name or 'semigroup'} has no identity element; "
                "adjoin one first (adjoin_identity)"
            )
        return self.identity

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"{label!r} is not an element of {self.name or 'this semigroup'}") from None

    def mul_index(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def mul(self, a: str, b: str) -> str:
        return self.elements[self.table[self.index(a), self.index(b)]]

    def evaluate_indices(self, indices) -> int:
        """Fold a nonempty sequence of element indices; empty needs identity."""
        indices = list(indices)
        if not indices:
            return self.require_identity()
        acc = indices[0]
        for j in indices[1:]:
            acc = int(self.table[acc, j])
        return acc

    def is_idempotent(self, i: int) -> bool:
        return int(self.table[i, i]) == i

    def zero_index(self) -> int | None:
        """Index of the absorbing element, or None."""
        n = self.order
        for z in range(n):
            if all(self.table[z, j] == z and self.table[j, z] == z for j in range(n)):
                return z
        return None

    def index_and_period(self, i: int) -> tuple[int, int]:
        """(index, period) of the cyclic subsemigroup generated by element i."""
        seen: dict[int, int] = {}
        cur, k = i, 1
        while cur not in seen:
            seen[cur] = k
            cur = int(self.table[cur, i])
            k += 1
        return seen[cur], k - seen[cur]

    def opposite(self) -> "FiniteMonoid":
        return FiniteMonoid(
            f"{self.name}^op" if self.name else "", self.elements,
            self.table.T.copy(), self.identity,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMonoid)
            and self.elements == other.elements
            and self.identity == other.identity
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.elements, self.identity, self.table.tobytes()))

    def __repr__(self) -> str:
        kind = "monoid" if self.is_monoid else "semigroup"
        return f"<{kind} {self.name or '?'} of order {self.order}>"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)


def validate(M: FiniteMonoid) -> ValidationReport:
    """Check associativity and identity behaviour, reporting up to five
    witnesses."""
    max_problems = 5
    problems: list[str] = []
    T = M.table
    n = M.order
    left = T[T, :]
    right = T[np.arange(n)[:, None, None], T[None, :, :]]
    bad = np.argwhere(left != right)
    for i, j, k in bad[:max_problems]:
        a, b, c = M.elements[i], M.elements[j], M.elements[k]
        problems.append(
            f"associativity fails at ({a},{b},{c}): "
            f"({a}*{b})*{c} = {M.elements[left[i, j, k]]} but "
            f"{a}*({b}*{c}) = {M.elements[right[i, j, k]]}"
        )
    if M.identity is not None:
        e = M.identity
        for i in range(n):
            if T[e, i] != i or T[i, e] != i:
                problems.append(
                    f"identity {M.elements[e]} fails on {M.elements[i]}"
                )
                if len(problems) >= max_problems:
                    break
    return ValidationReport(ok=not problems, problems=problems)


# ---------------------------------------------------------------------------
# Presentations: bounded congruence closure
# ---------------------------------------------------------------------------

_ZERO = ("<0>",)  # sentinel; never a real word since labels are [a-z][0-9]*


def _parse_relation_side(text: str, generators: tuple[str, ...]):
    text = text.strip()
    if text == "0":
        return _ZERO
    word = parse_word(text)
    extra = word.content() - set(generators)
    if extra:
        raise PresentationError(
            f"relation side {text!r} uses non-generators {sorted(extra)}"
        )
    return word.letters


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if rx < ry:
                self.parent[ry] = rx
            else:
                self.parent[rx] = ry


def _try_closure(gens, rules, zero_mode, monoid_mode, length_bound, core_bound, max_words):
    """One closure attempt: equations closed over words of length up to
    ``length_bound``, elements read off a certified core of words of length
    up to ``core_bound`` (at most half the closure bound, so products of
    core representatives stay enumerable).

    Returns (elements, table, identity_index) or None if this bound pair
    cannot certify.  Certification conditions: (i) same-class core words
    have identically-classed one-letter extensions on both sides (the
    bounded equivalence is a congruence on the core), (ii) products of core
    representatives land in classes that again have core representatives.
    Under (i)+(ii) the core quotient satisfies the relations, is generated
    by the generators, and maps bijectively to the presented semigroup by
    the universal property — so the result is exact, not approximate.
    """
    words: list[tuple[str, ...]] = []
    if monoid_mode:
        words.append(())
    for length in range(1, length_bound + 1):
        words.extend(itertools.product(gens, repeat=length))
        if len(words) > max_words:
            return None
    word_id = {w: i for i, w in enumerate(words)}
    zero_node = len(words)
    uf = _UnionFind(len(words) + 1)

    for w in words:
        wid = word_id[w]
        lw = len(w)
        for lhs, rhs in rules:
            m = len(lhs)
            if m == 0:
                # empty lhs (from a "1" side): insert rhs at every gap
                if rhs is not _ZERO:
                    for pos in range(lw + 1):
                        replaced = w[:pos] + rhs + w[pos:]
                        if len(replaced) <= length_bound:
                            uf.union(wid, word_id[replaced])
                continue
            for pos in range(lw - m + 1):
                if w[pos : pos + m] != lhs:
                    continue
                if rhs is _ZERO:
                    uf.union(wid, zero_node)
                else:
                    replaced = w[:pos] + rhs + w[pos + m :]
                    if len(replaced) <= length_bound and (replaced or monoid_mode):
                        uf.union(wid, word_id[replaced])

    # Shortest member of every class (the certified core uses only classes
    # whose shortest member fits in core_bound).
    shortest: dict[int, tuple[str, ...]] = {}
    for w in words:
        root = uf.find(word_id[w])
        best = shortest.get(root)
        if best is None or (len(w), w) < (len(best), best):
            shortest[root] = w
    zero_root = uf.find(zero_node) if zero_mode else None
    if zero_mode and zero_root not in shortest:
        return None  # nothing ever reached zero at this bound

    core_words = [w for w in words if len(w) <= core_bound]
    core_roots: list[int] = []
    seen_roots: set[int] = set()
    for w in core_words:
        root = uf.find(word_id[w])
        if root not in seen_roots:
            seen_roots.add(root)
            core_roots.append(root)

    # (i) congruence on the core
    by_root: dict[int, list[tuple[str, ...]]] = {}
    for w in core_words:
        by_root.setdefault(uf.find(word_id[w]), []).append(w)
    for members in by_root.values():
        if len(members) == 1:
            continue
        for g in gens:
            if len({uf.find(word_id[w + (g,)]) for w in members}) > 1:
                return None
            if len({uf.find(word_id[(g,) + w]) for w in members}) > 1:
                return None

    # (ii) representative products stay in the core
    reps = {root: shortest[root] for root in core_roots}
    if zero_mode and len(shortest[zero_root]) > core_bound:
        return None

    # Deterministic element order: zero first, then representatives in plain
    # lexicographic order (the order used by the stock tables).
    nonzero_roots = [r for r in core_roots if not (zero_mode and r == zero_root)]
    nonzero_roots.sort(key=lambda r: reps[r])
    ordered_roots: list[int] = []
    if zero_mode:
        ordered_roots.append(zero_root)
    ordered_roots.extend(nonzero_roots)
    position = {root: i for i, root in enumerate(ordered_roots)}

    labels: list[str] = []
    for root in ordered_roots:
        if zero_mode and root == zero_root:
            labels.append("0")
        else:
            rep = reps[root]
            labels.append(format_word_compact(Word(rep)) if rep else "1")

    n = len(ordered_roots)
    table = np.zeros((n, n), dtype=np.int32)
    for i, root_i in enumerate(ordered_roots):
        for j, root_j in enumerate(ordered_roots):
            prod = reps[root_i] + reps[root_j]
            if not prod and not monoid_mode:
                return None
            root_p = uf.find(word_id[prod]) if (prod or monoid_mode) else None
            if root_p not in position:
                return None  # product class has no core representative
            table[i, j] = position[root_p]

    identity = position[uf.find(word_id[()])] if monoid_mode else None
    return labels, table, identity


def from_presentation(
    generators,
    relations,
    *,
    name: str = "",
    max_word_length: int = 14,
) -> FiniteMonoid:
    """Build the semigroup/monoid presented by generators and relations.

    ``relations`` is a sequence of ``(lhs, rhs)`` strings; each side is a word
    over the generators in compact syntax (``"aba"``, ``"b^2 a"``), or ``"0"``
    (absorbing zero) or ``"1"`` (empty word; its use makes the result a
    monoid).  Raises ``ClosureBoundExceeded`` if the bounded closure cannot
    certify a finite quotient with at most 500,000 words.
    """
    max_words = 500_000
    gens = tuple(generators)
    if not gens or len(set(gens)) != len(gens):
        raise PresentationError(f"bad generator list {generators!r}")
    for g in gens:
        if not re.fullmatch(r"[a-z][0-9]*", g):
            raise PresentationError(f"bad generator name {g!r}")

    sides = [
        (_parse_relation_side(lhs, gens), _parse_relation_side(rhs, gens))
        for lhs, rhs in relations
    ]
    zero_mode = any(_ZERO in pair for pair in sides)
    monoid_mode = any(() in pair for pair in sides)
    rules = []
    for lhs, rhs in sides:
        if lhs is _ZERO and rhs is _ZERO:
            continue
        if lhs is _ZERO:
            lhs, rhs = rhs, lhs
        rules.append((lhs, rhs))
        if rhs is not _ZERO:
            rules.append((rhs, lhs))

    longest = max(
        (len(side) for pair in sides for side in pair if side is not _ZERO),
        default=1,
    )
    min_core = max(longest, 1)
    for bound in range(max(4, 2 * min_core), max_word_length + 1):
        for core in range(min_core, bound // 2 + 1):
            attempt = _try_closure(
                gens, rules, zero_mode, monoid_mode, bound, core, max_words
            )
            if attempt is None:
                continue
            labels, table, identity = attempt
            M = FiniteMonoid(name, labels, table, identity)
            report = validate(M)
            if report.ok:
                return M
            # associativity failed: the core certification was insufficient
            # at this bound; keep growing
    raise ClosureBoundExceeded(
        f"congruence closure for {name or gens} not certified with words of "
        f"length <= {max_word_length} (<= {max_words} words); the quotient "
        "may be infinite or may simply need larger bounds"
    )


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def adjoin_identity(M: FiniteMonoid) -> FiniteMonoid:
    """Adjoin a *fresh* identity element (always, even if M has one).

    The new element is appended at the end of the element list, labelled
    ``1`` with as many primes as it takes to be fresh.
    """
    label = "1"
    while label in M.elements:
        label += "'"
    n = M.order
    table = np.zeros((n + 1, n + 1), dtype=np.int32)
    table[:n, :n] = M.table
    table[n, : n + 1] = np.arange(n + 1)
    table[: n + 1, n] = np.arange(n + 1)
    name = f"{M.name}^1" if M.name else ""
    return FiniteMonoid(name, M.elements + (label,), table, identity=n)


def direct_product(A: FiniteMonoid, B: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product; labels are ``(a,b)``; row-major element order;
    named ``(A x B)`` when both factors are named.  The result's ``factors``
    are A's leaf factors followed by B's (a monoid that is no product is its
    own leaf)."""
    na, nb = A.order, B.order
    labels = [f"({a},{b})" for a in A.elements for b in B.elements]
    ia, ib = np.divmod(np.arange(na * nb), nb)
    ta = A.table[np.ix_(ia, ia)]
    tb = B.table[np.ix_(ib, ib)]
    table = ta * nb + tb
    identity = None
    if A.identity is not None and B.identity is not None:
        identity = A.identity * nb + B.identity
    name = f"({A.name} x {B.name})" if A.name and B.name else ""
    factors = (A.factors or (A,)) + (B.factors or (B,))
    return FiniteMonoid(name, labels, table, identity, factors=factors)


def generated_indices(M: FiniteMonoid, seeds) -> list[int]:
    """The indices of the subsemigroup of M generated by the element
    indices ``seeds`` (the least product-closed set containing them), in
    increasing order.

    Every product of two or more seeds is a seed times a shorter product,
    so left-multiplying each element once by every seed reaches them all.
    """
    seeds = np.asarray(list(seeds), dtype=np.intp)
    closed = np.zeros(M.order, dtype=bool)
    closed[seeds] = True
    fresh = np.unique(seeds)
    while fresh.size:
        products = np.unique(M.table[np.ix_(seeds, fresh)])
        fresh = products[~closed[products]]
        closed[fresh] = True
    return np.flatnonzero(closed).tolist()


def submonoid(M: FiniteMonoid, generator_labels) -> FiniteMonoid:
    """The subsemigroup generated by the given elements (plus the identity
    when M is a monoid), with elements kept in M's order, named
    ``sub(<M's name>)``."""
    gens = [M.index(g) for g in generator_labels]
    if M.identity is not None:
        gens.append(M.identity)
    kept = generated_indices(M, gens)
    back = {old: new for new, old in enumerate(kept)}
    table = np.array(
        [[back[int(M.table[i, j])] for j in kept] for i in kept], dtype=np.int32
    )
    labels = [M.elements[i] for i in kept]
    identity = back[M.identity] if M.identity is not None else None
    return FiniteMonoid(f"sub({M.name})", labels, table, identity)


def rees_quotient(factor_words, name: str = "") -> FiniteMonoid:
    """The factor-word quotient of a finite set of words: elements are the
    identity, all nonempty factors of the given words, and an absorbing
    zero; products falling outside the factor set collapse to zero.  The
    words are kept as the result's ``factor_words``."""
    wordlist = []
    for w in factor_words:
        wordlist.append(parse_word(w) if isinstance(w, str) else w)
    factors: set[tuple[str, ...]] = set()
    for w in wordlist:
        letters = w.letters
        for i in range(len(letters)):
            for j in range(i + 1, len(letters) + 1):
                factors.add(letters[i:j])
    ordered = sorted(factors, key=lambda t: (len(t), t))
    elements = ["1"] + [format_word_compact(Word(t)) for t in ordered] + ["0"]
    index_of = {t: i + 1 for i, t in enumerate(ordered)}
    index_of[()] = 0
    zero = len(elements) - 1
    n = len(elements)
    table = np.full((n, n), zero, dtype=np.int32)
    members = [()] + ordered
    for i, u in enumerate(members):
        for j, v in enumerate(members):
            prod = u + v
            if prod in index_of:
                table[i, j] = index_of[prod]
    table[zero, :] = zero
    table[:, zero] = zero
    if not name:
        name = "M(" + ",".join(format_word_compact(w) for w in wordlist) + ")"
    return FiniteMonoid(name, elements, table, identity=0, factor_words=wordlist)


# ---------------------------------------------------------------------------
# Stock catalog
# ---------------------------------------------------------------------------

#: Presentations of the stock semigroups (relation sides in compact syntax).
STOCK_PRESENTATIONS: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {
    "N2": (("a",), (("a^2", "0"),)),
    "N6": (("a", "b"), (("a^2", "0"), ("b^2", "0"), ("aba", "0"))),
    "B2": (("a", "b"), (("a^2", "0"), ("b^2", "0"), ("aba", "a"), ("bab", "b"))),
    "B0": (
        ("a", "b", "c"),
        (("a^2", "a"), ("b^2", "b"), ("ab", "0"), ("ba", "0"), ("ac", "c"), ("cb", "c")),
    ),
    "A0": (("a", "b"), (("a^2", "a"), ("b^2", "b"), ("ab", "0"))),
    "A2": (("a", "b"), (("aba", "a"), ("bab", "b"), ("a^2", "a"), ("b^2", "0"))),
    "I": (("a", "b"), (("ab", "a"), ("ba", "0"), ("b^2", "b"))),
    "J": (("a", "b"), (("ba", "a"), ("ab", "0"), ("b^2", "b"))),
    "L2": (("a", "b"), (("a^2", "a"), ("b^2", "b"), ("ab", "a"), ("ba", "b"))),
    "R2": (("a", "b"), (("a^2", "a"), ("b^2", "b"), ("ab", "b"), ("ba", "a"))),
    "P2": (("a", "b"), (("a^2", "a"), ("ab", "a"), ("b^2 a", "b^2"))),
    "Q": (
        ("a", "b", "c"),
        (("a^2", "a"), ("ab", "b"), ("ca", "c"), ("ac", "0"), ("ba", "0"), ("cb", "0")),
    ),
    "E": (
        ("a", "b", "c"),
        (
            ("a^2", "0"),
            ("ab", "0"),
            ("ba", "a"),
            ("ca", "a"),
            ("b^2", "b"),
            ("bc", "b"),
            ("c^2", "c"),
            ("cb", "c"),
        ),
    ),
    "O": (("a", "b"), (("a^2", "a"), ("ba", "a"), ("b^2", "1"))),
}

_STOCK_NAMES = tuple(STOCK_PRESENTATIONS)


def _cyclic_group(n: int) -> FiniteMonoid:
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    table = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int).astype(
        np.int32
    )
    return FiniteMonoid(f"Z{n}", labels, table, identity=0)


def _symmetric_group_3() -> FiniteMonoid:
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1),  # e, r, r2
        (1, 0, 2), (2, 1, 0), (0, 2, 1),  # s, rs, r2s
    ]
    labels = ["e", "r", "r2", "s", "rs", "r2s"]
    index = {p: i for i, p in enumerate(perms)}
    n = 6
    table = np.zeros((n, n), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[k]] for k in range(3))  # apply q first, then p
            table[i, j] = index[composed]
    return FiniteMonoid("S3", labels, table, identity=0)


def _load_stock(base: str) -> FiniteMonoid:
    path = resources.files("monoidlab").joinpath(f"data/monoids/{base}.monoid")
    return parse_monoid_text(path.read_text(encoding="utf-8"))


_REES_RE = re.compile(r"M\((.*)\)\Z")
_CYCLIC_RE = re.compile(r"Z([0-9]+)\Z")


@functools.lru_cache(maxsize=None)
def _catalog_cached(normalized: str) -> FiniteMonoid:
    adjoin = False
    base = normalized
    if base.endswith("^1"):
        base, adjoin = base[:-2], True
    cyclic = _CYCLIC_RE.fullmatch(base)
    rees = _REES_RE.fullmatch(base)
    inner = rees.group(1).strip() if rees else ""
    pieces = [p for p in inner.split(",") if p.strip()]
    if cyclic and int(cyclic.group(1)):
        M = _cyclic_group(int(cyclic.group(1)))
    elif base == "S3":
        M = _symmetric_group_3()
    elif rees and (pieces or not inner):
        M = rees_quotient([parse_word(p) if p.strip() != "1" else Word(()) for p in pieces] or [Word(())])
    elif base in STOCK_PRESENTATIONS:
        M = _load_stock(base)
    else:
        raise KeyError(
            f"unknown catalog name {normalized!r}; known: "
            f"{', '.join(catalog_names())}"
        )
    return adjoin_identity(M) if adjoin else M


def catalog(name: str) -> FiniteMonoid:
    """Return a stock semigroup/monoid by name.

    Accepted: the stock tables N2, N6, B2, B0, A0, A2, I, J, L2, R2, P2, Q,
    E, O; cyclic groups ``Zn``; ``S3``; factor-word quotients ``M(w1,...)``
    (``M(1)`` is the two-element one); and any of these with ``^1`` appended
    (or a trailing ``1`` on a stock name, e.g. ``E1``) for the version with a
    fresh adjoined identity.  Results are cached; treat them as immutable.
    """
    normalized = name.strip().replace(" ", "")
    if re.fullmatch("|".join(re.escape(s) + "1" for s in _STOCK_NAMES), normalized):
        normalized = normalized[:-1] + "^1"
    return _catalog_cached(normalized)


def catalog_names() -> tuple[str, ...]:
    return _STOCK_NAMES + ("Zn", "S3", "M(...)", "<name>^1")


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------


def _profiles(M: FiniteMonoid) -> list[tuple]:
    n = M.order
    counts = np.bincount(M.table.reshape(-1), minlength=n)
    zero = M.zero_index()
    profs = []
    for i in range(n):
        profs.append(
            (
                M.is_idempotent(i),
                i == M.identity,
                i == zero,
                M.index_and_period(i),
                int(counts[i]),
                len(set(M.table[i].tolist())),
                len(set(M.table[:, i].tolist())),
            )
        )
    return profs


def find_isomorphism(
    A: FiniteMonoid, B: FiniteMonoid, *, anti: bool = False
) -> dict[str, str] | None:
    """Search for an isomorphism A -> B (anti-isomorphism when ``anti``),
    returned as a label mapping, or None."""
    if anti:
        B = B.opposite()
    if A.order != B.order or (A.identity is None) != (B.identity is None):
        return None
    n = A.order
    pa, pb = _profiles(A), _profiles(B)
    candidates = [
        [j for j in range(n) if pb[j] == pa[i]] for i in range(n)
    ]
    if any(not c for c in candidates):
        return None
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    assign: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for i2, j2 in assign.items():
                pij = int(A.table[i, i2])
                qij = int(B.table[j, j2])
                if pij in assign and assign[pij] != qij:
                    ok = False
                    break
                pji = int(A.table[i2, i])
                qji = int(B.table[j2, j])
                if pji in assign and assign[pji] != qji:
                    ok = False
                    break
            pii, qjj = int(A.table[i, i]), int(B.table[j, j])
            if ok and pii in assign and assign[pii] != qjj:
                ok = False
            if not ok:
                continue
            assign[i] = j
            used.add(j)
            if extend(k + 1):
                return True
            del assign[i]
            used.discard(j)
        return False

    if not extend(0):
        return None
    # full verification
    for i in range(n):
        for j in range(n):
            if assign[int(A.table[i, j])] != int(B.table[assign[i], assign[j]]):
                return None
    return {A.elements[i]: B.elements[assign[i]] for i in range(n)}


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def parse_monoid_text(text: str) -> FiniteMonoid:
    """Parse the flat text format::

        monoid <name>
        elements <e1> ... <en>
        identity <ei>        (or "-" for a semigroup without identity)
        table
        <n rows of n element labels>

    Lines may carry ``#`` comments; blank lines are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if len(lines) < 4:
        raise PresentationError("monoid text too short")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "monoid":
        raise PresentationError(f"expected 'monoid <name>', got {lines[0]!r}")
    name = header[1]
    elems_line = lines[1].split()
    if elems_line[0] != "elements" or len(elems_line) < 2:
        raise PresentationError(f"expected 'elements ...', got {lines[1]!r}")
    elements = elems_line[1:]
    ident_line = lines[2].split()
    if ident_line[0] != "identity" or len(ident_line) != 2:
        raise PresentationError(f"expected 'identity <e>', got {lines[2]!r}")
    identity_label = ident_line[1]
    if lines[3] != "table":
        raise PresentationError(f"expected 'table', got {lines[3]!r}")
    n = len(elements)
    rows = lines[4 : 4 + n]
    if len(rows) != n:
        raise PresentationError(f"expected {n} table rows, found {len(rows)}")
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != n:
        raise PresentationError("duplicate element labels")
    table = np.zeros((n, n), dtype=np.int32)
    for i, row in enumerate(rows):
        cells = row.split()
        if len(cells) != n:
            raise PresentationError(f"table row {i} has {len(cells)} entries, expected {n}")
        for j, cell in enumerate(cells):
            if cell not in index:
                raise PresentationError(f"unknown element {cell!r} in table row {i}")
            table[i, j] = index[cell]
    identity = None if identity_label == "-" else index.get(identity_label)
    if identity_label != "-" and identity is None:
        raise PresentationError(f"identity {identity_label!r} not among elements")
    return FiniteMonoid(name, elements, table, identity)


def format_monoid_text(M: FiniteMonoid) -> str:
    lines = [
        f"monoid {M.name or 'unnamed'}",
        "elements " + " ".join(M.elements),
        "identity " + (M.elements[M.identity] if M.identity is not None else "-"),
        "table",
    ]
    width = max(len(e) for e in M.elements)
    for i in range(M.order):
        lines.append(" ".join(M.elements[int(M.table[i, j])].ljust(width) for j in range(M.order)).rstrip())
    return "\n".join(lines) + "\n"


def load_monoid_file(path) -> FiniteMonoid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_monoid_text(fh.read())


def monoid_to_json_dict(M: FiniteMonoid) -> dict:
    return {
        "name": M.name,
        "elements": list(M.elements),
        "identity": M.elements[M.identity] if M.identity is not None else None,
        "table": [[M.elements[int(M.table[i, j])] for j in range(M.order)] for i in range(M.order)],
    }


def monoid_from_json_dict(data: dict) -> FiniteMonoid:
    elements = [str(e) for e in data["elements"]]
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[str(c)] for c in row] for row in data["table"]]
    identity = index[str(data["identity"])] if data.get("identity") is not None else None
    return FiniteMonoid(data.get("name", ""), elements, table, identity)
