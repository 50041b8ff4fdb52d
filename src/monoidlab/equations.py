"""Identity satisfaction, relatively free monoids, isoterms, membership.

``satisfies`` first checks that the n^k assignments of the identity's k
variables fit the evaluation budget.  Two equal sides then hold at once;
any other identity is decided by one of three paths.  Whichever decides,
a failure's witness is the first failing assignment in mixed-radix order
over the element order, variables sorted lexicographically with the
*first* variable most significant, and ``checked`` is n^k.

1. *Factor keys.*  A word-factor quotient M(W) (``rees_quotient``, which
   records W as the monoid's ``factor_words``) needs no scan to decide an
   identity.  A substitution into M(W) that sends no variable to 0 is a map
   θ from variables to words, and a word u then takes the value θ(u) when
   that is a factor of a word of W (the empty word counts) and 0
   otherwise.  So M(W) |= u = v iff u and v have the same *factor key*:
   content(u) with the pairs (θ, θ(u)) over every θ with θ(u) a factor,
   yielded by the pattern matcher ``words.extend_match`` (Jackson,
   J. Algebra 2000; Jackson & Sapir, IJAC 2000).  The second key is
   compared as its pairs are yielded, and the loop returns at the first
   pair the first key lacks.  A failure in M(W) goes on to path 2 or 3
   for its witness.
2. *Linear-letter elimination.*  Write u = A·u'·B and v = A·v'·B with A
   and B the longest common prefix and suffix.  A letter that occurs once
   in u and once in v, inside A or B, is *linear*: it ranges over all of M
   independently of every other letter (Jackson, J. Algebra 2000).  With C
   the other letters, M |= u = v iff for every assignment c of C,
   a·u'(c)·b = a·v'(c)·b for all a in S_A(c) and b in S_B(c), the sets of
   values A and B take over every choice of their linear letters.  The
   sets are n-wide boolean masks over the n^|C| assignments of C, built in
   one pass over A and B.  A failure's witness fixes the variables in
   sorted order, each to the least element that still has a failing
   completion: one pass per variable, with it as the leading digit.  The
   path is taken when there are at least three linear letters, where the
   n^|C| <= n^(k-3) reduced assignments pay for the n-wide sets.
3. *The scan.*  Every other identity is decided by exhaustive
   substitution, with the Cayley table applied as a vectorized gather over
   all assignments at once, on the same split u = A·u'·B, v = A·v'·B.  A
   is evaluated once, and both middles continue from its values.  B is
   applied to both sides only if the middles differ somewhere: where they
   agree the sides do, so the first assignment at which the sides differ
   is still the first failing one.  It is the general path; the other two
   are tested against a scan of both whole sides.

One private kernel, ``_AssignmentSpace``, holds an assignment space and
the one layout every word product goes through: the Cayley table
flattened column-major (uint8 up to 256 elements, uint16 above), and each
letter's column of element indices scaled by n once, built on first use.
Multiplying every value by a letter on the right is then one gather,
``table[column + values]``, and a value set takes one scatter per letter;
the kernel also decodes a witness index.  The scan and elimination of
``satisfies`` run on the whole space, because their witness is the first
failing assignment of all n^k.  Every other comparison of words runs on
``_separating_columns``, built from the kernel's columns and tables of
each factor of a direct product (a monoid that is no product is one
factor): each factor keeps its own assignments, cut down at its proper
zero, and all of them look up through one concatenated table, so a
product of n_1 and n_2 elements costs tuples over n_1^k + n_2^k
assignments, not (n_1·n_2)^k.  A word's values there are ``bytes``, and
``_Separating.times`` is the one tuple product: when the table has at
most 256 entries (every factor has at most 16 elements) the columns are
uint8 and the product is ``bytes.translate`` through the table padded to
256 bytes; a larger table is gathered with ``take``.  ``rel_free`` builds
its states on it, and a stream of words goes through one ``_Walk``, which
keeps the values of the last word's prefixes, so each word re-gathers
only from its first letter that differs from the word before it.  The
two streams are the isoterm falsifier's candidates, tested by
``_AssignmentSpace.same_as`` in all three phases, and the words of
``member``'s bounded identity search.  Over M(W) the falsifier compares
factor keys instead and never gathers.  The kernel bounds nothing: each
verdict checks its space's size n^k, over the whole monoid, against its
own budget.

What the kernel reads of a monoid is computed once per instance and kept
in that monoid's memo (``FiniteMonoid._cached``): the column-major table,
the zero index, the minimal generating set, and per k the position rows
that every space over k variables binds its variables to and each
factor's unshifted zero-cut block.  The instance owns the memo, so it
lives as long as the instance and is never invalidated (instances are
immutable).  No module-level cache or ``id()`` key stands in for it:
``==`` ignores ``factors``, and an ``id()`` is reused once an instance
is collected.  The per-k entries are kept only while n^k <= ``MAX_DIM``,
so each is bounded; a larger space builds its columns afresh.  Every
memoized array is read-only, because a ``member`` or ``isoterm`` witness
is re-checked by ``satisfies`` on the same memo, where a corrupted entry
would pass its own re-check.  A product keeps its factors' entries on
the factors, and shifts and concatenates their blocks on each call.

A *relatively free monoid* over a base monoid M on k generators is computed
as the monoid of evaluation maps: a word w in k variables is identified with
the tuple of its values under all n^k assignments, and the reachable tuples
are explored breadth-first (so each class representative is the shortlex
least word evaluating to it).  Two words are equal in a direct product iff
they are equal in every factor, and when a factor has a proper zero, its
zero-free assignments and k content probes already tell the same words
apart, so only those are kept.  Representatives are closed under taking
factors, so, as in Froidure & Pin ("Algorithms for computing finite
semigroups", 1997), most transitions are looked up from the suffix and
left multiples of states already built; only a transition that could reach
a new state takes the tuple product, as does any lookup that meets a -1
(a state skipped by the cap, or a row not yet filled).  Each state's tuple
is stored once, as its dictionary key.  Variety membership builds every
state.  The isoterm certifier runs the same search but keeps only the
left divisors of its word w, the states p with w(t) in p(t)·M_f on every
kept assignment t of each factor f: they are closed under prefixes and
hold every prefix of every word in w's class, which is all the class
search reads.  For x y x y over M(xyxy) that is 5 states of 21, and for
the Zimin word Z_4 over B2^1, 16 of 129,340.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .monoids import FiniteMonoid, generated_indices
from .words import Identity, Word, _split_rule, extend_match

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "RelFreeCapExceeded",
    "SatisfactionResult",
    "evaluate",
    "satisfies",
    "satisfies_all",
    "close_under_deletion",
    "RelFree",
    "rel_free",
    "IsotermBudget",
    "IsotermVerdict",
    "isoterm",
    "MemberVerdict",
    "member",
    "minimal_generating_set",
]

DEFAULT_BUDGET = 10_000_000
MAX_STATES = 300_000
MAX_DIM = 20_000


class BudgetExceededError(RuntimeError):
    """The substitution space exceeds the evaluation budget."""


class RelFreeCapExceeded(RuntimeError):
    """The relatively-free-monoid construction exceeds its caps."""


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


@dataclass
class SatisfactionResult:
    holds: bool
    witness: dict[str, str] | None = None
    lhs_value: str | None = None
    rhs_value: str | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.holds

    def witness_text(self) -> str:
        """Witness in ``x=b y=c`` form (variables in sorted order)."""
        if self.witness is None:
            return ""
        return " ".join(f"{v}={self.witness[v]}" for v in sorted(self.witness))


def evaluate(M: FiniteMonoid, word: Word, assignment: Mapping[str, str]) -> str:
    """Evaluate a word in M under a variable -> element-label assignment."""
    try:
        indices = [M.index(assignment[c]) for c in word.letters]
    except KeyError as exc:
        raise KeyError(f"assignment missing or bad for variable/element {exc}") from exc
    return M.elements[M.evaluate_indices(indices)]


class _AssignmentSpace:
    """Every assignment of M's elements to ``variables``, in mixed-radix
    order: the first variable most significant, elements in table order.

    Words are evaluated with the letters of ``fixed`` (letter -> element
    index) held constant.  Every product gathers through ``_by_column``,
    M's table flattened column-major (entry s·n + a is a·s), at the index
    ``columns[c] + a``: a letter's column holds its element index times n,
    so the values of u·c are one gather from those of u.  Both are read
    from M's memo, so a space is cheap to make again.  ``values`` and
    ``value_sets`` cover all n^k assignments, for ``satisfies``' scan and
    elimination; ``same_as`` compares words on the separating columns
    instead.  No budget is checked here: callers compare ``total`` (n^k,
    known before anything is allocated) with theirs.
    """

    def __init__(
        self, M: FiniteMonoid, variables: Sequence[str], fixed: Mapping[str, int] | None = None,
    ):
        self.identity = M.require_identity()
        n, k = M.order, len(variables)
        self.total = n ** k
        self.M = M
        self.variables = tuple(variables)
        self.fixed = dict(fixed or {})

    @functools.cached_property
    def columns(self) -> dict[str, np.ndarray]:
        """Each letter's element index times n, as int32: a variable's in
        every assignment, a fixed letter's once.

        Built on first use, so a space that only checks the budget and
        decides by factor keys never allocates the n^k columns.  The
        variables are bound, in order, to the k position rows of
        ``_positions``, which M's memo keeps read-only while n^k <=
        ``MAX_DIM``; so a space over the same M and k allocates nothing
        new.  A fixed letter's column is a one-element array, not a
        scalar: added to a uint8 or uint16 accumulator, a Python int (or,
        under NumPy 1.x, any scalar that fits) keeps the accumulator's
        dtype and wraps.
        """
        n = self.M.order
        rows = _positions(self.M, len(self.variables))
        fixed = {c: np.array([v * n], dtype=np.int32) for c, v in self.fixed.items()}
        return {**dict(zip(self.variables, rows)), **fixed}

    def same_as(self, w: Word) -> Callable[[Word], bool]:
        """A test of whether M satisfies w = cand, for words cand over the
        space's variables: by factor keys when M is a word-factor quotient,
        otherwise by values on ``_separating_columns`` over M's factors,
        which tell two words apart exactly when the whole space does.  Every
        candidate goes through one ``_Walk``, so it re-gathers only from its
        first letter that differs from the candidate tested before it."""
        texts = _factor_texts(self.M)
        if texts is not None:
            w_key = _factor_key(texts, w)
            return lambda cand: _has_factor_key(texts, cand, w_key)
        cut = _separating_columns(self.M.factors or (self.M,), len(self.variables))
        walk = _Walk(cut, self.variables)
        w_values = walk.values(w.letters)
        return lambda cand: walk.values(cand.letters) == w_values

    def values(self, word: Word, start: np.ndarray | None = None) -> np.ndarray:
        """The value of ``word`` under every assignment, in order; given
        ``start``, the values of some u in that order, those of u·word."""
        by_column, columns = _by_column(self.M), self.columns
        acc = np.full(self.total, self.identity, dtype=by_column.dtype) if start is None else start
        for c in word.letters:
            acc = by_column.take(columns[c] + acc)
        return acc

    def value_sets(self, word: Word, linear: frozenset[str]) -> np.ndarray:
        """Row r is the set of values ``word`` takes under assignment r and
        every choice in M of its ``linear`` letters, as an n-wide mask."""
        n, by_column = self.M.order, _by_column(self.M)
        sets = np.zeros((self.total, n), dtype=bool)
        sets[:, self.identity] = True
        rows = np.arange(0, self.total * n, n)[:, None]
        for c in word.letters:
            if c in linear:
                sets = sets @ _right_ideals(self.M)
            else:
                hit = np.zeros(self.total * n, dtype=bool)
                hit[(rows + by_column[np.add.outer(self.columns[c], np.arange(n))])[sets]] = True
                sets = hit.reshape(self.total, n)
        return sets

    def assignment(self, index: int) -> dict[str, str]:
        """The assignment at ``index``, as variable -> element label."""
        n, digits = self.M.order, []
        for _ in self.variables:
            index, d = divmod(index, n)
            digits.append(d)
        return {v: self.M.elements[d] for v, d in zip(self.variables, reversed(digits))}


def _by_column(M: FiniteMonoid) -> np.ndarray:
    """M's table flattened column-major, in the least unsigned dtype that
    holds an element index: entry s·n + a is a·s.  Kept in M's memo."""

    def build():
        dtype = np.min_scalar_type(M.order - 1)
        return np.ascontiguousarray(M.table.T, dtype=dtype).reshape(-1)

    return M._cached("by_column", build)


def _right_ideals(M: FiniteMonoid) -> np.ndarray:
    """Entry [s, t] is whether t lies in s·M.  Kept in M's memo."""

    def build():
        n = M.order
        ideals = np.zeros((n, n), dtype=bool)
        ideals[np.arange(n)[:, None], M.table] = True
        return ideals

    return M._cached("right_ideals", build)


def _position_rows(n: int, k: int, dtype) -> np.ndarray:
    """The (k, n^k) array in ``dtype`` whose row i holds, for every
    assignment of k variables over n elements in mixed-radix order, the
    element index of variable i times n."""
    # reshape(k, -1) would fail for k = 0, where the space is the one
    # empty assignment.  Scaled in place: ``* n`` would hold a second
    # (k, n^k) array while the first is still alive.
    rows = np.indices((n,) * k, dtype=dtype).reshape(k, n ** k)
    rows *= n
    return rows


def _positions(M: FiniteMonoid, k: int) -> np.ndarray:
    """``_position_rows`` of M in int32.  Kept read-only in M's memo when
    n^k <= ``MAX_DIM``, built afresh above it, so the memo's size is
    bounded per k."""
    n = M.order

    def build():
        return _position_rows(n, k, np.int32)

    return build() if n ** k > MAX_DIM else M._cached(("positions", k), build)


def _check_budget(space: _AssignmentSpace, budget: int) -> None:
    """Raise BudgetExceededError if ``space`` exceeds ``budget`` assignments."""
    if space.total > budget:
        raise BudgetExceededError(
            f"identity over {len(space.variables)} variables needs {space.total} "
            f"substitutions in {space.M.name or 'M'} (budget {budget})"
        )


def _factor_texts(M: FiniteMonoid) -> list[tuple[str, ...]] | None:
    """For a word-factor quotient M(W): the suffixes of words of W that are
    no prefix of another such suffix, or None for any other M.  Every
    factor of W is a prefix of one of them, so matching from their first
    letter alone finds every factor embedding, without searching again
    from each later occurrence of a repeated factor."""
    if M.factor_words is None:
        return None
    suffixes = {w.letters[i:] for w in M.factor_words for i in range(len(w))}
    return [s for s in suffixes if not any(t[: len(s)] == s != t for t in suffixes)]


def _factor_pairs(
    texts: Sequence[tuple[str, ...]], word: Word, variables: Sequence[str]
) -> Iterator[tuple]:
    """Yield each pair (θ on ``variables``, θ(word)) with θ(word) a factor
    of a word of W, W's texts per ``_factor_texts``."""
    bindings: dict[str, tuple[str, ...]] = {}
    image = bindings.__getitem__
    for txt in texts:
        for stop in extend_match(word.letters, txt, 0, None, bindings):
            yield tuple(map(image, variables)), txt[:stop]


def _factor_key(texts: Sequence[tuple[str, ...]], word: Word) -> tuple:
    """The factor key of ``word`` over M(W), W's texts per ``_factor_texts``.

    The key is content(word) with the set of pairs (θ, θ(word)) over every
    θ (each variable of ``word`` to a word) with θ(word) a factor of a word
    of W, the empty word included.  A substitution that sends a variable to
    0 sends both sides of an identity to 0; any other one is such a θ for a
    side exactly when that side's value is not 0, and then the value is
    θ(side).  So M(W) |= u = v iff u and v have equal keys.  The θ are the
    factor embeddings that ``words.extend_match`` yields.  The content
    stands for the all-empty θ, which no text finds when W has no nonempty
    word: substituting 0 for a variable in one side only separates sides
    with different contents even in M(W) = {1, 0}.
    """
    variables = tuple(sorted(word.content()))
    return variables, set(_factor_pairs(texts, word, variables))


def _has_factor_key(texts: Sequence[tuple[str, ...]], word: Word, key: tuple) -> bool:
    """Whether ``word``'s factor key is ``key``.  A content mismatch
    rejects before any match, and the search ends at the first pair that
    ``key`` lacks; only a word whose pairs all lie in ``key`` is counted in
    full."""
    variables, pairs = key
    if tuple(sorted(word.content())) != variables:
        return False
    seen: set[tuple] = set()
    for pair in _factor_pairs(texts, word, variables):
        if pair not in pairs:
            return False
        seen.add(pair)
    return len(seen) == len(pairs)


@dataclass(frozen=True)
class _LinearSplit:
    """u = prefix·lhs·suffix and v = prefix·rhs·suffix, with prefix and
    suffix the longest common ones, and the letters that occur once in u
    and once in v, inside the prefix or the suffix."""

    prefix: Word
    lhs: Word
    rhs: Word
    suffix: Word
    linear: frozenset[str]


def _linear_split(ident: Identity) -> _LinearSplit:
    prefix, lhs, rhs, suffix = _split_rule(ident.lhs.letters, ident.rhs.letters)
    u_count, v_count = ident.lhs.occurrences(), ident.rhs.occurrences()
    linear = frozenset(c for c in prefix + suffix if u_count[c] == 1 and v_count[c] == 1)
    # Slices of valid words: their letters need no validation.
    return _LinearSplit(Word._of(prefix), Word._of(lhs), Word._of(rhs), Word._of(suffix), linear)


def _elimination_failures(space: _AssignmentSpace, split: _LinearSplit) -> np.ndarray:
    """Whether each assignment of ``space`` has a failing completion: a
    choice of the linear letters outside the space and its fixed letters
    under which the sides differ."""
    linear = split.linear - space.columns.keys()
    left = space.value_sets(split.prefix, linear)
    right = space.value_sets(split.suffix, linear)
    table = space.M.table
    lhs = table[:, space.values(split.lhs)].T  # [r, a] = a·u'(r)
    rhs = table[:, space.values(split.rhs)].T
    differ = table[lhs] != table[rhs]  # [r, a, b]: a·u'(r)·b vs a·v'(r)·b
    return (differ & left[:, :, None] & right[:, None, :]).any(axis=(1, 2))


def _by_elimination(space: _AssignmentSpace, ident: Identity, split: _LinearSplit) -> SatisfactionResult:
    """Decide M |= ident over n^|C| assignments of its non-linear letters C;
    ``space`` is the identity's full space, whose size ``checked`` reports."""
    M, n = space.M, space.M.order
    others = [c for c in space.variables if c not in split.linear]
    if not _elimination_failures(_AssignmentSpace(M, others), split).any():
        return SatisfactionResult(holds=True, checked=space.total)
    fixed: dict[str, int] = {}
    for var in space.variables:
        free = [var] + [c for c in others if c != var and c not in fixed]
        fails = _elimination_failures(_AssignmentSpace(M, free, fixed), split)
        fixed[var] = int(np.argmax(fails.reshape(n, -1).any(axis=1)))
    witness = {v: M.elements[i] for v, i in fixed.items()}
    return SatisfactionResult(
        holds=False,
        witness=witness,
        lhs_value=evaluate(M, ident.lhs, witness),
        rhs_value=evaluate(M, ident.rhs, witness),
        checked=space.total,
    )


def _by_scan(space: _AssignmentSpace, split: _LinearSplit) -> SatisfactionResult:
    """Decide M |= A·u'·B = A·v'·B, split as ``split``, under every
    assignment of ``space``.  A is evaluated once and both middles continue
    from its values.  B is applied only when the middles differ at some
    assignment, and then to both sides at every assignment.  An assignment
    where the middles agree gives equal sides, so the sides differ only
    where the middles do, and the first assignment at which they differ
    after B is the first failing assignment of all n^k: the witness."""
    prefix = space.values(split.prefix)
    lhs = space.values(split.lhs, prefix)
    rhs = space.values(split.rhs, prefix)
    neq = lhs != rhs
    if split.suffix and neq.any():
        lhs = space.values(split.suffix, lhs)
        rhs = space.values(split.suffix, rhs)
        neq = lhs != rhs
    if not neq.any():
        return SatisfactionResult(holds=True, checked=space.total)
    first = int(np.argmax(neq))
    return SatisfactionResult(
        holds=False,
        witness=space.assignment(first),
        lhs_value=space.M.elements[int(lhs[first])],
        rhs_value=space.M.elements[int(rhs[first])],
        checked=space.total,
    )


def satisfies(M: FiniteMonoid, ident: Identity, *, budget: int = DEFAULT_BUDGET) -> SatisfactionResult:
    """Decide M |= ident.

    Raises BudgetExceededError when the assignment space n^k exceeds
    ``budget``, checked before anything else, so for every M and every path
    below, and for two equal sides too.  Two equal sides then hold at once,
    with no path run.  Three paths decide any other identity (see the
    module docstring):

    - a word-factor quotient M(W) (built by ``rees_quotient``) compares the
      sides' factor keys, with no n^k array when the identity holds;
    - an identity with at least three linear letters (once in each side,
      inside the longest common prefix or suffix) is decided by eliminating
      them, over the n^|C| assignments of the other letters C;
    - any other identity, and a failure in M(W) with fewer than three
      linear letters, by exhaustive substitution (vectorized), which
      evaluates the common prefix once and the common suffix only where
      the rest of the two sides differ.

    A failure's witness is the first failing assignment in mixed-radix
    enumeration order (variables sorted, first most significant, element
    values in table order).  ``checked`` is the number of substitutions n^k
    the verdict covers, whichever path reached it.
    """
    space = _AssignmentSpace(M, sorted(ident.variables()))
    _check_budget(space, budget)
    if ident.lhs == ident.rhs or (
            M.factor_words is not None and space.same_as(ident.lhs)(ident.rhs)):
        return SatisfactionResult(holds=True, checked=space.total)
    split = _linear_split(ident)
    if len(split.linear) >= 3:
        return _by_elimination(space, ident, split)
    return _by_scan(space, split)


def satisfies_all(
    M: FiniteMonoid, idents: Iterable[Identity]
) -> tuple[bool, list[SatisfactionResult]]:
    results = [satisfies(M, ident) for ident in idents]
    return all(r.holds for r in results), results


def close_under_deletion(idents: Iterable[Identity] | Identity) -> list[Identity]:
    """All identities obtained by deleting any subset of variables from the
    given ones (projecting both sides), trivial ones dropped, de-duplicated
    up to swapping sides, in deterministic shortlex order."""
    if isinstance(idents, Identity):
        idents = [idents]
    out: list[Identity] = []
    seen: set[frozenset] = set()
    for ident in idents:
        variables = sorted(ident.variables())
        for r in range(len(variables) + 1):
            for removed in itertools.combinations(variables, r):
                keep = set(variables) - set(removed)
                cand = Identity(ident.lhs.project(keep), ident.rhs.project(keep))
                if cand.is_trivial():
                    continue
                key = cand.unordered_key()
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    out.sort(key=lambda i: (i.lhs, i.rhs))
    return out


# ---------------------------------------------------------------------------
# Relatively free monoids (evaluation-tuple BFS)
# ---------------------------------------------------------------------------


@dataclass
class TupleConflict:
    """Two words with the same evaluation tuple in B but different tracked
    values in A; yields the separating identity for membership."""

    existing_word: Word
    new_word: Word
    existing_value: str
    new_value: str


@dataclass
class RelFree:
    base: FiniteMonoid
    generators: tuple[str, ...]
    complete: bool
    size: int
    transitions: np.ndarray  # (size, k) int32; -1 for unexpanded
    parent: np.ndarray  # (size,) int32; -1 at the root
    parent_letter: np.ndarray  # (size,) int32; -1 at the root
    conflict: TupleConflict | None = None

    def word_of(self, state: int) -> Word:
        letters: list[str] = []
        while state != 0:
            letters.append(self.generators[int(self.parent_letter[state])])
            state = int(self.parent[state])
        return Word(reversed(letters))

    def state_of(self, word: Word) -> int | None:
        state = 0
        gen_index = {g: i for i, g in enumerate(self.generators)}
        for c in word.letters:
            nxt = int(self.transitions[state, gen_index[c]])
            if nxt < 0:
                return None
            state = nxt
        return state

    def representative_words(self) -> list[Word]:
        return [self.word_of(s) for s in range(self.size)]


@dataclass(frozen=True)
class _Separating:
    """Assignments that separate words, laid out for one lookup per letter
    (see ``_separating_columns``).  A word's values are the ``bytes`` of
    its tuple, in the table's dtype."""

    table: np.ndarray  # the factors' column-major tables, one block each
    columns: list[np.ndarray]  # per variable: kept element index * n_f + block offset
    root: np.ndarray  # the empty word's values: each factor's identity
    widths: list[int]  # the number of assignments each factor keeps
    lookup: bytes | None  # the table padded to 256 bytes, when it has at most 256 entries

    def times(self, column: np.ndarray, values: bytes) -> bytes:
        """The values of u·x, from those of u and x's column: one lookup
        per kept assignment, ``table[column + values]``.  A table of at
        most 256 entries is indexed by a byte, so the sum stays in uint8
        and ``bytes.translate`` looks it up; a larger one is gathered."""
        if self.lookup is not None:
            return (column + np.frombuffer(values, np.uint8)).tobytes().translate(self.lookup)
        return self.table.take(column + np.frombuffer(values, self.table.dtype)).tobytes()


def _separating_columns(factors: Sequence[FiniteMonoid], k: int) -> _Separating:
    """Assignments of k variables that tell two words apart exactly when
    they differ in the direct product of ``factors`` (a monoid that is no
    product is its own single factor).

    Words are equal in a product iff they are equal in every factor, so
    each factor f of n_f elements keeps assignments of its own.  Where f
    has a proper zero z (z != e), let Z be the variables an assignment t
    sends to z.  A word u whose content meets Z has u(t) = z; any other u
    has u(t) = u(t'), where t' sends Z to e and so is zero-free.  Content
    is read off the k probes p_i (x_i -> z, every other variable -> e):
    u(p_i) = z iff x_i occurs in u.  So f keeps its (n_f - 1)^k zero-free
    assignments and the k probes; without a proper zero (the trivial
    monoid's zero is its identity) it keeps all n_f^k.

    Every block gathers through one table: the factors' column-major
    tables (``_by_column``) concatenated, f's block offset by the earlier
    factors' n_g^2, in the least unsigned dtype that holds an element
    index of the largest factor.  A variable's column holds, per kept
    assignment, the element index times n_f plus f's offset, so the
    values of u·x_j, factor-local like the root's, are one lookup,
    ``times(columns[j], values(u))``.  When the table has at most 256
    entries (the sum of n_f^2), every column entry plus a value is below
    256, so the columns are uint8 and the product is a byte translation.
    A larger product's columns are int32 when any factor's block is (one
    over ``MAX_DIM``), otherwise native ints, and each block is widened to
    that dtype before its offset is added.

    Each factor's table and unshifted block (``_zero_cut``) come from its
    own memo, so a monoid that is no product gets its columns and table
    as they are kept, read-only; only a product shifts and concatenates
    its factors' blocks and tables on every call.
    """
    blocks = [_zero_cut(f, k) for f in factors]
    widths = [block.shape[1] for block in blocks]
    if len(factors) == 1:
        table, columns = _by_column(factors[0]), blocks[0]
    else:
        # Concatenation promotes every table to the largest factor's dtype.
        table = np.concatenate([_by_column(f) for f in factors])
        dtype = (np.uint8 if len(table) <= 256
                 else np.int32 if any(b.dtype == np.int32 for b in blocks) else np.intp)
        offsets = itertools.accumulate((f.order ** 2 for f in factors[:-1]), initial=0)
        # Added in ``dtype``: a uint8 block plus its offset would wrap.
        columns = np.concatenate(
            [np.add(block, offset, dtype=dtype) for block, offset in zip(blocks, offsets)], axis=1)
    return _Separating(
        table=table,
        columns=list(columns),
        root=np.repeat(np.array([f.identity for f in factors], dtype=table.dtype), widths),
        widths=widths,
        lookup=table.tobytes().ljust(256, b"\0") if len(table) <= 256 else None,
    )


def _zero_cut(f: FiniteMonoid, k: int) -> np.ndarray:
    """Factor f's block of ``_separating_columns`` before any offset: per
    variable, the element index times n_f on each kept assignment.  Its
    width is at most n_f^k.  When n_f <= 16 it is uint8, since every entry
    is below n_f^2 <= 256, the byte index of ``_Separating.times``.  A
    larger factor's block is native ints when n_f^k <= ``MAX_DIM`` (a
    gather through int32 indices costs measurably more), and above that it
    is int32, since a native copy would double the bytes of the largest
    columns the kernel holds.  It is kept read-only in f's memo while
    n_f^k <= ``MAX_DIM``, and built afresh above that, its position rows
    then made directly in the block's dtype: int32 rows narrowed
    afterwards would hold five times a uint8 block's bytes at once."""
    memoized = f.order ** k <= MAX_DIM

    def build():
        n, e, z = f.order, f.require_identity(), f.zero_index()
        dtype = np.uint8 if n * n <= 256 else np.intp if memoized else np.int32
        rows = _positions(f, k) if memoized else _position_rows(n, k, dtype)
        cols = rows.astype(dtype, copy=False)
        if z is not None and z != e:
            probes = np.full((k, k), e * n, dtype=cols.dtype)
            np.fill_diagonal(probes, z * n)
            cols = np.concatenate([cols[:, (cols != z * n).all(axis=0)], probes], axis=1)
        return cols

    return f._cached(("zero_cut", k), build) if memoized else build()


def _left_divisor_test(
    factors: Sequence[FiniteMonoid], cut: _Separating, w: bytes
) -> Callable[[bytes], bool]:
    """A test of whether the values p of a word left-divide the values
    ``w`` on ``cut`` (laid out over ``factors``): w(t) in p(t)·M_f on
    every kept assignment t, M_f the factor that t belongs to.

    It looks up like ``_Separating.times``, in the factors' right ideals
    (``_right_ideals``) laid out as their tables are: entry w·n_f + a of
    f's block, offset as f's table block, is whether w lies in a·M_f.  So
    w's column holds w(t)·n_f plus f's offset, and the test is that every
    entry at that column plus p holds.  On a table of at most 256 entries
    the sum is a byte and the lookup a byte translation."""
    orders = [f.order for f in factors]
    offsets = list(itertools.accumulate((n * n for n in orders[:-1]), initial=0))
    ideals = np.concatenate([_right_ideals(f).T.reshape(-1) for f in factors])
    column = (np.frombuffer(w, cut.table.dtype) * np.repeat(orders, cut.widths)
              + np.repeat(offsets, cut.widths))
    if cut.lookup is not None:
        column, lookup = column.astype(np.uint8), ideals.tobytes().ljust(256, b"\0")
        return lambda p: b"\0" not in (column + np.frombuffer(p, np.uint8)).tobytes().translate(lookup)
    return lambda p: bool(ideals.take(column + np.frombuffer(p, cut.table.dtype)).all())


class _Walk:
    """The values of words on a ``_Separating``, for a stream of words in
    which neighbours share prefixes.  ``variables`` names the cut's
    columns in order, and a word is a sequence of those names.  The walk
    keeps every prefix of the last word with its values, so a word
    re-gathers only from its first letter that differs from the word before
    it, and the walk holds len(word) + 1 tuples of the cut's width, each as
    the ``bytes`` that ``_Separating.times`` returns."""

    def __init__(self, cut: _Separating, variables: Sequence[str]):
        self.times, self.columns = cut.times, dict(zip(variables, cut.columns))
        self.path: list[tuple] = [(None, cut.root.tobytes())]  # [i]: word[i - 1], values of word[:i]

    def values(self, word: Sequence[str]) -> bytes:
        """The values of ``word``."""
        for i, c in enumerate(word):
            if len(self.path) <= i + 1 or self.path[i + 1][0] != c:
                self.path[i + 1:] = [(c, self.times(self.columns[c], self.path[i][1]))]
        del self.path[len(word) + 1:]
        return self.path[-1][1]


def rel_free(
    M: FiniteMonoid,
    k: int,
    *,
    generators: Sequence[str] | None = None,
    max_states: int = MAX_STATES,
    max_dim: int = MAX_DIM,
    track: FiniteMonoid | None = None,
    track_images: Sequence[str] | None = None,
) -> RelFree:
    """Build the monoid of k-variable evaluation maps over M.

    A state is the class of the words with the same value under every
    assignment of M's n elements to the k generators, held as the tuple of
    its values on assignments that separate those classes (below); the BFS
    from the empty word follows right multiplication by the generators, so
    state representatives are shortlex-minimal.  With
    ``track``/``track_images`` every state also carries the value of its
    representative word in the tracked monoid under generator i ->
    track_images[i]; the first tuple collision with a differing tracked
    value is reported as a conflict and ends the search.

    Most transitions are looked up rather than computed (Froidure & Pin,
    "Algorithms for computing finite semigroups", 1997).  A state u other
    than the root keeps its first letter b and its suffix s, the state of
    word(u) without b.  When r = s·x_j was not created from (s, j), the word
    word(s)·x_j is no representative, so u·x_j = x_b·word(r) is no new
    state: it is read from ``left`` (the state of x_b·word(v), filled for a
    whole BFS level once that level's rows are done) and the transitions.
    For an r created from (s, j) the same lookup ends at u's own entry for
    x_j, still -1, so it needs no test of its own.  Those transitions, the
    ones whose r is the root, and any lookup that meets a -1 (a state
    skipped by the cap, or a row not yet filled) take the tuple product,
    so the result never depends on the lookups succeeding.  The conflict
    check runs on every transition either way.  Each state's tuple is kept
    once, as its ``bytes`` key.

    The assignments kept are ``_separating_columns``' over M's factors
    (M alone when it is no ``direct_product``): each factor's zero-free
    assignments and probes, which tell two words apart exactly when all
    n^k assignments of M do.  Right multiplication acts on each assignment
    alone, so the BFS meets the same states in the same order as over all
    n^k, and the key of u·x_j is one ``_Separating.times`` of u's key, the
    tuple ``table[col_j + tuple(u)]`` in the table's dtype: a byte
    translation when the table has at most 256 entries, a gather otherwise.

    This builds every state: ``member`` needs the whole monoid.  The
    isoterm certifier runs the same search through ``_rel_free`` with a
    word w, and keeps only w's left divisors, which ``_rel_free`` shows
    are enough for its class search.

    Raises RelFreeCapExceeded if n^k, over M's own n elements, exceeds
    ``max_dim`` (whatever the number of assignments kept).
    Returns ``complete=False`` (with whatever was found) if the search ended
    at a conflict or the state count would exceed ``max_states``.
    """
    return _rel_free(M, k, generators=generators, max_states=max_states, max_dim=max_dim,
                     track=track, track_images=track_images)


def _rel_free(
    M: FiniteMonoid,
    k: int,
    *,
    generators: Sequence[str] | None = None,
    max_states: int = MAX_STATES,
    max_dim: int = MAX_DIM,
    track: FiniteMonoid | None = None,
    track_images: Sequence[str] | None = None,
    divides: Word | None = None,
) -> RelFree:
    """``rel_free``'s search.  Given a word w over the generators as
    ``divides``, it keeps only the states p with w(t) in p(t)·M_f on every
    kept assignment t, M_f the factor that t belongs to, as
    ``_left_divisor_test`` decides.  A new tuple that fails is not added:
    its transition stays -1, and it counts toward neither ``max_states``
    nor ``complete``.

    The kept set is closed under prefixes (w in p·x·M_f lies in p·M_f), so
    the search still reaches each kept state by its shortlex-least word,
    and the kept states with their transitions among them are exactly
    those of the whole monoid.  Every prefix p of a word u in w's class is
    kept, since u = p·q gives w(t) = p(t)·q(t).  So the states that can
    reach w's state, and the edges between them, are the whole monoid's,
    which is all ``_second_word_in_class`` reads.  Suffixes of kept states
    need not be kept: a missing suffix row makes the Froidure–Pin lookups
    meet a -1, and the transition takes the tuple product.
    """
    M.require_identity()
    n = M.order
    dim = n ** k
    if dim > max_dim:
        raise RelFreeCapExceeded(
            f"evaluation tuples have dimension {n}^{k} = {dim} > max_dim {max_dim}"
        )
    gen_names = tuple(generators) if generators is not None else tuple(
        f"x{i + 1}" for i in range(k)
    )
    if len(gen_names) != k:
        raise ValueError("generator name list must have length k")

    # A list of rows, bound once: indexing the 2-D array on every step
    # of the search costs measurably more.  The product takes a state's
    # key and returns the new tuple's key, so no tuple is held as an array.
    factors = M.factors or (M,)
    cut = _separating_columns(factors, k)
    gen_cols, times = cut.columns, cut.times
    keep = None
    if divides is not None:
        keep = _left_divisor_test(factors, cut, _Walk(cut, gen_names).values(divides.letters))

    tracked = None
    if track is not None:
        track.require_identity()
        if track_images is None or len(track_images) != k:
            raise ValueError("track_images must give one element of `track` per generator")
        images = [track.index(lbl) for lbl in track_images]
        track_table = track.table.tolist()
        tracked = [track.identity]

    root = cut.root.tobytes()
    keys = [root]  # the tuple of each state, shared with ``index``
    index: dict[bytes, int] = {root: 0}
    parent = [-1]
    parent_letter = [-1]
    first = [-1]  # first letter of the representative; -1 at the root
    suffix = [-1]  # state of the representative without its first letter
    transitions: list[list[int]] = [[-1] * k]
    unfilled = (-1,) * k
    # left[v][b] is the state of x_b·word(v): at the root, the root's own
    # row; at any other state, filled once the state's BFS level is done.
    left: list[Sequence[int]] = [transitions[0]]
    clash: tuple[int, int, int] | None = None  # (found, head, j) of a conflict
    complete = True

    head = 0
    level_start = level_end = 1  # the next level to get its left rows
    while clash is None and head < len(keys):
        if head == level_end:
            # Every row of this level is done, and so is every shorter one.
            for v in range(level_start, level_end):
                a = parent_letter[v]
                left[v] = [transitions[t][a] if t >= 0 else -1 for t in left[parent[v]]]
            level_start, level_end = level_end, len(keys)
        row = transitions[head]
        b = first[head]
        s = suffix[head]
        suffix_row = transitions[s] if s >= 0 else unfilled
        for j in range(k):
            # u·x_j = x_b·word(r) for r = s·x_j.  If r was created from
            # (s, j), the chain ends at u's own entry for x_j, still -1, so
            # only an r reached from elsewhere is ever resolved here.
            r = suffix_row[j]
            found = -1
            if r > 0:
                t = left[parent[r]][b]
                if t >= 0:
                    found = transitions[t][parent_letter[r]]
            if found < 0:
                key = times(gen_cols[j], keys[head])
                found = index.get(key)
                if found is None:
                    if keep is not None and not keep(key):
                        continue
                    if len(keys) >= max_states:
                        complete = False
                        continue
                    found = len(keys)
                    index[key] = found
                    keys.append(key)
                    parent.append(head)
                    parent_letter.append(j)
                    first.append(b if head else j)
                    suffix.append(r if head else 0)
                    transitions.append([-1] * k)
                    left.append(unfilled)
                    row[j] = found
                    if tracked is not None:
                        tracked.append(track_table[tracked[head]][images[j]])
                    continue
            row[j] = found
            if tracked is not None and track_table[tracked[head]][images[j]] != tracked[found]:
                clash = (found, head, j)
                break
        head += 1

    rf = RelFree(
        base=M,
        generators=gen_names,
        complete=complete and clash is None,
        size=len(keys),
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
            new_value=track.elements[track_table[tracked[head]][images[j]]],
        )
    return rf


# ---------------------------------------------------------------------------
# Isoterm decision
# ---------------------------------------------------------------------------


@dataclass
class IsotermBudget:
    """The bounds of ``isoterm`` a caller may set: the exhaustive phase
    scans at most ``enum_words`` words, none longer than len(w) +
    ``enum_extra_length`` or ``small_length``, and the certifier keeps at
    most ``max_states`` states of the relatively free monoid.  Fixed: the
    substitution budget ``DEFAULT_BUDGET``, the anagram phase's 200,000
    rearrangements and ``rel_free``'s default dimension cap."""

    enum_words: int = 200_000
    enum_extra_length: int = 1
    small_length: int = 12
    max_states: int = MAX_STATES


@dataclass
class IsotermVerdict:
    kind: str  # "not_isoterm" | "certified" | "bounded_only"
    word: Word
    witness: Word | None = None
    bound: int | None = None
    details: dict = field(default_factory=dict)


def _perturbations(w: Word) -> list[Word]:
    """Adjacent transpositions, single-letter deletions, duplications."""
    letters = w.letters
    out: set[Word] = set()
    for i in range(len(letters) - 1):
        if letters[i] != letters[i + 1]:
            swapped = letters[:i] + (letters[i + 1], letters[i]) + letters[i + 2 :]
            out.add(Word(swapped))
    for i in range(len(letters)):
        out.add(Word(letters[:i] + letters[i + 1 :]))
        out.add(Word(letters[: i + 1] + letters[i:]))
    out.discard(w)
    return sorted(out)


def _anagrams(M: FiniteMonoid, w: Word) -> Iterator[Word]:
    """The first 4096 same-multiset rearrangements of w, other than w, that
    survive pruning by two-variable projections, in sorted order.

    The projection of a satisfied identity onto any variable pair is
    satisfied (delete the other variables), so any rearrangement whose pair
    projection is not M-equivalent to w's pair projection is discarded
    prefix-first.  Nothing is yielded for fewer than two letters or more
    than 200,000 rearrangements.  ``isoterm`` has checked the n^k
    assignments of w's k >= 2 letters, so each pair's n^2 needs no check.
    """
    counts = w.occurrences()
    letters = sorted(counts)
    if len(letters) < 2:
        return
    perm_count = math.factorial(len(w)) // math.prod(map(math.factorial, counts.values()))
    if perm_count > 200_000:
        return

    # For every pair: the prefixes of the same-multiset rearrangements of
    # w's projection onto the pair that M makes equal to it.
    allowed: dict[tuple[str, str], set[tuple[str, ...]]] = {}
    for a, b in itertools.combinations(letters, 2):
        same = _AssignmentSpace(M, (a, b)).same_as(w.project({a, b}))
        length = counts[a] + counts[b]
        prefixes = allowed[a, b] = set()
        for positions in itertools.combinations(range(length), counts[b]):
            arrangement = tuple(b if i in positions else a for i in range(length))
            if same(Word(arrangement)):
                prefixes.update(arrangement[:ell] for ell in range(length + 1))

    # DFS over positions, keeping each pair's projection of the prefix.
    # Letters are tried in sorted order, so the leaves come out sorted.
    remaining = dict(counts)
    projected: dict[tuple[str, str], tuple[str, ...]] = {p: () for p in allowed}
    prefix: list[str] = []

    def leaves() -> Iterator[Word]:
        if not any(remaining.values()):
            yield Word(prefix)
            return
        for c in letters:
            if not remaining[c]:
                continue
            updates = {p: projected[p] + (c,) for p in allowed if c in p}
            if all(t in allowed[p] for p, t in updates.items()):
                saved = {p: projected[p] for p in updates}
                projected.update(updates)
                remaining[c] -= 1
                prefix.append(c)
                yield from leaves()
                prefix.pop()
                remaining[c] += 1
                projected.update(saved)

    yield from itertools.islice((leaf for leaf in leaves() if leaf != w), 4096)


def _exhaustive_bound(k: int, length: int, budget: IsotermBudget) -> int:
    """The largest length ell such that the words of length <= ell over k
    letters number at most ``enum_words``, capped at ``length +
    enum_extra_length`` and ``small_length``, and at 0 when k = 0 (the
    empty word is then the only word); -1 if not even the empty word fits.
    """
    cap = min(length + budget.enum_extra_length, budget.small_length)
    if k == 0:
        cap = min(cap, 0)
    bound, total = -1, 0
    while bound < cap and total + k ** (bound + 1) <= budget.enum_words:
        bound += 1
        total += k ** bound
    return bound


class _CertifierSkipped(Exception):
    """The isoterm certifier cannot decide; the message says why."""


def isoterm(M: FiniteMonoid, w: Word, *, budget: IsotermBudget | None = None) -> IsotermVerdict:
    """Decide whether w is an isoterm for M (no nontrivial identity with w
    on one side holds in M).

    The falsifier searches one candidate stream, in three named phases,
    for a word other than w that M makes equal to it: ``perturbations``,
    ``anagrams`` (pruned rearrangements) and ``exhaustive`` (every word
    over content(w) of length 0..bound in shortlex order, the bound fixed
    up front by ``_exhaustive_bound``).  A hit is NotIsoterm's witness,
    with ``phase`` its only detail.

    The certifier runs after ``perturbations`` and before the other two
    phases.  It looks for a second word in w's class among w's left
    divisors in the relatively free monoid on content(w) (``_rel_free``
    with ``divides``), and reports how many it kept as
    ``left_divisor_states``.  If there is none, the verdict is Certified
    at once: no later phase could hit.  Otherwise the later phases run as
    they would without it, so a hit there is still the witness, and only
    when both come up empty is the certifier's word, re-checked with
    ``satisfies``, NotIsoterm's witness.  The certifier requires M to have
    a zero element so that any word equal to w under M must use exactly
    w's variables (substituting the zero for a missing/extra variable
    would otherwise escape the class); when it cannot run, the verdict is
    BoundedOnly with the scanned bound and ``certifier`` set to ``skipped:
    <reason>``.  Raises BudgetExceededError, before any phase, when
    content(w) has more than ``DEFAULT_BUDGET`` assignments.
    """
    budget = budget or IsotermBudget()
    # One equality test over content(w) checks the candidates of every
    # phase; every candidate uses only w's variables.
    gens = tuple(sorted(w.content()))
    space = _AssignmentSpace(M, gens)
    _check_budget(space, DEFAULT_BUDGET)
    same = space.same_as(w)
    bound = _exhaustive_bound(len(gens), len(w), budget)

    def falsify(*phases) -> IsotermVerdict | None:
        for phase, candidates in phases:
            hit = next((cand for cand in candidates if cand != w and same(cand)), None)
            if hit is not None:
                return IsotermVerdict("not_isoterm", w, witness=hit, details={"phase": phase})
        return None

    if verdict := falsify(("perturbations", _perturbations(w))):
        return verdict
    details: dict = {"exhausted_length": bound}

    # Certifier via w's left divisors in the relatively free monoid on
    # content(w).
    witness = None
    try:
        zero = M.zero_index()
        if zero is None or zero == M.identity:
            raise _CertifierSkipped("base monoid has no proper zero")
        rf = _rel_free(M, len(gens), generators=gens, max_states=budget.max_states, divides=w)
        if not rf.complete:
            raise _CertifierSkipped("state cap reached")
        details["left_divisor_states"] = rf.size
        target = rf.state_of(w)
        if target is None:
            raise AssertionError("a complete free object must contain the word's class")
        witness = _second_word_in_class(rf, target, w)
        if witness is None:
            details["certifier"] = "class of w is a singleton"
            return IsotermVerdict("certified", w, details=details)
    except (_CertifierSkipped, RelFreeCapExceeded) as exc:
        details["certifier"] = f"skipped: {exc}"

    exhaustive = (Word(t) for ell in range(bound + 1) for t in itertools.product(gens, repeat=ell))
    if verdict := falsify(("anagrams", _anagrams(M, w)), ("exhaustive", exhaustive)):
        return verdict
    if witness is None:
        return IsotermVerdict("bounded_only", w, bound=bound, details=details)
    check = satisfies(M, Identity(w, witness))
    if not check.holds:
        raise AssertionError("certifier produced a bad witness")
    details["certifier"] = "class of w contains other words"
    return IsotermVerdict("not_isoterm", w, witness=witness, details=details)


def _second_word_in_class(rf: RelFree, target: int, w: Word) -> Word | None:
    """A word other than w whose evaluation tuple is rf's target state, or
    None if the class is exactly {w}.

    Class words correspond to root-to-target paths through the trimmed
    automaton (states that can still reach the target; every state is
    reachable by construction).  Every step reads one edge array, the
    (src, dst) pair of each transition of rf, and the two searches on it
    are fixed points.  Co-reachability grows backward: start from the
    target and add the source of every edge into a state already in, until
    no edge adds one.  The edges kept are those into trimmed states, whose
    sources are trimmed too.  Acyclicity is a peel: from the trimmed
    states, keep only those that a kept edge enters from a state still
    kept, until none goes.  A state on a cycle always stays, and without a
    cycle a state whose longest path in has r edges goes in round r + 1,
    so nothing stays iff the trimmed part is acyclic; then the least path
    other than w is the answer.  A cycle makes the class infinite; a
    bounded per-length count over the kept edges then picks a length, and
    the answer is the least path of that length other than w.

    rf may keep only w's left divisors (``_rel_free`` with ``divides``):
    the trimmed part, all that is read, is then the whole monoid's, so the
    answer is the same.  The cyclic scan's step cap, len(w) + 3·size + 2,
    still reads rf.size, and it stays sound because it needs only size to
    bound the trimmed states N: a root path to a state on a cycle, once
    round the cycle and on to the target gives class words of lengths l
    and l + c with l <= 2N - 2 and c <= N, one of which is not len(w); so
    the wanted length is at most 3N - 2, whatever else rf keeps.

    Raises RelFreeCapExceeded if the cyclic-case scan exceeds its step cap.
    """
    size = rf.size
    present = rf.transitions >= 0
    src, _ = np.nonzero(present)
    dst = rf.transitions[present]

    co = np.arange(size) == target
    while not co[into := src[co[dst]]].all():
        co[into] = True
    keep = co[dst]
    src, dst = src[keep], dst[keep]
    alive = co
    while not np.array_equal(alive, fed := np.bincount(dst[alive[src]], minlength=size) > 0):
        alive = fed

    if not alive.any():
        return _least_other_path(
            rf, w, lambda depth, t: co[t], lambda depth, t: t == target
        )

    # cyclic: the class is infinite; find the least length != |w| (or = |w|
    # with a second word) carrying a class word, by saturated counting
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

    # backward table: reach[r, s] == state s reaches target in exactly r steps
    reach = np.zeros((want + 1, size), dtype=bool)
    reach[0, target] = True
    for r in range(1, want + 1):
        row = np.zeros(size, dtype=bool)
        np.logical_or.at(row, src, reach[r - 1][dst])
        reach[r] = row

    return _least_other_path(
        rf, w,
        lambda depth, t: depth <= want and reach[want - depth, t],
        lambda depth, t: depth == want,
    )


def _least_other_path(
    rf: RelFree,
    w: Word,
    enter: Callable[[int, int], bool],
    accept: Callable[[int, int], bool],
) -> Word | None:
    """The lexicographically least root path of rf, other than w, that ends
    in a state t at depth d with ``accept(d, t)``, descending only into
    states with ``enter(d, t)``; None if there is none.

    Callers pass an ``enter`` that holds only on states with an accepted
    path below them, so the walk backtracks only along w.
    """
    k, trans = len(rf.generators), rf.transitions
    path: list[str] = []
    frames: list[tuple[int, int]] = [(0, 0)]
    while frames:
        s, j = frames[-1]
        depth = len(frames) - 1
        if j == 0 and accept(depth, s) and tuple(path) != w.letters:
            return Word(path)
        if j == k:
            frames.pop()
            if path:
                path.pop()
            continue
        frames[-1] = (s, j + 1)
        t = int(trans[s, j])
        if t >= 0 and enter(depth + 1, t):
            path.append(rf.generators[j])
            frames.append((t, 0))
    return None


# ---------------------------------------------------------------------------
# Variety membership
# ---------------------------------------------------------------------------


def minimal_generating_set(M: FiniteMonoid) -> tuple[str, ...]:
    """Smallest generating set (as a monoid), deterministic: smallest size
    first, then the lexicographically earliest index combination.

    The search starts from the required elements: a != e is required when
    it is no product b*c with b, c outside {e, a}.  An element is generated
    by the others iff it is such a product (split a shortest product after
    its first letter), so every generating set contains every required
    element.  Among equal-size sets that contain them, index order is
    decided by the least differing element, an addition, so trying the
    additions in combination order finds the same set.  The search runs
    once per instance; M's memo keeps its result.
    """
    return M._cached("minimal_generating_set", lambda: _minimal_generating_set(M))


def _minimal_generating_set(M: FiniteMonoid) -> tuple[str, ...]:
    """The search behind ``minimal_generating_set``, run on every call."""
    e = M.require_identity()
    n = M.order
    # One pass over the table: a cell (b, c) makes its value a product of
    # others unless it is b or c, which also rules out the identity's row
    # and column (e*c = c, b*e = b).
    idx = np.arange(n)
    cells = (M.table != idx[:, None]) & (M.table != idx[None, :])
    product = np.zeros(n, dtype=bool)
    product[M.table[cells]] = True
    required = [a for a in range(n) if a != e and not product[a]]
    optional = [a for a in range(n) if a != e and product[a]]
    for size in range(0, len(optional) + 1):
        for extra in itertools.combinations(optional, size):
            combo = sorted(required + list(extra))
            if len(generated_indices(M, [e, *combo])) == n:
                return tuple(M.elements[i] for i in combo)
    raise AssertionError("unreachable: full candidate set always generates")


@dataclass
class MemberVerdict:
    kind: str  # "member" | "not_member" | "unknown"
    witness: Identity | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.kind == "member"


def member(
    A: FiniteMonoid,
    B: FiniteMonoid,
    *,
    max_states: int = MAX_STATES,
    max_dim: int = MAX_DIM,
) -> MemberVerdict:
    """Decide whether A lies in the variety generated by B.

    Route: take a minimal generating set a_1..a_k of A and build the
    relatively free monoid of B's variety on k generators while tracking
    the A-value of every representative word under x_i -> a_i.  A tuple
    collision with different A-values yields an identity of B's variety
    that A fails (NotMember).  Completion without conflict proves the
    assignment x_i -> a_i factors through the free object, i.e. A is a
    quotient of a submonoid of a power of B (Member).  Cap overflow falls
    back to a bounded identity search (at most 3 variables, sides of
    length at most 6, within ``DEFAULT_BUDGET`` substitutions); if that
    also finds nothing the verdict is Unknown.  A witness from either
    route is re-checked with ``satisfies`` (it must hold in B and fail in
    A) before NotMember is returned.
    """
    A.require_identity()
    B.require_identity()
    gens = minimal_generating_set(A)
    k = len(gens)
    details: dict = {"generators": list(gens)}
    try:
        rf = rel_free(
            B, k, max_states=max_states, max_dim=max_dim,
            track=A, track_images=gens,
        )
    except RelFreeCapExceeded as exc:
        details["relfree"] = f"capped: {exc}"
        rf = None
    if rf is not None and rf.conflict is not None:
        c = rf.conflict
        witness = Identity(c.existing_word, c.new_word)
        details["a_values"] = (c.existing_value, c.new_value)
    elif rf is not None and rf.complete:
        details["free_monoid_size"] = rf.size
        return MemberVerdict("member", details=details)
    else:
        if rf is not None:
            details["relfree"] = "state cap reached"
        witness = _bounded_identity_search(A, B)
        if witness is None:
            return MemberVerdict("unknown", details=details)
    # Either route's witness must hold in B and fail in A.
    if not satisfies(B, witness).holds or satisfies(A, witness).holds:
        raise AssertionError("membership witness failed re-verification")
    return MemberVerdict("not_member", witness=witness, details=details)


def _bounded_identity_search(A: FiniteMonoid, B: FiniteMonoid) -> Identity | None:
    """First identity u = v that holds in B and fails in A, where for some
    nvars <= 3 both sides are words of length <= 6 that use every one of
    x1..x_nvars.

    Smaller nvars are searched first, and only while A's and B's n^nvars
    substitutions fit ``DEFAULT_BUDGET``.  Within one nvars, v is the first
    word in shortlex order whose B-values equal those of the first word u
    with those B-values while its A-values differ.  Identities whose sides
    use different variable sets (such as x1^2 x2 = x1^2) are never tried.

    A word's values are read on ``_separating_columns`` over B's factors
    followed by A's, so one gather per letter extends B's and A's at once,
    and the first part of each tuple, B's, keys the buckets.  The words of
    each length come in ``itertools.product`` order through one ``_Walk``.
    A word that skips a variable is not evaluated, and any other re-gathers
    only from its first letter that differs from the word evaluated before
    it.  So within one length the gathers number at most the nodes of the
    trie of the evaluated words, no more than one per node of the trie of
    all words, and the walk holds at most 7 tuples: a word of length 6 and
    its prefixes.
    """
    b_factors = B.factors or (B,)
    for nvars in range(1, 4):
        if max(A.order, B.order) ** nvars > DEFAULT_BUDGET:
            break
        variables = [f"x{i + 1}" for i in range(nvars)]
        cut = _separating_columns(b_factors + (A.factors or (A,)), nvars)
        walk = _Walk(cut, variables)
        b_bytes = sum(cut.widths[: len(b_factors)]) * cut.table.itemsize
        buckets: dict[bytes, tuple[tuple[str, ...], bytes]] = {}
        # only words using every one of x1..x_nvars are paired
        for ell in range(nvars, 7):
            for word in itertools.product(variables, repeat=ell):
                if len(set(word)) < nvars:
                    continue
                values = walk.values(word)
                vb, va = values[:b_bytes], values[b_bytes:]
                if vb in buckets:
                    w0, va0 = buckets[vb]
                    if va0 != va:
                        return Identity(Word(w0), Word(word))
                else:
                    buckets[vb] = (word, va)
    return None
