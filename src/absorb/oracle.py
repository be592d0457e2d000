"""Brute-force search for an absorbing idempotent term.

The ground-truth side of every equivalence check: enumerate words in
(length, lexicographic) order and return the first one the definition
accepts, with no reference to the product criteria.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterator

from .core import (
    NaryTable,
    Subuniverse,
    Word,
    compute_exponent,
    is_closed,
    length_evaluable,
)
from .criteria import AbsorptionVerdict, verify_witness
from .errors import NotClosed, NotProperSubuniverse


@dataclass(frozen=True)
class OracleBounds:
    """Truncation of the word space the oracle scans.

    max_len=None resolves to max(9, k) when the table has exponent k, else 9.
    Length-1 words are searched only when allow_trivial is set.
    """

    max_vars: int = 3
    max_len: int | None = None
    allow_trivial: bool = False

    DEFAULT_MAX_LEN_TEXT: ClassVar[str] = "max(9,k)"  # what max_len=None resolves to

    def __post_init__(self) -> None:
        if self.max_vars < 1:
            raise ValueError("max_vars must be >= 1")
        floor = 1 if self.allow_trivial else 2
        if self.max_len is not None and self.max_len < floor:
            raise ValueError(f"max_len must be >= {floor}")

    def resolved_max_len(self, exponent_k: int | None) -> int:
        if self.max_len is not None:
            return self.max_len
        return max(9, exponent_k) if exponent_k is not None else 9


@dataclass(frozen=True)
class OracleOutcome:
    """FoundWitness (witness set) or NoneWithinBounds (witness None)."""

    witness: Word | None
    words_examined: int

    @property
    def found(self) -> bool:
        return self.witness is not None


class Agreement(str, Enum):
    AGREE = "Agree"
    DISAGREE = "Disagree"
    UNRESOLVED = "Unresolved"


def powers_fix_all(q: int, k: int | None) -> bool:
    """a^q = a for every element of a table whose exponent is k (None if none)."""
    return q == 1 or (k is not None and (q - 1) % (k - 1) == 0)


# (letters, variables used after them, flat-index offsets over D)
_Step = tuple[tuple[int, ...], int, list[int]]


class _WordWalk:
    """Value vectors of one pair's canonical words over the domain D (see
    search_absorbing_term): a word absorbs iff none of its values leaves B.

    The words of one length are walked depth-first in (restricted-growth)
    lexicographic order, n-1 letters per step, carrying the vector of
    left-greedy partial products, so each prefix is evaluated once for all
    the words that extend it.  The steps are tabulated once, up front: for
    each number of variables used so far, every run of n-1 letters that may
    follow, in lexicographic order, as (letters, variables used after them,
    flat-index offsets of the letters' values over D).
    """

    def __init__(self, table: NaryTable, sub: Subuniverse, max_vars: int) -> None:
        outside = [a for a in range(table.size) if a not in sub.members]
        domain = [
            rest[:i] + (a,) + rest[i:]
            for i in range(max_vars)
            for rest in itertools.product(sub.elements, repeat=max_vars - 1)
            for a in outside
        ]
        width = table.arity - 1
        m = table.size
        # columns[v][j] is the value of variable v in the j-th assignment of D;
        # a step's offsets grow by one letter at a time as o * m + that value
        columns = [[assignment[v] for assignment in domain] for v in range(max_vars)]
        self._width = width
        self._stride = m**width
        self._entries = table.entries
        self._lands_inside = [e in sub.members for e in table.entries]
        self._first = columns[0]
        self._steps: dict[int, list[_Step]] = {}
        for used in range(1, max_vars + 1):
            steps = [((v,), max(used, v + 1), columns[v]) for v in range(min(used + 1, max_vars))]
            for _ in range(width - 1):
                steps = [
                    (letters + (v,), max(u, v + 1), [o * m + c for o, c in zip(offsets, columns[v])])
                    for letters, u, offsets in steps
                    for v in range(min(u + 1, max_vars))
                ]
            self._steps[used] = steps

    def _leaf_parents(self, q: int) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
        """(prefix, vector, variables used) of every length-q word (q > 1)
        without its last n-1 letters."""
        entries, stride, steps = self._entries, self._stride, self._steps

        def descend(prefix, vector, used, depth):
            if depth == 1:
                yield prefix, vector, used
                return
            for letters, used_after, offsets in steps[used]:
                stepped = [entries[a * stride + o] for a, o in zip(vector, offsets)]
                yield from descend(prefix + letters, stepped, used_after, depth - 1)

        return descend((0,), self._first, 1, (q - 1) // self._width)

    def _first_absorbing_leaf(self, vector: list[int], steps: list[_Step]) -> int:
        """Index of the first step that completes the vector's word into an
        absorbing one, or len(steps); stops at the first escaping entry."""
        inside = self._lands_inside
        bases = [a * self._stride for a in vector]
        for i, (_letters, _used_after, offsets) in enumerate(steps):
            for b, o in zip(bases, offsets):
                if not inside[b + o]:
                    break
            else:
                return i
        return len(steps)

    def first_absorbing(self, q: int) -> tuple[tuple[int, ...] | None, int]:
        """First absorbing word of length q (None if none) and the number of
        words examined up to it."""
        if q == 1:  # x passes the coordinate outside B through unchanged
            return None, 1
        examined = 0
        for prefix, vector, used in self._leaf_parents(q):
            steps = self._steps[used]
            i = self._first_absorbing_leaf(vector, steps)
            if i < len(steps):
                return prefix + steps[i][0], examined + i + 1
            examined += len(steps)
        return None, examined

    def _verdicts(self, q: int) -> Iterator[tuple[tuple[int, ...], bool]]:
        """(letters, absorbs) for every word of length q, in walk order."""
        if q == 1:
            yield (0,), False
            return
        for prefix, vector, used in self._leaf_parents(q):
            for step in self._steps[used]:
                yield prefix + step[0], self._first_absorbing_leaf(vector, [step]) == 0


def search_absorbing_term(
    table: NaryTable,
    sub: Subuniverse,
    bounds: OracleBounds = OracleBounds(),
    prune: bool = True,
) -> OracleOutcome:
    """First absorbing idempotent word in (length, lexicographic) order.

    Pruning (on by default, never changes the classification): (a) words
    with unused declared variables are left to lower variable counts,
    (b) variables are named canonically by first occurrence, (c) a length q
    is skipped outright unless a^q = a for every element, which is exactly
    the idempotence of every length-q word.

    The pruned scan is vectorised per pair.  Each word is evaluated at once
    over the domain D of assignments of the max_vars variables with exactly
    one variable outside B, and absorbs iff no value leaves B.  D is exact:
    an all-inside assignment cannot escape the closed B, and a variable the
    word does not use ranges over the nonempty B and changes nothing.  Words
    of one length share the value vector of their common prefix, and every
    hit is re-verified with verify_witness.  prune=False scans the raw space
    (all sequences over max_vars declared variables) and checks each word in
    full with verify_witness, the independent cross-check of the pruned scan.
    """
    if not sub.is_proper():
        raise NotProperSubuniverse("oracle requires a proper subuniverse")
    if not is_closed(table, sub):
        raise NotClosed(f"subset {sub.elements} is not closed")
    n = table.arity
    k = compute_exponent(table)
    max_len = bounds.resolved_max_len(k)
    min_len = 1 if bounds.allow_trivial else 2
    walk = None  # built for the first length the prunes leave
    examined = 0
    for q in range(min_len, max_len + 1):
        if not length_evaluable(q, n):
            continue
        if prune:
            if not powers_fix_all(q, k):
                continue
            if walk is None:
                walk = _WordWalk(table, sub, bounds.max_vars)
            letters, count = walk.first_absorbing(q)
            examined += count
            if letters is not None:
                word = Word(max(letters) + 1, letters)
                if not verify_witness(table, sub, word):
                    raise RuntimeError(f"oracle hit {word} failed re-verification")
                return OracleOutcome(witness=word, words_examined=examined)
        else:
            for letters in itertools.product(range(bounds.max_vars), repeat=q):
                examined += 1
                word = Word(bounds.max_vars, letters)
                if verify_witness(table, sub, word):
                    return OracleOutcome(witness=word, words_examined=examined)
    return OracleOutcome(witness=None, words_examined=examined)


def oracle_agrees(
    table: NaryTable,
    sub: Subuniverse,
    bounds: OracleBounds,
    verdict: AbsorptionVerdict,
    outcome: OracleOutcome | None = None,
) -> Agreement:
    """Compare the criterion verdict with the oracle outcome.

    A NoneWithinBounds corroborates a negative verdict only when the
    verdict is theorem-backed and the bounds provably cover the
    constructed witness (max_vars >= 2, max_len >= k); otherwise the
    outcome carries no completeness guarantee and stays Unresolved.
    An absorbing verdict the oracle cannot confirm under adequate bounds
    is a Disagree: the x^(k-1)y witness is a theorem for every arity.
    """
    if outcome is None:
        outcome = search_absorbing_term(table, sub, bounds)
    k = verdict.exponent_k
    adequate = bounds.max_vars >= 2 and (k is None or bounds.resolved_max_len(k) >= k)
    if outcome.found:
        return Agreement.AGREE if verdict.absorbs else Agreement.DISAGREE
    if verdict.absorbs:
        return Agreement.DISAGREE if adequate else Agreement.UNRESOLVED
    if verdict.proof_status.is_proved() and adequate:
        return Agreement.AGREE
    return Agreement.UNRESOLVED
