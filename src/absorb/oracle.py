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


class _Chunk:
    """n-1 letters that extend a word, the number of variables used after
    them, and their flat-index offsets over D (built on the first visit)."""

    __slots__ = ("letters", "used_after", "offset")

    def __init__(self, letters: tuple[int, ...], used_after: int) -> None:
        self.letters = letters
        self.used_after = used_after
        self.offset: list[int] | None = None


class _WordWalk:
    """Value vectors of one pair's canonical words over the domain D (see
    search_absorbing_term): a word absorbs iff none of its values leaves B.

    The words of one length are walked depth-first in (restricted-growth)
    lexicographic order, n-1 letters per step, carrying the vector of
    left-greedy partial products, so each prefix is evaluated once for all
    the words that extend it.
    """

    def __init__(self, table: NaryTable, sub: Subuniverse, max_vars: int) -> None:
        outside = [a for a in range(table.size) if a not in sub.members]
        self._domain = [
            rest[:i] + (a,) + rest[i:]
            for i in range(max_vars)
            for rest in itertools.product(sub.elements, repeat=max_vars - 1)
            for a in outside
        ]
        self._max_vars = max_vars
        self._width = table.arity - 1
        self._size = table.size
        self._stride = table.size**self._width
        self._entries = table.entries
        self._lands_inside = [e in sub.members for e in table.entries]
        self._chunk_lists: dict[int, list[_Chunk]] = {}

    def _chunks(self, used: int) -> list[_Chunk]:
        """Every restricted-growth run of n-1 letters after `used` variables,
        in lexicographic order."""
        chunks = self._chunk_lists.get(used)
        if chunks is None:
            runs = [((), used)]
            for _ in range(self._width):
                runs = [
                    (letters + (v,), max(u, v + 1))
                    for letters, u in runs
                    for v in range(min(u + 1, self._max_vars))
                ]
            chunks = self._chunk_lists[used] = [_Chunk(*run) for run in runs]
        return chunks

    def _offset(self, chunk: _Chunk) -> list[int]:
        offset = chunk.offset
        if offset is None:
            m = self._size
            offset = chunk.offset = []
            for assignment in self._domain:
                o = 0
                for letter in chunk.letters:
                    o = o * m + assignment[letter]
                offset.append(o)
        return offset

    def _leaf_parents(self, q: int) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
        """(prefix, vector, variables used) of every length-q word (q > 1)
        without its last n-1 letters."""
        entries, stride = self._entries, self._stride

        def descend(prefix, vector, used, steps):
            if steps == 1:
                yield prefix, vector, used
                return
            for chunk in self._chunks(used):
                stepped = [entries[a * stride + o] for a, o in zip(vector, self._offset(chunk))]
                yield from descend(prefix + chunk.letters, stepped, chunk.used_after, steps - 1)

        first = [assignment[0] for assignment in self._domain]
        return descend((0,), first, 1, (q - 1) // self._width)

    def _first_absorbing_leaf(self, vector: list[int], chunks: list[_Chunk]) -> int:
        """Index of the first chunk that completes the vector's word into an
        absorbing one, or len(chunks); stops at the first escaping entry."""
        inside = self._lands_inside
        bases = [a * self._stride for a in vector]
        for i, chunk in enumerate(chunks):
            offset = chunk.offset  # read directly: this loop runs once per word
            if offset is None:
                offset = self._offset(chunk)
            for b, o in zip(bases, offset):
                if not inside[b + o]:
                    break
            else:
                return i
        return len(chunks)

    def first_absorbing(self, q: int) -> tuple[tuple[int, ...] | None, int]:
        """First absorbing word of length q (None if none) and the number of
        words examined up to it."""
        if q == 1:  # x passes the coordinate outside B through unchanged
            return None, 1
        examined = 0
        for prefix, vector, used in self._leaf_parents(q):
            chunks = self._chunks(used)
            i = self._first_absorbing_leaf(vector, chunks)
            if i < len(chunks):
                return prefix + chunks[i].letters, examined + i + 1
            examined += len(chunks)
        return None, examined

    def _verdicts(self, q: int) -> Iterator[tuple[tuple[int, ...], bool]]:
        """(letters, absorbs) for every word of length q, in walk order."""
        if q == 1:
            yield (0,), False
            return
        for prefix, vector, used in self._leaf_parents(q):
            for chunk in self._chunks(used):
                yield prefix + chunk.letters, self._first_absorbing_leaf(vector, [chunk]) == 0


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
