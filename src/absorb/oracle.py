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
from .criteria import AbsorptionVerdict, absorption_conditions_hold, verify_witness
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


def _canonical_letter_seqs(length: int, max_vars: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth sequences in lexicographic order.

    First occurrences appear in increasing variable order and every declared
    variable occurs, so each word pattern is enumerated exactly once.
    """
    seq = [0] * length

    def rec(pos: int, used: int) -> Iterator[tuple[int, ...]]:
        if pos == length:
            yield tuple(seq)
            return
        for v in range(min(used + 1, max_vars)):
            seq[pos] = v
            yield from rec(pos + 1, max(used, v + 1))

    yield from rec(0, 0)


def powers_fix_all(q: int, k: int | None) -> bool:
    """a^q = a for every element of a table whose exponent is k (None if none)."""
    return q == 1 or (k is not None and (q - 1) % (k - 1) == 0)


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
    the idempotence of every length-q word.  prune=False scans the raw
    space (all sequences over max_vars declared variables) and checks each
    word in full.
    """
    if not sub.is_proper():
        raise NotProperSubuniverse("oracle requires a proper subuniverse")
    if not is_closed(table, sub):
        raise NotClosed(f"subset {sub.elements} is not closed")
    n = table.arity
    k = compute_exponent(table)
    max_len = bounds.resolved_max_len(k)
    min_len = 1 if bounds.allow_trivial else 2
    examined = 0
    for q in range(min_len, max_len + 1):
        if not length_evaluable(q, n):
            continue
        if prune:
            if not powers_fix_all(q, k):
                continue
            for letters in _canonical_letter_seqs(q, bounds.max_vars):
                examined += 1
                num_vars = max(letters) + 1
                if absorption_conditions_hold(table, sub, letters, num_vars):
                    word = Word(num_vars, letters)
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
