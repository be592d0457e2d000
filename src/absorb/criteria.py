"""Absorption decision criteria for finite semigroups and n-ary semigroups.

The binary criterion: B absorbs A iff ab and ba stay in B for every a in A,
b in B, and some exponent k > 1 satisfies a^k = a for all a.  For arity
n >= 3 the same operation tests the padded products a b^(n-1) and b^(n-1) a;
detect_case records which proved case (if any) certifies the verdict.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import (
    PLAN_CACHE_SLOTS,
    NaryTable,
    Subuniverse,
    TableFacts,
    Word,
    _gather,
    _plan,
    _power_indices,
    _reduce_left,
    eval_word,
    is_closed,
    length_evaluable,
    table_facts,
)
from .errors import (
    InvalidArityTarget,
    LengthNotEvaluable,
    NotClosed,
    NotProperSubuniverse,
)


class FailedCondition(str, Enum):
    PRODUCTS_ESCAPE_B = "ProductsEscapeB"
    NO_EXPONENT = "NoExponent"


class CaseTag(str, Enum):
    """Which proved case certifies the criterion for a (table, sub) pair."""

    THEOREM_BINARY = "TheoremBinary"
    THEOREM_COMMUTATIVE = "TheoremCommutative"
    THEOREM_COATOM = "TheoremCoatom"
    THEOREM_IDEMPOTENT_TERNARY = "TheoremIdempotentTernary"
    CONJECTURAL = "Conjectural"

    def is_proved(self) -> bool:
        return self is not CaseTag.CONJECTURAL


@dataclass(frozen=True)
class AbsorptionVerdict:
    """Decision outcome with evidence.

    absorbs=True carries the exponent and a verified witness word;
    absorbs=False names the first failing clause (products checked before
    the exponent).  exponent_k is populated whenever the exponent exists,
    even on failed verdicts.
    """

    absorbs: bool
    exponent_k: int | None
    witness: Word | None
    failed_condition: FailedCondition | None
    proof_status: CaseTag


@functools.lru_cache(maxsize=PLAN_CACHE_SLOTS)
def _cond2_plan(size: int, arity: int, mask: int) -> Callable:
    """The gather of a b^(n-1) and b^(n-1) a over every a and every b in
    the subset with this mask.

    With r = 1 + m + ... + m^(n-2), their flat indices are a m^(n-1) + b r
    and b m r + a.
    """
    elements = Subuniverse.from_mask(size, mask).elements
    r = sum(size**j for j in range(arity - 1))
    top = size ** (arity - 1)
    indices = [a * top + b * r for b in elements for a in range(size)]
    indices += [b * size * r + a for b in elements for a in range(size)]
    return _gather(indices)


def cond2_products(table: NaryTable, sub: Subuniverse) -> bool:
    """Padded products a b^(n-1) and b^(n-1) a stay in the subset."""
    return sub.members.issuperset(_plan(_cond2_plan, table, sub.mask)(table.entries))


@functools.lru_cache(maxsize=PLAN_CACHE_SLOTS)
def _cond3_plan(size: int, arity: int, mask: int) -> Callable:
    """The gather of every entry except those of (A minus B)^n, for the
    subset B with this mask."""
    outside = [a for a in range(size) if not mask >> a & 1]
    skipped = set(_power_indices(size, arity, outside))
    return _gather([i for i in range(size**arity) if i not in skipped])


def cond3_products(table: NaryTable, sub: Subuniverse) -> bool:
    """Every n-tuple with at least one coordinate in the subset lands in it."""
    return sub.members.issuperset(_plan(_cond3_plan, table, sub.mask)(table.entries))


def detect_case(table: NaryTable | TableFacts, sub: Subuniverse) -> CaseTag:
    """First applicable proved case, in the fixed priority order.

    Any applicable tag certifies the verdict, so the order only affects
    reporting.
    """
    facts = table_facts(table)
    table = facts.table
    if table.arity == 2:
        return CaseTag.THEOREM_BINARY
    if facts.commutative:
        return CaseTag.THEOREM_COMMUTATIVE
    if table.size - len(sub.members) == 1:
        return CaseTag.THEOREM_COATOM
    if table.arity == 3 and facts.idempotent:
        return CaseTag.THEOREM_IDEMPOTENT_TERNARY
    return CaseTag.CONJECTURAL


def construct_witness(table: NaryTable, sub: Subuniverse, k: int) -> Word:
    """The two-variable word x^(k-1) y of length k."""
    if k <= 1 or not length_evaluable(k, table.arity):
        raise ValueError(f"k must be > 1 and 1 mod {table.arity - 1}, got {k}")
    return Word(num_vars=2, letters=(0,) * (k - 1) + (1,))


def absorption_conditions_hold(
    table: NaryTable, sub: Subuniverse, letters: tuple[int, ...], num_vars: int
) -> bool:
    """Coordinate-wise absorption conditions, without the idempotence check.

    For every variable position i, every carrier element at i, and every
    assignment of subset members to the other variables, the word must
    evaluate into the subset.  Variables with zero occurrences are still
    quantified; their condition degenerates correctly.
    """
    members = sub.members
    elements = sub.elements
    assignment = [0] * num_vars
    for i in range(num_vars):
        for rest in itertools.product(elements, repeat=num_vars - 1):
            assignment[:i] = rest[:i]
            assignment[i + 1 :] = rest[i:]
            for a in range(table.size):
                assignment[i] = a
                if _reduce_left(table, [assignment[l] for l in letters]) not in members:
                    return False
    return True


def verify_witness(table: NaryTable, sub: Subuniverse, word: Word) -> bool:
    """Check idempotence plus the coordinate-wise absorption conditions."""
    if not length_evaluable(word.length, table.arity):
        raise LengthNotEvaluable(
            f"length {word.length} is not 1 mod {table.arity - 1}"
        )
    v = word.num_vars
    for a in range(table.size):
        if eval_word(table, word, [a] * v) != a:
            return False
    return absorption_conditions_hold(table, sub, word.letters, v)


def decide_theorem(table: NaryTable | TableFacts, sub: Subuniverse) -> AbsorptionVerdict:
    """Decide absorption via the product-plus-exponent criterion.

    Binary tables get a theorem-backed verdict; for n >= 3 the verdict is
    certified by detect_case and is otherwise conjectural.
    """
    facts = table_facts(table)
    table = facts.table
    if not is_closed(table, sub):  # raises ValueError on a carrier mismatch
        raise NotClosed(f"subset {sub.elements} is not closed")
    if not sub.is_proper():
        raise NotProperSubuniverse("criterion requires a proper subuniverse")
    k = facts.exponent_k
    if not cond2_products(table, sub):
        failed = FailedCondition.PRODUCTS_ESCAPE_B
    elif k is None:
        failed = FailedCondition.NO_EXPONENT
    else:
        failed = None
    return AbsorptionVerdict(
        absorbs=failed is None,
        exponent_k=k,
        witness=construct_witness(table, sub, k) if failed is None else None,
        failed_condition=failed,
        proof_status=detect_case(facts, sub),
    )


def derive_power_algebra(table: NaryTable, k: int) -> NaryTable:
    """The k-ary table of k-fold products; associative by construction.

    Idempotent whenever k is an exponent of the table (a^k = a for all a).
    """
    if k <= 1 or not length_evaluable(k, table.arity):
        raise InvalidArityTarget(
            f"target arity {k} is not 1 mod {table.arity - 1} or not > 1"
        )
    entries = tuple(
        _reduce_left(table, tup)
        for tup in itertools.product(range(table.size), repeat=k)
    )
    return NaryTable(arity=k, size=table.size, entries=entries)
