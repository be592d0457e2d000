"""Absorption decision criteria for finite semigroups and n-ary semigroups.

The binary criterion: B absorbs A iff ab and ba stay in B for every a in A,
b in B, and some exponent k > 1 satisfies a^k = a for all a.  For arity
n >= 3 the same operation tests the padded products a b^(n-1) and b^(n-1) a;
detect_case records which proved case (if any) certifies the verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import (
    NaryTable,
    Subuniverse,
    TableFacts,
    Word,
    _gather,
    _plan,
    _power_indices,
    _reduce_left,
    _require_carrier,
    _require_evaluable,
    _require_proper_closed,
    table_facts,
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

    absorbs=True carries the exponent and the constructed witness x^(k-1)y,
    unverified here (PairReport.violations verifies it);
    absorbs=False names the first failing clause (products checked before
    the exponent).  exponent_k is populated whenever the exponent exists,
    even on failed verdicts.
    """

    absorbs: bool
    exponent_k: int | None
    witness: Word | None
    failed_condition: FailedCondition | None
    proof_status: CaseTag


def _products_plan(size: int, arity: int, mask: int) -> tuple[tuple[Callable, Callable], int]:
    """The gathers cond2 and cond3 read over the subset B with this mask, and
    their offset count.

    One index list holds every entry outside (A minus B)^n, the padded
    products a b^(n-1) and b^(n-1) a first: each has a coordinate in B, so
    cond2 gathers a prefix of the list that cond3 gathers whole.  With
    r = 1 + m + ... + m^(n-2), their flat indices are a m^(n-1) + b r and
    b m r + a.
    """
    elements = Subuniverse.from_mask(size, mask).elements
    r = sum(size**j for j in range(arity - 1))
    top = size ** (arity - 1)
    padded = [a * top + b * r for b in elements for a in range(size)]
    padded += [b * size * r + a for b in elements for a in range(size)]
    padded = list(dict.fromkeys(padded))  # once each tuple both halves hold
    outside = [a for a in range(size) if not mask >> a & 1]
    skipped = set(_power_indices(size, arity, outside)).union(padded)
    indices = padded + [i for i in range(size**arity) if i not in skipped]
    return (_gather(padded), _gather(indices)), len(indices)


def _cond2(table: NaryTable, sub: Subuniverse) -> bool:
    """cond2_products on a subset already known to lie in the carrier."""
    padded, _ = _plan(_products_plan, table.size, table.arity, sub.mask)
    return sub.members.issuperset(padded(table.entries))


def _cond3(table: NaryTable, sub: Subuniverse) -> bool:
    """cond3_products on a subset already known to lie in the carrier."""
    _, meeting = _plan(_products_plan, table.size, table.arity, sub.mask)
    return sub.members.issuperset(meeting(table.entries))


def cond2_products(table: NaryTable, sub: Subuniverse) -> bool:
    """Padded products a b^(n-1) and b^(n-1) a stay in the subset."""
    _require_carrier(table, sub)
    return _cond2(table, sub)


def cond3_products(table: NaryTable, sub: Subuniverse) -> bool:
    """Every n-tuple with at least one coordinate in the subset lands in it."""
    _require_carrier(table, sub)
    return _cond3(table, sub)


def _case(facts: TableFacts, sub: Subuniverse) -> CaseTag:
    """detect_case on a subset already known to lie in the carrier."""
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


def detect_case(table: NaryTable | TableFacts, sub: Subuniverse) -> CaseTag:
    """First applicable proved case, in the fixed priority order.

    Any applicable tag certifies the verdict, so the order only affects
    reporting.
    """
    facts = table_facts(table)
    _require_carrier(facts.table, sub)
    return _case(facts, sub)


def construct_witness(table: NaryTable, k: int) -> Word:
    """The two-variable word x^(k-1) y of length k."""
    if k <= 1:
        raise ValueError(f"k must be > 1, got {k}")
    _require_evaluable(k, table.arity)
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
    _require_carrier(table, sub)
    return _conditions_hold(table, sub, letters, num_vars)


def _conditions_hold(
    table: NaryTable, sub: Subuniverse, letters: tuple[int, ...], num_vars: int
) -> bool:
    """absorption_conditions_hold on a subset already known to lie in the carrier."""
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
    _require_evaluable(word.length, table.arity)
    _require_carrier(table, sub)
    for a in range(table.size):
        if _reduce_left(table, [a] * word.length) != a:
            return False
    return _conditions_hold(table, sub, word.letters, word.num_vars)


def decide_theorem(table: NaryTable | TableFacts, sub: Subuniverse) -> AbsorptionVerdict:
    """Decide absorption via the product-plus-exponent criterion.

    Binary tables get a theorem-backed verdict; for n >= 3 the verdict is
    certified by detect_case and is otherwise conjectural.
    """
    facts = table_facts(table)
    table = facts.table
    _require_proper_closed(table, sub)
    k = facts.exponent_k
    if not _cond2(table, sub):
        failed = FailedCondition.PRODUCTS_ESCAPE_B
    elif k is None:
        failed = FailedCondition.NO_EXPONENT
    else:
        failed = None
    return AbsorptionVerdict(
        absorbs=failed is None,
        exponent_k=k,
        witness=construct_witness(table, k) if failed is None else None,
        failed_condition=failed,
        proof_status=_case(facts, sub),
    )
