import functools
import itertools

import pytest
from hypothesis import settings

from absorb import (
    GenSpec,
    NaryTable,
    OracleBounds,
    Subuniverse,
    check_pair,
    compute_exponent,
    derive_power_algebra,
    enumerate_subuniverses,
    enumerate_tables,
    is_commutative,
    is_idempotent,
)

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=50)
settings.load_profile("suite")

# Named example tables used throughout the suite.
MIN2 = NaryTable.from_function(2, 2, min)
MIN3 = NaryTable.from_function(2, 3, min)
Z2 = NaryTable.from_function(2, 2, lambda a, b: (a + b) % 2)
Z3 = NaryTable.from_function(2, 3, lambda a, b: (a + b) % 3)
LEFT_ZERO = NaryTable.from_function(2, 2, lambda a, b: a)
NULL2 = NaryTable(2, 2, (0, 0, 0, 0))
TMIN2 = NaryTable.from_function(3, 2, min)
TMIN3 = NaryTable.from_function(3, 3, min)
TZ2 = NaryTable.from_function(3, 2, lambda a, b, c: (a + b + c) % 2)

SUB0 = Subuniverse(2, frozenset({0}))
SUB1 = Subuniverse(2, frozenset({1}))
SUB01_OF3 = Subuniverse(3, frozenset({0, 1}))
SUB0_OF3 = Subuniverse(3, frozenset({0}))

# Seeds for the sampled corpora; frozen so reports are regression-stable.
SEED_COMM3 = 20250808
SEED_COMM4 = 1107
SEED_IDEM3 = 31


@pytest.fixture(scope="session")
def binary2():
    return list(enumerate_tables(GenSpec(2, 2)))


@pytest.fixture(scope="session")
def binary3():
    return list(enumerate_tables(GenSpec(3, 2)))


@pytest.fixture(scope="session")
def binary4():
    return list(enumerate_tables(GenSpec(4, 2)))


@pytest.fixture(scope="session")
def ternary2():
    return list(enumerate_tables(GenSpec(2, 3)))


@pytest.fixture(scope="session")
def commutative5():
    """The 30,730 commutative binary tables of size 5, enumerated once."""
    return list(enumerate_tables(GenSpec(5, 2, commutative=True)))


@pytest.fixture(scope="session")
def predicate_tables(binary3):
    """Tables the index-arithmetic predicates are checked on against their
    apply loops: every binary size-3 and ternary size-2 table, and 5-ary
    size-3 tables derived from binary ones, each also with one entry
    changed where only the first or only the last adjacent swap sees it."""
    tables = [NaryTable(2, 3, e) for e in itertools.product(range(3), repeat=9)]
    tables += [NaryTable(3, 2, e) for e in itertools.product(range(2), repeat=8)]
    for binary in binary3[::8]:
        derived = derive_power_algebra(binary, 5)
        tables.append(derived)
        for changed in (1, 81):  # the tuples (0,0,0,0,1) and (1,0,0,0,0)
            entries = list(derived.entries)
            entries[changed] = (entries[changed] + 1) % 3
            tables.append(NaryTable(5, 3, entries))
    return tables


def enumerate_pairs(tables):
    """Each table with each of its proper closed nonempty subuniverses."""
    for table in tables:
        for sub in enumerate_subuniverses(table):
            yield table, sub


@functools.cache
def all_subsets(size):
    """Every nonempty subset of the carrier, in ascending mask order."""
    return [Subuniverse.from_mask(size, mask) for mask in range(1, 1 << size)]


def check_corpus(tables, bounds=None, per_table_bounds=None):
    """check_pair over every proper closed pair, memoizing duplicate tables."""
    reports = []
    cache = {}
    for table in tables:
        b = per_table_bounds(table) if per_table_bounds is not None else bounds
        bkey = (b.max_vars, b.max_len)
        for sub in enumerate_subuniverses(table):
            key = (table.arity, table.entries, sub.mask, bkey)
            report = cache.get(key)
            if report is None:
                report = check_pair(table, sub, b)
                cache[key] = report
            reports.append(report)
    return reports


@pytest.fixture(scope="session")
def checked_small_binary(binary2, binary3):
    return check_corpus(binary2 + binary3, bounds=OracleBounds(max_vars=3))


@pytest.fixture(scope="session")
def checked_binary4(binary4):
    def bounds_for(table):
        k = compute_exponent(table)
        return OracleBounds(max_vars=2, max_len=k if k is not None else 9)

    return check_corpus(binary4, per_table_bounds=bounds_for)


@pytest.fixture(scope="session")
def checked_ternary2(ternary2):
    return check_corpus(ternary2, bounds=OracleBounds(max_vars=3))


@pytest.fixture(scope="session")
def proved_corpora(binary2, binary3):
    """Proved-case n-ary corpora: commutative (n=3,4) and idempotent ternary.

    Each sampled shape also contributes its whole exhaustive stream, so every
    table a sample could hold is checked."""

    def sampled(size, arity, seed, **filters):
        spec = GenSpec(size, arity, mode="random", count=200, seed=seed, **filters)
        exhaustive = GenSpec(size, arity, **filters)
        return list(enumerate_tables(spec)) + list(enumerate_tables(exhaustive))

    comm3 = [derive_power_algebra(b, 3) for b in binary3 if is_commutative(b)]
    comm3 += sampled(3, 3, SEED_COMM3, commutative=True)
    comm4 = [derive_power_algebra(b, 4) for b in binary2 if is_commutative(b)]
    comm4 += [derive_power_algebra(b, 4) for b in binary3 if is_commutative(b)]
    comm4 += sampled(2, 4, SEED_COMM4, commutative=True)
    idem3 = [derive_power_algebra(b, 3) for b in binary3 if is_idempotent(b)]
    idem3 += sampled(3, 3, SEED_IDEM3, idempotent=True, commutative=True)
    return {"comm3": comm3, "comm4": comm4, "idem3": idem3}


@pytest.fixture(scope="session")
def checked_proved(proved_corpora):
    tables = (
        proved_corpora["comm3"] + proved_corpora["comm4"] + proved_corpora["idem3"]
    )
    return check_corpus(tables, bounds=OracleBounds(max_vars=3))


@pytest.fixture(scope="session")
def all_reports(checked_small_binary, checked_binary4, checked_ternary2, checked_proved):
    return checked_small_binary + checked_binary4 + checked_ternary2 + checked_proved
