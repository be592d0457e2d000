"""Subset plans: the per-shape index lists every subset check gathers from
the entries, cached per process, and the oracle's per-table exponent memo."""

import itertools
import tracemalloc

import pytest

import absorb.core
import absorb.criteria
import absorb.oracle
from absorb import (
    NaryTable,
    OracleBounds,
    OracleStop,
    Subuniverse,
    cond2_products,
    cond3_products,
    enumerate_subuniverses,
    is_closed,
    scan_words,
    search_absorbing_term,
)
from absorb.core import PLAN_CACHE_MAX_ENTRIES, PLAN_CACHE_SLOTS
from conftest import NULL2, SUB0, Z2, all_subsets
from test_core import naive_enumerate_subuniverses, naive_is_closed
from test_criteria import naive_cond2_products, naive_cond3_products

PLAN_BUILDERS = (
    absorb.core._subset_plan,
    absorb.criteria._cond2_plan,
    absorb.criteria._cond3_plan,
    absorb.oracle._closure_plan,
)


@pytest.fixture
def cleared_plans():
    """Empty plan caches, so that the test itself fills them."""
    for builder in PLAN_BUILDERS:
        builder.cache_clear()


def interleaved(binary3, ternary2, five_ary, binary2):
    """The tables in an order whose shapes alternate, so that a plan keyed
    without the size or the arity is reused on a shape it was not built
    for: binary size 3, ternary size 2, 5-ary size 3, binary size 2, then
    binary size 3 again."""
    half = len(binary3) // 2
    return binary3[:half] + ternary2 + five_ary + binary2 + binary3[half:]


class TestPlansMatchReferences:
    def test_subset_predicates(self, predicate_tables, cleared_plans):
        tables = interleaved(
            [t for t in predicate_tables if (t.arity, t.size) == (2, 3)][::150],
            [t for t in predicate_tables if t.arity == 3][::3],
            [t for t in predicate_tables if t.arity == 5],
            [NaryTable(2, 2, e) for e in itertools.product(range(2), repeat=4)],
        )
        for table in tables:
            for proper_only in (True, False):
                assert enumerate_subuniverses(table, proper_only) == (
                    naive_enumerate_subuniverses(table, proper_only)
                ), table
            for sub in all_subsets(table.size):
                assert is_closed(table, sub) == naive_is_closed(table, sub), (table, sub)
                assert cond2_products(table, sub) == naive_cond2_products(table, sub), (table, sub)
                assert cond3_products(table, sub) == naive_cond3_products(table, sub), (table, sub)

    def test_oracle(self, binary2, binary3, ternary2, predicate_tables, cleared_plans):
        # max_vars alternates too, so a plan keyed without it is reused
        five_ary = [t for t in predicate_tables if t.arity == 5 and absorb.is_associative(t)]
        tables = interleaved(binary3[::4], ternary2, five_ary, binary2)
        checked = 0
        for table in tables:
            for sub in enumerate_subuniverses(table, proper_only=True):
                for v in (3, 2, 1):
                    out = search_absorbing_term(table, sub, OracleBounds(v, 5))
                    raw = scan_words(table, sub, v, 5)
                    assert out.found == raw.found, (table, sub, v)
                    if out.found:
                        assert out.witness.length == raw.witness.length, (table, sub, v)
                    checked += 1
        assert checked > 300
        assert absorb.oracle._closure_plan.cache_info().currsize > 0


class TestPlanCacheBound:
    def test_shape_above_the_cap_keeps_no_plan(self, cleared_plans):
        table = NaryTable.from_function(3, 7, min)  # 343 entries
        assert len(table.entries) > PLAN_CACHE_MAX_ENTRIES
        subs = enumerate_subuniverses(table, proper_only=True)
        assert len(subs) == 126  # every proper subset is closed under min
        sub = subs[0]  # {0}
        assert is_closed(table, sub) and cond2_products(table, sub) and cond3_products(table, sub)
        assert search_absorbing_term(table, sub).found
        for builder in PLAN_BUILDERS:
            assert builder.cache_info().currsize == 0, builder

    def test_step_table_above_the_cap_is_not_kept(self, cleared_plans):
        # binary min of size 4 is within the cap, but six variables over
        # B = {0, 1, 2} make a step table of 6 * (6 * 3**5 + 4) offsets
        table = NaryTable.from_function(2, 4, min)
        sub = Subuniverse(4, frozenset({0, 1, 2}))
        assert search_absorbing_term(table, sub, OracleBounds(6, 2)).found
        assert absorb.oracle._closure_plan.cache_info().currsize == 0
        assert absorb.core._subset_plan.cache_info().currsize == 1
        search_absorbing_term(table, sub, OracleBounds(2, 2))
        assert absorb.oracle._closure_plan.cache_info().currsize == 1

    def test_memory_bound(self, cleared_plans):
        """Every cache full of its largest admissible plan stays below 16 MB.

        A subset's index lists are longest for the full carrier; the
        oracle's step table is measured for every subset size and variable
        count whose plan the cap admits.
        """
        shapes = [
            (m, n)
            for m in range(1, absorb.core.SUBSET_SCAN_MAX_SIZE + 1)
            for n in range(2, 9)
            if m**n <= PLAN_CACHE_MAX_ENTRIES
        ]
        keys = {builder: [] for builder in PLAN_BUILDERS}
        for m, n in shapes:
            for builder in PLAN_BUILDERS[:3]:
                keys[builder].append((m, n, (1 << m) - 1))
            for b, v in itertools.product(range(1, m), range(1, 17)):
                if v ** (n - 1) * (v * b ** (v - 1) * (m - b) + m) <= PLAN_CACHE_MAX_ENTRIES:
                    keys[absorb.oracle._closure_plan].append((m, n, v, (1 << b) - 1))
        largest = {}
        tracemalloc.start()
        try:
            for builder, builder_keys in keys.items():
                sizes = []
                for key in builder_keys:
                    builder.cache_clear()
                    plan = None  # the last plan is freed before measuring
                    before = tracemalloc.get_traced_memory()[0]
                    plan = builder(*key)  # a cache slot: the plan, its key and its link
                    if builder is absorb.core._subset_plan:
                        plan[0].elements, plan[0].mask  # cached once callers read them
                    sizes.append(tracemalloc.get_traced_memory()[0] - before)
                largest[builder.__name__] = max(sizes)
        finally:
            tracemalloc.stop()
        assert PLAN_CACHE_SLOTS * sum(largest.values()) < 16 << 20, largest


class TestExponentMemo:
    def test_no_stale_exponent_on_a_table_of_the_same_shape(self):
        # Z2 has the exponent 3; the null semigroup NULL2 has none
        for first, second, stop in (
            (Z2, NULL2, OracleStop.NO_IDEMPOTENT_TERM),
            (NULL2, Z2, OracleStop.CLOSURE_EXHAUSTED),
        ):
            search_absorbing_term(first, SUB0)
            assert search_absorbing_term(second, SUB0).stop is stop
            # an equal table that is another object is computed afresh
            copy = NaryTable(second.arity, second.size, list(second.entries))
            assert search_absorbing_term(copy, SUB0).stop is stop
