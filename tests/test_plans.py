"""The plan cache: the per-shape index lists every subset check, oracle
closure and canonical form gathers from the entries, kept per process
within an offset budget, and the oracle's per-table exponent memo."""

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
    canonical_form,
    check_pair,
    cond2_products,
    cond3_products,
    enumerate_subuniverses,
    is_closed,
    search_absorbing_term,
)
from absorb.core import PLAN_CACHE_MAX_OFFSETS
from conftest import NULL2, SUB0, Z2, all_subsets, enumerate_pairs
from test_core import naive_enumerate_subuniverses, naive_is_closed
from test_criteria import naive_cond2_products, naive_cond3_products
from test_oracle import scan_words

# the default budget; none, so that every plan is built per call; and one
# so small that the cache drops its plans many times in one test
BUDGETS = (PLAN_CACHE_MAX_OFFSETS, 0, 40)


def clear_plans():
    absorb.core._plans.clear()
    absorb.core._plan_offsets = 0


@pytest.fixture
def cleared_plans():
    """An empty plan cache, so that the test itself fills it; emptied again
    afterwards, so that the offsets counter matches the plans held once the
    test's patches of the cache or its budget are undone."""
    clear_plans()
    yield
    clear_plans()


def budgets(monkeypatch):
    """Each of BUDGETS in turn, over an emptied cache."""
    for budget in BUDGETS:
        monkeypatch.setattr(absorb.core, "PLAN_CACHE_MAX_OFFSETS", budget)
        clear_plans()
        yield budget


def held_offsets() -> int:
    """The offsets of the held plans, counted by building each again."""
    return sum(key[0](*key[1:])[1] for key in absorb.core._plans)


def interleaved(binary3, ternary2, five_ary, binary2):
    """The tables in an order whose shapes alternate, so that a plan keyed
    without the size or the arity is reused on a shape it was not built
    for: binary size 3, ternary size 2, 5-ary size 3, binary size 2, then
    binary size 3 again."""
    half = len(binary3) // 2
    return binary3[:half] + ternary2 + five_ary + binary2 + binary3[half:]


class TestPlansMatchReferences:
    def test_subset_predicates(self, predicate_tables, cleared_plans, monkeypatch):
        tables = interleaved(
            [t for t in predicate_tables if (t.arity, t.size) == (2, 3)][::150],
            [t for t in predicate_tables if t.arity == 3][::3],
            [t for t in predicate_tables if t.arity == 5],
            [NaryTable(2, 2, e) for e in itertools.product(range(2), repeat=4)],
        )
        for budget in budgets(monkeypatch):
            for table in tables:
                assert enumerate_subuniverses(table) == (
                    naive_enumerate_subuniverses(table)
                ), (budget, table)
                for sub in all_subsets(table.size):
                    case = (budget, table, sub)
                    assert is_closed(table, sub) == naive_is_closed(table, sub), case
                    assert cond2_products(table, sub) == naive_cond2_products(table, sub), case
                    assert cond3_products(table, sub) == naive_cond3_products(table, sub), case
            assert absorb.core._plan_offsets <= budget
            assert bool(absorb.core._plans) == (budget > 0)

    def test_oracle(self, binary2, binary3, ternary2, predicate_tables, cleared_plans, monkeypatch):
        # max_vars alternates too, so a plan keyed without it is reused
        five_ary = [t for t in predicate_tables if t.arity == 5 and absorb.is_associative(t)]
        tables = interleaved(binary3[::4], ternary2, five_ary, binary2)
        for budget in budgets(monkeypatch):
            checked = 0
            for table in tables:
                for sub in enumerate_subuniverses(table):
                    for v in (3, 2, 1):
                        out = search_absorbing_term(table, sub, OracleBounds(v, 5))
                        raw = scan_words(table, sub, v, 5)
                        case = (budget, table, sub, v)
                        assert out.found == raw.found, case
                        if out.found:
                            assert out.witness.length == raw.witness.length, case
                        checked += 1
            assert checked > 300
            assert absorb.core._plan_offsets <= budget
            assert bool(absorb.core._plans) == (budget > 0)


class TestPlanCacheBound:
    def test_plan_over_the_budget_is_not_kept(self, cleared_plans, monkeypatch):
        monkeypatch.setattr(absorb.core, "PLAN_CACHE_MAX_OFFSETS", 100)
        table = NaryTable.from_function(3, 7, min)  # 343 entries
        sub = Subuniverse(7, frozenset({0}))
        # the plans over {0} hold 1 offset for closure, 7**3 - 6**3 = 127
        # for the product checks (the padded products first) and
        # 3**2 * (3 * 6 + 7) = 225 for the closure steps in three variables
        assert is_closed(table, sub) and cond2_products(table, sub) and cond3_products(table, sub)
        assert search_absorbing_term(table, sub, OracleBounds(3, 3)).found
        assert absorb.criteria._products_plan(7, 3, 1)[1] == 127
        assert set(absorb.core._plans) == {(absorb.core._subset_plan, 7, 3, 1)}
        assert absorb.core._plan_offsets == held_offsets() == 1

    def test_held_offsets_stay_within_the_budget(
        self, binary3, ternary2, cleared_plans, monkeypatch
    ):
        budget = 100
        monkeypatch.setattr(absorb.core, "PLAN_CACHE_MAX_OFFSETS", budget)
        drops = 0
        before = 0
        for table, sub in enumerate_pairs(ternary2 + binary3[::10]):
            check_pair(table, sub, OracleBounds(3))
            if absorb.core._plan_offsets < before:
                drops += 1
            before = absorb.core._plan_offsets
            assert before <= budget
        assert drops > 0
        assert absorb.core._plan_offsets == held_offsets()

    def test_memory_bound(self, cleared_plans, monkeypatch):
        """The cache, filled to its budget through real calls, stays below 16 MB.

        A subuniverse scan of a 14-element carrier fills it with subset
        plans, each with its Subuniverse; the oracle's closure steps for up
        to seven variables fill it with plans of up to 200k offsets; the
        canonical relabelings of three shapes of 625 to 1296 entries fill
        it with offsets above the interpreter's shared small ints.  Memory
        is read after each plan the cache keeps, so every state of the
        cache is measured with its keys, and no plan built for its call
        alone.
        """

        class Measured(dict):
            """The plans, with the most memory traced and offsets held
            after any plan is kept."""

            largest = fullest = 0

            def __setitem__(self, key, plan):
                super().__setitem__(key, plan)
                self.largest = max(self.largest, tracemalloc.get_traced_memory()[0])
                self.fullest = max(self.fullest, absorb.core._plan_offsets)

        plans = Measured()
        monkeypatch.setattr(absorb.core, "_plans", plans)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # only the carrier is closed under (x + 1) mod 14, so the scan
            # keeps no Subuniverse but the cache's
            cyclic = NaryTable.from_function(2, 14, lambda a, _: (a + 1) % 14)
            assert enumerate_subuniverses(cyclic) == []
            for m, n in ((4, 2), (5, 2), (3, 3)):
                table = NaryTable.from_function(n, m, min)
                for b, v in itertools.product(range(1, m), range(1, 8)):
                    sub = Subuniverse(m, frozenset(range(b)))
                    # one layer: x y (or x y y) is an absorbing term of min
                    found = search_absorbing_term(table, sub, OracleBounds(v, n)).found
                    assert found == (v > 1)
            # 0 is the one idempotent of the constant table, so one anchor
            # is tried; (x_1 + 1) mod m has none, so every anchor is
            canonical_form(NaryTable.from_function(4, 6, lambda *_: 0))
            for m, n in ((4, 5), (5, 4)):
                canonical_form(NaryTable.from_function(n, m, lambda a, *_: (a + 1) % m))
        finally:
            tracemalloc.stop()
        # the offsets counter is read before it counts the plan just kept
        assert plans.fullest > PLAN_CACHE_MAX_OFFSETS * 3 // 4, plans.fullest
        assert plans.largest - before < 16 << 20, plans.largest - before


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
