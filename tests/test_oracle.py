import dataclasses
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import absorb.oracle
from absorb import (
    Agreement,
    BudgetExceeded,
    CaseTag,
    FailedCondition,
    GenSpec,
    NaryTable,
    NotClosed,
    NotProperSubuniverse,
    OracleBounds,
    OracleOutcome,
    OracleStop,
    Subuniverse,
    Word,
    compute_exponent,
    decide_theorem,
    derive_power_algebra,
    enumerate_tables,
    oracle_agrees,
    search_absorbing_term,
    verify_witness,
)
from absorb.core import _require_proper_closed, length_evaluable
from conftest import LEFT_ZERO, MIN2, SUB0, Z2, enumerate_pairs
from test_core import ASSOC_SMALL, element_power
from test_criteria import PROJ_KILL_SUB, PROJ_KILL_T

SMALL_PAIRS = list(enumerate_pairs(ASSOC_SMALL))

# Every pair of binary sizes 2-3 and ternary size 2.
RAW_PAIRS = list(
    enumerate_pairs(
        list(enumerate_tables(GenSpec(2, 2)))
        + list(enumerate_tables(GenSpec(3, 2)))
        + list(enumerate_tables(GenSpec(2, 3)))
    )
)

# RAW_PAIRS and a slice of the ternary power tables of size 3.
KERNEL_PAIRS = RAW_PAIRS + list(
    enumerate_pairs(list(enumerate_tables(GenSpec(3, 3, mode="power")))[::8])
)

# A conjectural pair whose table has an exponent (k = 5): the 5-ary power
# of an idempotent binary table whose products escape B = {0}.
EXP_T = derive_power_algebra(NaryTable(2, 3, (0, 0, 0, 0, 1, 0, 2, 2, 2)), 5)
EXP_SUB = Subuniverse(3, frozenset({0}))


def canonical_letter_seqs(length, max_vars):
    """Restricted-growth sequences in lexicographic order: every word up to
    renaming its variables by first occurrence."""
    seq = [0] * length

    def rec(pos, used):
        if pos == length:
            yield tuple(seq)
            return
        for v in range(min(used + 1, max_vars)):
            seq[pos] = v
            yield from rec(pos + 1, max(used, v + 1))

    yield from rec(0, 0)


def scan_words(table, sub, max_vars, max_len):
    """The first absorbing word in the raw word space: every sequence over
    max_vars declared variables, in (length, lexicographic) order up to
    max_len, each checked in full with verify_witness.

    The raw reference search_absorbing_term is tested against at small
    bounds; it checks its pair as the oracle does.
    """
    _require_proper_closed(table, sub)
    examined = 0
    for q in range(2, max_len + 1):
        if not length_evaluable(q, table.arity):
            continue
        for letters in itertools.product(range(max_vars), repeat=q):
            examined += 1
            word = Word(max_vars, letters)
            if verify_witness(table, sub, word):
                return OracleOutcome(word, examined, OracleStop.FOUND)
    return OracleOutcome(None, examined, OracleStop.LENGTH_BOUND)


def shortest_absorbing_length(table, sub, max_vars, max_len):
    """Length of the shortest absorbing canonical word, checked word by word
    with verify_witness, or None if there is none up to max_len."""
    for q in range(2, max_len + 1):
        if not length_evaluable(q, table.arity):
            continue
        for letters in canonical_letter_seqs(q, max_vars):
            if verify_witness(table, sub, Word(max(letters) + 1, letters)):
                return q
    return None


class TestSearch:
    def test_semilattice_finds_xy(self):
        out = search_absorbing_term(MIN2, SUB0)
        assert out.found
        assert out.witness == Word(2, (0, 1))
        assert out.stop is OracleStop.FOUND

    def test_left_zero_exhausts(self):
        out = search_absorbing_term(LEFT_ZERO, SUB0)
        assert not out.found
        assert out.witness is None
        assert out.stop is OracleStop.CLOSURE_EXHAUSTED

    def test_z2_exhausts(self):
        out = search_absorbing_term(Z2, SUB0)
        assert not out.found
        assert out.stop is OracleStop.CLOSURE_EXHAUSTED

    def test_found_witness_verifies(self):
        for table, sub in SMALL_PAIRS:
            out = search_absorbing_term(table, sub)
            if out.found:
                assert verify_witness(table, sub, out.witness)

    def test_rejects_full_subuniverse(self):
        full = Subuniverse(2, frozenset({0, 1}))
        with pytest.raises(NotProperSubuniverse):
            search_absorbing_term(MIN2, full)
        with pytest.raises(NotProperSubuniverse):
            scan_words(MIN2, full, 2, 3)

    def test_rejects_unclosed_subset(self):
        unclosed = Subuniverse(2, frozenset({1}))
        with pytest.raises(NotClosed):
            search_absorbing_term(Z2, unclosed)
        with pytest.raises(NotClosed):
            scan_words(Z2, unclosed, 2, 3)

    def test_independent_of_the_criterion(self):
        # the oracle may re-verify a witness, but may not read a verdict
        from_criteria = [
            name
            for name, obj in vars(absorb.oracle).items()
            if getattr(obj, "__module__", None) == "absorb.criteria"
        ]
        assert from_criteria == ["verify_witness"]

    def test_deterministic(self):
        for table, sub in SMALL_PAIRS[:8]:
            a = search_absorbing_term(table, sub)
            b = search_absorbing_term(table, sub)
            assert a == b

    @given(data=st.data())
    def test_monotone_in_bounds(self, data):
        table, sub = data.draw(st.sampled_from(SMALL_PAIRS))
        small = OracleBounds(max_vars=2, max_len=4)
        large = OracleBounds(max_vars=3, max_len=7)
        if search_absorbing_term(table, sub, small).found:
            assert search_absorbing_term(table, sub, large).found

    def test_length_prune_matches_element_powers(
        self, binary2, binary3, binary4, ternary2
    ):
        # A table without an exponent stops the search before any length:
        # a word of length q is idempotent iff a^q = a for every a, and
        # eval_word on x^q, the reference, shows some a^q != a for every q.
        tables = [t for t in binary2 + binary3 + binary4 + ternary2 if compute_exponent(t) is None]
        assert len(tables) == 2_615
        for table in tables:
            for q in range(2, 14):
                if length_evaluable(q, table.arity):
                    assert any(element_power(table, a, q) != a for a in range(table.size)), (table, q)
        for table, sub in enumerate_pairs(tables[::50]):
            assert search_absorbing_term(table, sub) == OracleOutcome(
                None, 0, OracleStop.NO_IDEMPOTENT_TERM
            )

    def test_pruning_never_changes_classification(self):
        # scan_words scans every sequence over max_vars declared variables
        bounds = OracleBounds(max_vars=2, max_len=5)
        for table, sub in SMALL_PAIRS:
            pruned = search_absorbing_term(table, sub, bounds)
            raw = scan_words(table, sub, 2, 5)
            assert pruned.found == raw.found
            assert pruned.words_examined <= raw.words_examined


class TestClosure:
    def test_matches_raw_scan(self):
        assert len(RAW_PAIRS) == 489
        bounds = OracleBounds(max_vars=2, max_len=5)
        for table, sub in RAW_PAIRS:
            closure = search_absorbing_term(table, sub, bounds)
            raw = scan_words(table, sub, 2, 5)
            assert closure.found == raw.found, (table, sub)
            if closure.found:
                assert closure.witness.length <= raw.witness.length, (table, sub)

    def test_matches_reference_scan(self):
        # the closure's witness is a shortest absorbing word, with its
        # variables named by first occurrence
        assert len(KERNEL_PAIRS) == 558
        bounds = OracleBounds(max_vars=3, max_len=7)
        for table, sub in KERNEL_PAIRS:
            out = search_absorbing_term(table, sub, bounds)
            expected = shortest_absorbing_length(table, sub, 3, 7)
            assert (out.witness and out.witness.length) == expected, (table, sub)
            if out.found:
                letters = out.witness.letters
                assert letters in set(canonical_letter_seqs(len(letters), 3))
                assert out.witness.num_vars == max(letters) + 1

    def test_length_bound_then_exhausted(self):
        # Z2 with B = {0}: k = 3, and no term absorbs
        capped = search_absorbing_term(Z2, SUB0, OracleBounds(max_len=2))
        assert capped.stop is OracleStop.LENGTH_BOUND
        assert capped.words_examined == 3  # xx, xy and xz
        full = search_absorbing_term(Z2, SUB0, OracleBounds(max_len=None))
        assert full.stop is OracleStop.CLOSURE_EXHAUSTED
        assert full.words_examined > capped.words_examined

    def test_cap_below_the_first_layer(self):
        out = search_absorbing_term(EXP_T, EXP_SUB, OracleBounds(max_len=4))
        assert out == OracleOutcome(None, 0, OracleStop.LENGTH_BOUND)


class TestClosureBudget:
    # 5-ary min over 4 elements with B = {0, 1, 2}: v**4 steps of
    # v * 3**(v-1) + 4 offsets each, 28,672 at v = 4 and 71.7 M at v = 8
    MIN5 = NaryTable.from_function(5, 4, min)
    B3 = Subuniverse(4, frozenset({0, 1, 2}))

    @pytest.mark.parametrize(
        "table, sub, max_vars",
        [
            (MIN5, B3, 8),
            (NaryTable.from_function(2, 3, min), Subuniverse(3, frozenset({0, 1})), 10**9),
        ],
        ids=["v8", "v1e9"],
    )
    def test_refused_before_the_plan_is_built(self, table, sub, max_vars):
        started = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="closure-plan offsets exceed the cap"):
                search_absorbing_term(table, sub, OracleBounds(max_vars))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1.0
        assert peak < 64 * 1024

    def test_within_the_cap_still_searches(self):
        out = search_absorbing_term(self.MIN5, self.B3, OracleBounds(4))
        assert out.stop is OracleStop.FOUND


class TestBounds:
    def test_default_resolution(self):
        # max_len=None does not resolve to a length: the closure runs until
        # it is exhausted
        assert [f.name for f in dataclasses.fields(OracleBounds)] == ["max_vars", "max_len"]
        assert OracleBounds() == OracleBounds(max_vars=3, max_len=None)
        assert search_absorbing_term(LEFT_ZERO, SUB0).stop is OracleStop.CLOSURE_EXHAUSTED

    def test_validation(self):
        for kwargs in (
            {"max_vars": 0},
            {"max_vars": True},
            {"max_vars": 2.0},
            {"max_vars": "3"},
            {"max_len": 1},
            {"max_len": 2.5},
            {"max_len": True},
            {"max_len": "9"},
        ):
            with pytest.raises(ValueError):
                OracleBounds(**kwargs)
        OracleBounds(max_vars=1, max_len=2)


class TestAgreement:
    def test_both_positive(self):
        v = decide_theorem(MIN2, SUB0)
        out = search_absorbing_term(MIN2, SUB0)
        assert oracle_agrees(v, out, OracleBounds()) is Agreement.AGREE

    def test_negative_with_binary_completeness(self):
        v = decide_theorem(LEFT_ZERO, SUB0)
        out = search_absorbing_term(LEFT_ZERO, SUB0)
        assert oracle_agrees(v, out, OracleBounds()) is Agreement.AGREE

    def test_conjectural_without_exponent_agrees(self):
        v = decide_theorem(PROJ_KILL_T, PROJ_KILL_SUB)
        assert not v.absorbs
        assert v.proof_status is CaseTag.CONJECTURAL
        out = search_absorbing_term(PROJ_KILL_T, PROJ_KILL_SUB)
        assert out == OracleOutcome(None, 0, OracleStop.NO_IDEMPOTENT_TERM)
        assert oracle_agrees(v, out, OracleBounds()) is Agreement.AGREE

    def test_conjectural_with_exponent_is_unresolved(self):
        v = decide_theorem(EXP_T, EXP_SUB)
        assert (v.exponent_k, v.failed_condition) == (5, FailedCondition.PRODUCTS_ESCAPE_B)
        assert v.proof_status is CaseTag.CONJECTURAL
        out = search_absorbing_term(EXP_T, EXP_SUB)
        assert out.stop is OracleStop.CLOSURE_EXHAUSTED
        assert oracle_agrees(v, out, OracleBounds()) is Agreement.UNRESOLVED

    def test_no_idempotent_term_contradicts_an_absorbing_verdict(self):
        v = decide_theorem(MIN2, SUB0)
        out = OracleOutcome(None, 0, OracleStop.NO_IDEMPOTENT_TERM)
        assert oracle_agrees(v, out, OracleBounds()) is Agreement.DISAGREE

    def test_length_bound_is_adequate_only_from_k(self):
        # Z2 with B = {0}: a proved negative verdict with k = 3
        v = decide_theorem(Z2, SUB0)
        assert v.exponent_k == 3
        for max_len, expected in ((2, Agreement.UNRESOLVED), (3, Agreement.AGREE)):
            bounds = OracleBounds(max_len=max_len)
            out = search_absorbing_term(Z2, SUB0, bounds)
            assert out.stop is OracleStop.LENGTH_BOUND
            assert oracle_agrees(v, out, bounds) is expected
        bounds = OracleBounds(max_vars=1)
        out = search_absorbing_term(Z2, SUB0, bounds)
        assert out.stop is OracleStop.CLOSURE_EXHAUSTED
        assert oracle_agrees(v, out, bounds) is Agreement.UNRESOLVED
