import pytest
from hypothesis import given, strategies as st

from absorb import (
    Agreement,
    GenSpec,
    NotClosed,
    NotProperSubuniverse,
    OracleBounds,
    Subuniverse,
    Word,
    compute_exponent,
    decide_theorem,
    element_power,
    enumerate_pairs,
    enumerate_tables,
    oracle_agrees,
    search_absorbing_term,
    verify_witness,
)
from absorb.core import length_evaluable
from absorb.criteria import absorption_conditions_hold
from absorb.oracle import _WordWalk, powers_fix_all
from conftest import LEFT_ZERO, MIN2, SUB0, Z2
from test_core import ASSOC_SMALL
from test_criteria import PROJ_KILL_SUB, PROJ_KILL_T

SMALL_PAIRS = list(enumerate_pairs(ASSOC_SMALL))

# Binary sizes 2-3, ternary size 2 and a slice of the ternary power tables of size 3.
KERNEL_PAIRS = list(
    enumerate_pairs(
        list(enumerate_tables(GenSpec(2, 2)))
        + list(enumerate_tables(GenSpec(3, 2)))
        + list(enumerate_tables(GenSpec(2, 3)))
        + list(enumerate_tables(GenSpec(3, 3, mode="power")))[::8]
    )
)


def canonical_letter_seqs(length, max_vars):
    """Restricted-growth sequences in lexicographic order: the word order the
    walk must keep, enumerated one word at a time."""
    seq = [0] * length

    def rec(pos, used):
        if pos == length:
            yield tuple(seq)
            return
        for v in range(min(used + 1, max_vars)):
            seq[pos] = v
            yield from rec(pos + 1, max(used, v + 1))

    yield from rec(0, 0)


def reference_search(table, sub, bounds):
    """The pruned scan word by word with absorption_conditions_hold, as it
    was before the walk: (witness letters or None, words examined)."""
    k = compute_exponent(table)
    examined = 0
    for q in range(1 if bounds.allow_trivial else 2, bounds.resolved_max_len(k) + 1):
        if not length_evaluable(q, table.arity) or not powers_fix_all(q, k):
            continue
        for letters in canonical_letter_seqs(q, bounds.max_vars):
            examined += 1
            if absorption_conditions_hold(table, sub, letters, max(letters) + 1):
                return letters, examined
    return None, examined


class TestSearch:
    def test_semilattice_finds_xy(self):
        out = search_absorbing_term(MIN2, SUB0)
        assert out.found
        assert out.witness == Word(2, (0, 1))

    def test_left_zero_exhausts(self):
        out = search_absorbing_term(LEFT_ZERO, SUB0)
        assert not out.found
        assert out.witness is None

    def test_z2_exhausts(self):
        out = search_absorbing_term(Z2, SUB0)
        assert not out.found

    def test_found_witness_verifies(self):
        for table, sub in SMALL_PAIRS:
            out = search_absorbing_term(table, sub)
            if out.found:
                assert verify_witness(table, sub, out.witness)

    def test_rejects_full_subuniverse(self):
        with pytest.raises(NotProperSubuniverse):
            search_absorbing_term(MIN2, Subuniverse(2, frozenset({0, 1})))

    def test_rejects_unclosed_subset(self):
        with pytest.raises(NotClosed):
            search_absorbing_term(Z2, Subuniverse(2, frozenset({1})))

    def test_deterministic(self):
        for table, sub in SMALL_PAIRS[:8]:
            a = search_absorbing_term(table, sub)
            b = search_absorbing_term(table, sub)
            assert a == b

    def test_trivial_length_only_when_allowed(self):
        bounds = OracleBounds(max_vars=1, max_len=2, allow_trivial=True)
        out = search_absorbing_term(MIN2, SUB0, bounds)
        assert not out.found
        assert out.words_examined == 2  # the words x and xx
        bounds = OracleBounds(max_vars=1, max_len=2)
        out = search_absorbing_term(MIN2, SUB0, bounds)
        assert out.words_examined == 1  # xx only

    @given(data=st.data())
    def test_monotone_in_bounds(self, data):
        table, sub = data.draw(st.sampled_from(SMALL_PAIRS))
        small = OracleBounds(max_vars=2, max_len=4)
        large = OracleBounds(max_vars=3, max_len=7)
        if search_absorbing_term(table, sub, small).found:
            assert search_absorbing_term(table, sub, large).found

    def test_length_prune_matches_element_powers(self):
        # element_power is the reference for prune (c): a^q = a for all a
        tables = (
            list(enumerate_tables(GenSpec(3, 2)))
            + list(enumerate_tables(GenSpec(3, 3, mode="power")))
            + list(enumerate_tables(GenSpec(2, 4, mode="power")))
        )
        assert len(tables) == 234
        for table in tables:
            k = compute_exponent(table)
            for q in range(1, 40):
                if not length_evaluable(q, table.arity):
                    continue
                expected = all(element_power(table, a, q) == a for a in range(table.size))
                assert powers_fix_all(q, k) == expected, (table, q)

    def test_pruning_never_changes_classification(self):
        # unpruned scans every sequence over max_vars declared variables
        bounds = OracleBounds(max_vars=2, max_len=5)
        for table, sub in SMALL_PAIRS:
            pruned = search_absorbing_term(table, sub, bounds)
            raw = search_absorbing_term(table, sub, bounds, prune=False)
            assert pruned.found == raw.found
            assert pruned.words_examined <= raw.words_examined


class TestWordWalk:
    def test_per_word_verdicts_match_definition(self):
        # every canonical word with max_vars=3 and length <= 7, lengths the
        # search would skip included
        assert len(KERNEL_PAIRS) == 558
        for table, sub in KERNEL_PAIRS:
            walk = _WordWalk(table, sub, 3)
            for q in range(1, 8):
                if not length_evaluable(q, table.arity):
                    continue
                verdicts = list(walk._verdicts(q))
                assert [letters for letters, _ in verdicts] == list(canonical_letter_seqs(q, 3))
                for letters, absorbs in verdicts:
                    expected = absorption_conditions_hold(table, sub, letters, max(letters) + 1)
                    assert absorbs == expected, (table, sub, letters)

    def test_search_matches_reference_scan(self):
        for bounds in (OracleBounds(max_len=7), OracleBounds(max_vars=2, max_len=5, allow_trivial=True)):
            for table, sub in KERNEL_PAIRS:
                letters, examined = reference_search(table, sub, bounds)
                out = search_absorbing_term(table, sub, bounds)
                assert out.words_examined == examined, (table, sub)
                assert (out.witness and out.witness.letters) == letters, (table, sub)
                if letters is not None:
                    assert out.witness.num_vars == max(letters) + 1


class TestBounds:
    def test_default_resolution(self):
        b = OracleBounds()
        assert b.resolved_max_len(None) == 9
        assert b.resolved_max_len(3) == 9
        assert b.resolved_max_len(12) == 12
        assert OracleBounds(max_len=4).resolved_max_len(12) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleBounds(max_vars=0)
        with pytest.raises(ValueError):
            OracleBounds(max_len=1)
        OracleBounds(max_len=1, allow_trivial=True)


class TestAgreement:
    def test_both_positive(self):
        v = decide_theorem(MIN2, SUB0)
        assert oracle_agrees(MIN2, SUB0, OracleBounds(), v) is Agreement.AGREE

    def test_negative_with_binary_completeness(self):
        v = decide_theorem(LEFT_ZERO, SUB0)
        assert oracle_agrees(LEFT_ZERO, SUB0, OracleBounds(), v) is Agreement.AGREE

    def test_conjectural_none_is_unresolved(self):
        v = decide_theorem(PROJ_KILL_T, PROJ_KILL_SUB)
        assert not v.absorbs
        tag = oracle_agrees(PROJ_KILL_T, PROJ_KILL_SUB, OracleBounds(), v)
        assert tag is Agreement.UNRESOLVED

    def test_precomputed_outcome_matches_internal_search(self):
        v = decide_theorem(Z2, SUB0)
        out = search_absorbing_term(Z2, SUB0, OracleBounds())
        assert oracle_agrees(Z2, SUB0, OracleBounds(), v, outcome=out) == oracle_agrees(
            Z2, SUB0, OracleBounds(), v
        )
