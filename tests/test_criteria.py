import itertools
import tracemalloc

import pytest

import absorb.core
from absorb import (
    BudgetExceeded,
    CaseTag,
    FailedCondition,
    LengthNotEvaluable,
    NaryTable,
    NotAssociative,
    NotClosed,
    NotProperSubuniverse,
    Subuniverse,
    Word,
    compute_exponent,
    check_pair,
    cond2_products,
    cond3_products,
    construct_witness,
    decide_theorem,
    derive_power_algebra,
    detect_case,
    eval_word,
    is_associative,
    is_closed,
    is_commutative,
    is_idempotent,
    search_absorbing_term,
    verify_witness,
)
from absorb.core import _reduce_left
from absorb.criteria import absorption_conditions_hold
from conftest import (
    LEFT_ZERO,
    MIN2,
    MIN3,
    SUB0,
    SUB0_OF3,
    SUB1,
    SUB01_OF3,
    TMIN2,
    TZ2,
    Z2,
    all_subsets,
    enumerate_pairs,
)
from test_core import ASSOC_SMALL

# Non-commutative size-4 semigroup whose triple products are neither
# commutative nor idempotent: (i, j) . (i', j') = (i, 0) on {0,1}x{0,1},
# encoded as index 2i + j.
PROJ_KILL = NaryTable.from_function(2, 4, lambda x, y: (x // 2) * 2)
PROJ_KILL_T = derive_power_algebra(PROJ_KILL, 3)
PROJ_KILL_SUB = Subuniverse(4, frozenset({0, 2}))


def naive_cond2_products(table, sub):
    """Reference: apply the table to a b^(n-1) and b^(n-1) a."""
    pad = table.arity - 1
    for b in sub.elements:
        for a in range(table.size):
            if table.apply(a, *([b] * pad)) not in sub.members:
                return False
            if table.apply(*([b] * pad), a) not in sub.members:
                return False
    return True


def naive_cond3_products(table, sub):
    """Reference: apply the table to every n-tuple meeting the subset."""
    for tup in itertools.product(range(table.size), repeat=table.arity):
        if sub.members.isdisjoint(tup):
            continue
        if table.apply(*tup) not in sub.members:
            return False
    return True


class TestCond2:
    def test_min_zero(self):
        assert cond2_products(MIN2, SUB0) is True

    def test_left_zero_escapes(self):
        assert cond2_products(LEFT_ZERO, SUB0) is False

    def test_ternary_sum_escapes(self):
        # f(1,0,0) = 1
        assert cond2_products(TZ2, SUB0) is False

    def test_matches_apply_loop(self, predicate_tables):
        for table in predicate_tables:
            for sub in all_subsets(table.size):
                assert cond2_products(table, sub) == naive_cond2_products(table, sub), (table, sub)


class TestCond3:
    def test_chain_min_pair(self):
        assert cond3_products(MIN3, SUB01_OF3) is True

    def test_left_zero(self):
        assert cond3_products(LEFT_ZERO, SUB0) is False

    def test_ternary_min(self):
        assert cond3_products(TMIN2, SUB0) is True

    def test_matches_apply_loop(self, predicate_tables):
        for table in predicate_tables:
            for sub in all_subsets(table.size):
                assert cond3_products(table, sub) == naive_cond3_products(table, sub), (table, sub)

    def test_fails_wherever_cond2_fails(self):
        # check_pair reads cond3 only where cond2 holds
        pairs = list(enumerate_pairs(ASSOC_SMALL))
        every_ternary2 = [NaryTable(3, 2, e) for e in itertools.product(range(2), repeat=8)]
        pairs += [(t, s) for t in every_ternary2 for s in all_subsets(2)]
        escaping = [(t, s) for t, s in pairs if not cond2_products(t, s)]
        assert escaping
        assert not any(cond3_products(t, s) for t, s in escaping)


class TestDecideTheorem:
    def test_semilattice_absorbs(self):
        v = decide_theorem(MIN2, SUB0)
        assert v.absorbs
        assert v.exponent_k == 2
        assert v.witness == Word(2, (0, 1))
        assert v.proof_status is CaseTag.THEOREM_BINARY
        assert v.failed_condition is None

    def test_z2_products_escape(self):
        v = decide_theorem(Z2, SUB0)
        assert not v.absorbs
        assert v.failed_condition is FailedCondition.PRODUCTS_ESCAPE_B
        assert v.proof_status is CaseTag.THEOREM_BINARY
        # the exponent exists even though the products fail
        assert v.exponent_k == 3

    def test_ternary_min_absorbs(self):
        v = decide_theorem(TMIN2, SUB0)
        assert v.absorbs
        assert v.exponent_k == 3
        assert v.witness == Word(2, (0, 0, 1))
        assert str(v.witness) == "xxy"
        # commutative precedes coatom in the case priority
        assert v.proof_status is CaseTag.THEOREM_COMMUTATIVE

    def test_no_exponent_reported_after_products(self):
        v = decide_theorem(PROJ_KILL_T, PROJ_KILL_SUB)
        assert not v.absorbs
        assert v.failed_condition is FailedCondition.NO_EXPONENT
        assert v.exponent_k is None

    def test_rejects_full_subuniverse(self):
        with pytest.raises(NotProperSubuniverse):
            decide_theorem(MIN2, Subuniverse(2, frozenset({0, 1})))

    def test_rejects_unclosed_subset(self):
        with pytest.raises(NotClosed):
            decide_theorem(Z2, Subuniverse(2, frozenset({1})))

    def test_rejects_nonassociative_table(self):
        with pytest.raises(NotAssociative):
            decide_theorem(NaryTable(2, 2, (0, 1, 0, 0)), SUB0)


class TestConstructWitness:
    def test_k2(self):
        assert construct_witness(MIN2, 2) == Word(2, (0, 1))

    def test_k3_ternary(self):
        assert construct_witness(TMIN2, 3) == Word(2, (0, 0, 1))

    def test_k5_ternary(self):
        assert construct_witness(TMIN2, 5) == Word(2, (0, 0, 0, 0, 1))

    def test_rejects_invalid_k(self):
        with pytest.raises(LengthNotEvaluable):
            construct_witness(TMIN2, 2)
        with pytest.raises(ValueError):
            construct_witness(MIN2, 1)


def test_one_length_rule():
    # every operation that needs a length 1 mod (n-1) raises the same error
    message = "length 4 is not 1 mod 2"
    x4 = Word(1, (0,) * 4)
    for call in (
        lambda: eval_word(TZ2, x4, [0]),
        lambda: verify_witness(TZ2, SUB0, x4),
        lambda: construct_witness(TZ2, 4),
        lambda: derive_power_algebra(TZ2, 4),
    ):
        with pytest.raises(LengthNotEvaluable, match=message):
            call()


class TestVerifyWitness:
    def test_semilattice_xy(self):
        assert verify_witness(MIN2, SUB0, Word(2, (0, 1))) is True

    def test_left_zero_projection_escapes(self):
        assert verify_witness(LEFT_ZERO, SUB0, Word(2, (0, 1))) is False

    def test_z2_xxy_rejected(self):
        # x=0, y=1 evaluates to 0+0+1 = 1, outside {0}
        assert verify_witness(Z2, SUB0, Word(2, (0, 0, 1))) is False

    def test_unused_variable_still_quantified(self):
        # t(x, y, z) = min(x, y): z never occurs, conditions degenerate
        assert verify_witness(MIN2, SUB0, Word(3, (0, 1))) is True
        # value is the unused-vars word min(y, y) = y, so the x coordinate fails
        assert verify_witness(MIN2, SUB0, Word(2, (1, 1))) is False


class TestDetectCase:
    def test_binary_always_binary(self):
        for table in (MIN2, Z2, LEFT_ZERO):
            assert detect_case(table, SUB0) is CaseTag.THEOREM_BINARY

    def test_commutative_ternary(self):
        assert detect_case(TZ2, SUB0) is CaseTag.THEOREM_COMMUTATIVE

    def test_coatom_before_idempotent(self):
        # non-commutative band: left-zero derived, coatom subset
        lz3 = derive_power_algebra(LEFT_ZERO, 3)
        assert detect_case(lz3, SUB0) is CaseTag.THEOREM_COATOM

    def test_idempotent_ternary(self):
        # glue two left-zero elements onto a chain to dodge coatom: use a
        # 3-element left-zero band with a singleton subset instead
        lz3 = derive_power_algebra(NaryTable.from_function(2, 3, lambda a, b: a), 3)
        assert detect_case(lz3, SUB0_OF3) is CaseTag.THEOREM_IDEMPOTENT_TERNARY

    def test_conjectural_needs_size4(self):
        assert not is_commutative(PROJ_KILL_T)
        assert not is_idempotent(PROJ_KILL_T)
        assert detect_case(PROJ_KILL_T, PROJ_KILL_SUB) is CaseTag.CONJECTURAL

    def test_never_conjectural_for_binary_or_coatom(self):
        for table, sub in enumerate_pairs(ASSOC_SMALL):
            tag = detect_case(table, sub)
            if table.arity == 2 or table.size - len(sub.members) == 1:
                assert tag is not CaseTag.CONJECTURAL


class TestCommutativeIdempotent:
    def test_examples(self):
        assert is_commutative(MIN2)
        assert not is_commutative(LEFT_ZERO)
        assert is_commutative(TZ2)
        assert is_idempotent(MIN2)
        assert not is_idempotent(NaryTable(2, 2, (0, 0, 0, 0)))
        assert is_idempotent(TZ2)


class TestDerivePowerAlgebra:
    def test_z2_cube_is_ternary_sum(self):
        assert derive_power_algebra(Z2, 3).entries == TZ2.entries

    def test_min_square_identity(self):
        assert derive_power_algebra(MIN2, 2).entries == MIN2.entries

    def test_ternary_min_fifth_power(self):
        d = derive_power_algebra(TMIN2, 5)
        assert d.arity == 5
        for tup in itertools.product(range(2), repeat=5):
            assert d.apply(*tup) == min(tup)

    def test_rejects_bad_target_arity(self):
        with pytest.raises(LengthNotEvaluable):
            derive_power_algebra(TZ2, 4)
        with pytest.raises(ValueError):
            derive_power_algebra(MIN2, 1)

    def test_budget_checked_before_allocating(self, monkeypatch):
        min3 = NaryTable.from_function(2, 3, min)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"3\^17 entries exceed the cap of 4194304"):
                derive_power_algebra(min3, 17)
            # a k too long to compute 3**k cheaply is refused without it
            with pytest.raises(BudgetExceeded, match=r"3\^1000001 entries"):
                derive_power_algebra(min3, 1_000_001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert derive_power_algebra(NaryTable(2, 1, (0,)), 101).entries == (0,)
        monkeypatch.setattr(absorb.core, "BUILD_MAX_VALUES", 8)
        assert len(derive_power_algebra(Z2, 3).entries) == 8
        with pytest.raises(BudgetExceeded):
            derive_power_algebra(Z2, 4)

    def test_matches_per_tuple_reference(self, binary3, binary4):
        # The reference reduces every k-tuple left-greedily.  The size-2
        # shapes take every table, associative or not, so that a right fold
        # fails too; an off-by-one step count fails on the arity alone.
        def reference(table, k):
            tuples = itertools.product(range(table.size), repeat=k)
            return tuple(_reduce_left(table, tup) for tup in tuples)

        every_binary2 = [NaryTable(2, 2, e) for e in itertools.product(range(2), repeat=4)]
        every_ternary2 = [NaryTable(3, 2, e) for e in itertools.product(range(2), repeat=8)]
        cases = [(t, k) for t in every_binary2 + binary3 + binary4 for k in (3, 5)]
        cases += [(t, k) for t in every_ternary2 for k in (5, 7)]
        cases.append((Z2, 7))
        for table, k in cases:
            derived = derive_power_algebra(table, k)
            assert (derived.arity, derived.size) == (k, table.size)
            assert derived.entries == reference(table, k), (table, k)

    def test_output_associative_and_idempotent_at_exponent(self):
        for table in (MIN2, Z2, TMIN2):
            k = compute_exponent(table)
            d = derive_power_algebra(table, k)
            assert is_associative(d)
            assert is_idempotent(d)


class TestVerdictInvariants:
    def test_structure_on_small_corpus(self):
        for table, sub in enumerate_pairs(ASSOC_SMALL):
            v = decide_theorem(table, sub)
            if v.absorbs:
                assert v.witness is not None
                assert v.exponent_k is not None
                assert v.failed_condition is None
                assert verify_witness(table, sub, v.witness)
            else:
                assert v.failed_condition is not None
                assert v.witness is None


MAX3 = NaryTable.from_function(2, 3, max)
FOREIGN = Subuniverse(5, frozenset({2, 4}))
LARGER_FULL = Subuniverse(4, frozenset({0, 1, 2, 3}))


class TestPairGate:
    """Every (table, subset) entry point checks the carrier first; the
    criterion and the oracle share one proper-and-closed check, and
    check_pair raises what the criterion raises."""

    @pytest.mark.parametrize(
        "check",
        [
            lambda: is_closed(MAX3, FOREIGN),
            lambda: cond2_products(MAX3, FOREIGN),
            lambda: cond3_products(MAX3, FOREIGN),
            lambda: detect_case(MAX3, FOREIGN),
            lambda: absorption_conditions_hold(MAX3, FOREIGN, (0, 1), 2),
            lambda: verify_witness(MAX3, FOREIGN, Word(2, (0, 1))),
            lambda: decide_theorem(MAX3, LARGER_FULL),
            lambda: search_absorbing_term(MAX3, LARGER_FULL),
            lambda: check_pair(MAX3, LARGER_FULL),
        ],
        ids=[
            "is_closed",
            "cond2_products",
            "cond3_products",
            "detect_case",
            "absorption_conditions_hold",
            "verify_witness",
            "decide_theorem",
            "search_absorbing_term",
            "check_pair",
        ],
    )
    def test_rejects_a_foreign_carrier(self, check):
        with pytest.raises(ValueError, match="carrier"):
            check()

    @staticmethod
    def messages(error, table, sub):
        """The message each public route raises on the pair, as a set."""
        messages = set()
        for route in (decide_theorem, search_absorbing_term, check_pair):
            with pytest.raises(error) as raised:
                route(table, sub)
            messages.add(str(raised.value))
        return messages

    def test_both_routes_reject_the_full_carrier_alike(self):
        full = Subuniverse(3, frozenset({0, 1, 2}))
        assert len(self.messages(NotProperSubuniverse, MAX3, full)) == 1

    def test_every_route_rejects_an_unclosed_subset_alike(self):
        # 1 + 1 = 0 in Z2
        assert len(self.messages(NotClosed, Z2, SUB1)) == 1
