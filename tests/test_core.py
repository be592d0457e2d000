import itertools

import pytest
from hypothesis import given, strategies as st

from absorb import (
    BudgetExceeded,
    GenSpec,
    LengthNotEvaluable,
    NaryTable,
    NotAssociative,
    Subuniverse,
    TableFacts,
    Word,
    compute_exponent,
    derive_power_algebra,
    enumerate_subuniverses,
    enumerate_tables,
    eval_word,
    is_associative,
    is_closed,
    is_commutative,
    is_idempotent,
    power_profile,
    table_facts,
)
from absorb.fileio import load_algebra
from conftest import MIN2, MIN3, NULL2, TMIN2, TZ2, Z2, Z3, all_subsets

# Small associative universes, built once for property tests.
ASSOC_BINARY2 = list(enumerate_tables(GenSpec(2, 2)))
ASSOC_TERNARY2 = list(enumerate_tables(GenSpec(2, 3)))
ASSOC_SMALL = ASSOC_BINARY2 + ASSOC_TERNARY2


def naive_associative(table):
    """Independent exhaustive bracketing check, straight off the entries."""
    n, m = table.arity, table.size
    for tup in itertools.product(range(m), repeat=2 * n - 1):
        values = set()
        for p in range(n):
            inner = table.apply(*tup[p : p + n])
            values.add(table.apply(*tup[:p], inner, *tup[p + n :]))
        if len(values) > 1:
            return False
    return True


def naive_is_closed(table, sub):
    """Reference: apply the table to every n-tuple of members."""
    for tup in itertools.product(sub.elements, repeat=table.arity):
        if table.apply(*tup) not in sub.members:
            return False
    return True


def naive_is_commutative(table):
    """Reference: compare every tuple with each of its adjacent swaps."""
    for tup in itertools.product(range(table.size), repeat=table.arity):
        value = table.apply(*tup)
        for i in range(table.arity - 1):
            swapped = tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2 :]
            if table.apply(*swapped) != value:
                return False
    return True


def naive_enumerate_subuniverses(table):
    """Reference: build every proper mask's subset in ascending order, keep
    the closed ones."""
    found = []
    for mask in range(1, (1 << table.size) - 1):
        sub = Subuniverse.from_mask(table.size, mask)
        if naive_is_closed(table, sub):
            found.append(sub)
    return found


def reduce_right(table, values):
    """Right-greedy reduction, the independent counterpart of eval_word."""
    vals = list(values)
    n = table.arity
    while len(vals) > 1:
        tail = vals[-n:]
        vals = vals[:-n] + [table.apply(*tail)]
    return vals[0]


class TestNaryTable:
    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            NaryTable(2, 2, (0, 0, 0))

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            NaryTable(2, 2, (0, 0, 0, 2))

    def test_arity_and_size_bounds(self):
        with pytest.raises(ValueError):
            NaryTable(1, 2, (0, 0))
        with pytest.raises(ValueError):
            NaryTable(2, 0, ())

    def test_bool_entries_rejected(self):
        with pytest.raises(ValueError):
            NaryTable(2, 2, (True, False, False, True))

    def test_bool_and_float_shape_rejected(self):
        with pytest.raises(ValueError):
            NaryTable(2, True, (0,))
        with pytest.raises(ValueError):
            NaryTable(2.0, 2, (0, 0, 0, 0))

    def test_huge_arity_rejected_before_the_power(self, tmp_path):
        # 3**10**7 has millions of digits; the entry count alone refutes the shape.
        message = r"needs 3\*\*10000000 entries, got 1"
        with pytest.raises(ValueError, match=message):
            NaryTable(10**7, 3, (0,))
        path = tmp_path / "huge.json"
        path.write_text('{"arity": 10000000, "size": 3, "table": [0]}')
        with pytest.raises(ValueError, match=message):
            load_algebra(str(path))

    def test_row_major_layout(self):
        t = NaryTable(2, 3, tuple((a * 3 + b) % 3 for a in range(3) for b in range(3)))
        assert t.apply(2, 1) == (2 * 3 + 1) % 3

    def test_apply_rejects_arguments_off_the_carrier(self):
        # apply is the reference evaluator of the predicate tests: an
        # argument off the carrier must not read some other cell.
        t = NaryTable.from_function(2, 3, min)
        for args in ((0, 4), (-1, 0), (3, 0)):
            with pytest.raises(ValueError, match="not an element index below 3"):
                t.apply(*args)


class TestSubuniverse:
    def test_nonempty_enforced(self):
        with pytest.raises(ValueError):
            Subuniverse(2, frozenset())

    def test_members_in_range(self):
        with pytest.raises(ValueError):
            Subuniverse(2, frozenset({2}))

    def test_bool_members_rejected(self):
        with pytest.raises(ValueError):
            Subuniverse(2, frozenset({True}))

    def test_mask_roundtrip(self):
        sub = Subuniverse.from_mask(4, 0b1010)
        assert sub.elements == (1, 3)
        assert sub.mask == 0b1010


class TestWord:
    def test_letters_below_num_vars(self):
        with pytest.raises(ValueError):
            Word(2, (0, 2))

    def test_nonempty(self):
        with pytest.raises(ValueError):
            Word(1, ())

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            Word(2, (True, False))
        with pytest.raises(ValueError):
            Word(True, (0, 0))

    def test_display(self):
        assert str(Word(2, (0, 0, 1))) == "xxy"


class TestIsAssociative:
    def test_semilattice_meet(self):
        assert is_associative(MIN2)

    def test_nonassociative_binary_table(self):
        # f(0,0)=0, f(0,1)=1, f(1,0)=0, f(1,1)=0; verdict from the naive check
        t = NaryTable(2, 2, (0, 1, 0, 0))
        assert naive_associative(t) is False
        assert is_associative(t) is False

    def test_ternary_sum_mod2(self):
        assert is_associative(TZ2)

    def test_matches_naive_on_all_binary_size2(self):
        for entries in itertools.product(range(2), repeat=4):
            t = NaryTable(2, 2, entries)
            assert is_associative(t) == naive_associative(t)

    def test_matches_naive_on_all_binary_size3(self):
        verdicts = []
        for entries in itertools.product(range(3), repeat=9):
            t = NaryTable(2, 3, entries)
            verdicts.append(is_associative(t))
            assert verdicts[-1] == naive_associative(t), entries
        assert sum(verdicts) == 113  # OEIS A023814

    def test_matches_naive_on_derived_power_algebras(self, binary3):
        # Each derived table is associative by construction; one changed
        # entry may break that or not.  At arity 5 the changed entries
        # include some (such as 1 and 234) that only the later bracketings
        # expose.  The naive check takes ~20 s on an associative 7-ary table
        # of size 3, so at arity 7 it runs on the changes it refutes early,
        # and on the 7-ary table of size 2.
        def changed(table, i):
            entries = list(table.entries)
            entries[i] = (entries[i] + 1) % table.size
            return NaryTable(table.arity, table.size, entries)

        bases = binary3[::25]
        for base in bases:
            derived = derive_power_algebra(base, 5)
            assert is_associative(derived) and naive_associative(derived)
            for i in (0, 1, 121, 234):
                assert is_associative(changed(derived, i)) == naive_associative(changed(derived, i))
        seven_ary = [derive_power_algebra(base, 7) for base in bases]
        assert all(is_associative(t) for t in seven_ary)
        for b, i in ((0, 0), (1, 0), (2, 1093), (3, 0), (3, 1093), (4, 0)):
            assert not is_associative(changed(seven_ary[b], i))
            assert not naive_associative(changed(seven_ary[b], i))
        seven_ary_size2 = derive_power_algebra(Z2, 7)
        assert is_associative(seven_ary_size2) and naive_associative(seven_ary_size2)

    def test_refused_past_the_build_cap(self):
        # each bracketing of a 13-ary table of size 2 has 2^25 values
        table = derive_power_algebra(Z2, 13)
        message = r"^2\^25 tuples per associativity check exceed the cap of 4194304$"
        with pytest.raises(BudgetExceeded, match=message):
            is_associative(table)


class TestEvalWord:
    def test_ternary_min_word(self):
        assert eval_word(TMIN2, Word(2, (0, 1, 0, 1, 0)), [1, 0]) == 0

    def test_idempotent_square(self):
        assert eval_word(MIN2, Word(1, (0, 0)), [1]) == 1

    def test_five_fold_sum(self):
        # x^5 at x=1 is the direct 5-term sum mod 2
        assert eval_word(TZ2, Word(1, (0,) * 5), [1]) == 5 % 2

    def test_rejects_nonevaluable_length(self):
        with pytest.raises(LengthNotEvaluable):
            eval_word(TZ2, Word(2, (0, 1)), [0, 1])

    def test_rejects_bad_assignment(self):
        with pytest.raises(ValueError):
            eval_word(MIN2, Word(2, (0, 1)), [0])
        with pytest.raises(ValueError):
            eval_word(MIN2, Word(2, (0, 1)), [0, 2])

    @given(data=st.data())
    def test_reduction_order_irrelevant(self, data):
        table = data.draw(st.sampled_from(ASSOC_SMALL))
        n = table.arity
        q = data.draw(st.sampled_from([1 + j * (n - 1) for j in range(1, 5)]))
        num_vars = data.draw(st.integers(1, 3))
        letters = tuple(data.draw(st.integers(0, num_vars - 1)) for _ in range(q))
        assignment = [
            data.draw(st.integers(0, table.size - 1)) for _ in range(num_vars)
        ]
        word = Word(num_vars, letters)
        expected = reduce_right(table, [assignment[l] for l in letters])
        assert eval_word(table, word, assignment) == expected


def element_power(table, a, e):
    """a^e as the one-variable word x^e, evaluated by eval_word: a reference
    independent of the power walk behind compute_exponent."""
    return eval_word(table, Word(1, (0,) * e), [a])


class TestElementPower:
    def test_z2_cube(self):
        assert element_power(Z2, 1, 3) == 1

    def test_null_square(self):
        assert element_power(NULL2, 1, 2) == 0

    def test_cyclic3_fourth_power(self):
        x = 1
        for _ in range(3):
            x = Z3.apply(x, 1)
        assert x == 1
        assert element_power(Z3, 1, 4) == 1

    def test_rejects_invalid_exponent(self):
        with pytest.raises(LengthNotEvaluable, match="length 2 is not 1 mod 2"):
            element_power(TZ2, 1, 2)
        with pytest.raises(ValueError):
            element_power(MIN2, 1, 0)


class TestComputeExponent:
    def test_semilattice(self):
        assert compute_exponent(MIN2) == 2

    def test_z2_addition(self):
        # power walk: 1^2 = 0, 1^3 = 1
        assert Z2.apply(1, 1) == 0
        assert Z2.apply(Z2.apply(1, 1), 1) == 1
        assert compute_exponent(Z2) == 3

    def test_null_semigroup_has_none(self):
        assert compute_exponent(NULL2) is None

    def test_profiles_well_formed(self):
        for table in ASSOC_SMALL:
            for a in range(table.size):
                p = power_profile(table, a)
                assert p.period >= 1
                assert p.tail >= 0

    @pytest.mark.parametrize("a", [-1, 2])
    def test_profile_rejects_a_non_element(self, a):
        with pytest.raises(ValueError, match=f"element {a} is not an element index below 2"):
            power_profile(Z2, a)

    def test_exponent_fixes_everything_and_is_minimal(self):
        for table in ASSOC_SMALL + list(enumerate_tables(GenSpec(3, 2))):
            k = compute_exponent(table)
            if k is None:
                continue
            n = table.arity
            assert all(element_power(table, a, k) == a for a in range(table.size))
            for kp in range(2, k):
                if (kp - 1) % (n - 1):
                    continue
                assert any(
                    element_power(table, a, kp) != a for a in range(table.size)
                ), f"{table} has smaller exponent {kp}"

    def test_power_congruence_mod_k_minus_1(self):
        # a^l1 = a^l2 whenever l1 = l2 mod (k-1), both valid lengths
        for table in ASSOC_SMALL:
            k = compute_exponent(table)
            if k is None:
                continue
            n = table.arity
            lengths = [q for q in range(1, 3 * k + 2) if (q - 1) % (n - 1) == 0]
            for l1 in lengths:
                for l2 in lengths:
                    if (l1 - l2) % (k - 1) == 0:
                        for a in range(table.size):
                            assert element_power(table, a, l1) == element_power(
                                table, a, l2
                            )


class TestIsClosed:
    def test_chain_min(self):
        assert is_closed(MIN3, Subuniverse(3, frozenset({0, 1})))

    def test_z2_singleton_one(self):
        assert not is_closed(Z2, Subuniverse(2, frozenset({1})))

    def test_ternary_zero(self):
        assert is_closed(TZ2, Subuniverse(2, frozenset({0})))

    def test_matches_apply_loop(self, predicate_tables):
        for table in predicate_tables:
            for sub in all_subsets(table.size):
                assert is_closed(table, sub) == naive_is_closed(table, sub), (table, sub)

    def test_carrier_mismatch_rejected(self):
        with pytest.raises(ValueError, match="carrier"):
            is_closed(MIN3, Subuniverse(2, frozenset({0})))

    def test_full_carrier_always_closed(self):
        for table in ASSOC_SMALL:
            full = Subuniverse(table.size, frozenset(range(table.size)))
            assert is_closed(table, full)


class TestEnumerateSubuniverses:
    def test_min_both_singletons(self):
        # {1} is closed too: min(1,1) = 1
        assert [s.elements for s in enumerate_subuniverses(MIN2)] == [(0,), (1,)]

    def test_z2_only_zero(self):
        assert [s.elements for s in enumerate_subuniverses(Z2)] == [(0,)]

    def test_scan_excludes_carrier(self):
        for table in (MIN2, Z2, TZ2):
            subs = enumerate_subuniverses(table)
            assert subs and all(s.is_proper() for s in subs)

    def test_ascending_mask_order(self):
        masks = [s.mask for s in enumerate_subuniverses(MIN3)]
        assert masks == sorted(masks)

    def test_matches_apply_loop(self, predicate_tables):
        for table in predicate_tables:
            assert enumerate_subuniverses(table) == naive_enumerate_subuniverses(table), table


class TestIsCommutative:
    def test_matches_apply_loop(self, predicate_tables):
        for table in predicate_tables:
            assert is_commutative(table) == naive_is_commutative(table), table
        five_ary = [t for t in predicate_tables if t.arity == 5]
        assert {is_commutative(t) for t in five_ary} == {True, False}

    def test_single_element_table(self):
        assert is_commutative(NaryTable(4, 1, (0,)))


class TestIsIdempotent:
    def test_matches_apply_loop(self, predicate_tables):
        for table in predicate_tables:
            expected = all(table.apply(*[a] * table.arity) == a for a in range(table.size))
            assert is_idempotent(table) == expected, table
        assert {is_idempotent(t) for t in predicate_tables} == {True, False}

    def test_single_element_table(self):
        # the diagonal step (m**n - 1) / (m - 1) is undefined for m = 1
        assert is_idempotent(NaryTable(2, 1, (0,)))
        assert is_idempotent(NaryTable(5, 1, (0,)))


def test_nfold_composition_is_associative():
    for binary in ASSOC_BINARY2:
        for n in (3, 4):
            assert is_associative(derive_power_algebra(binary, n))


class TestTableFacts:
    def test_facts_of_ternary_sum(self):
        facts = table_facts(TZ2)
        assert facts == TableFacts(
            table=TZ2,
            exponent_k=3,
            commutative=True,
            idempotent=True,
        )

    def test_facts_pass_through_unchanged(self):
        facts = table_facts(MIN2)
        assert table_facts(facts) is facts

    def test_rejects_nonassociative_table(self):
        with pytest.raises(NotAssociative):
            table_facts(NaryTable(2, 2, (0, 1, 0, 0)))
