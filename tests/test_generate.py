import dataclasses
import itertools
import random
import time

import pytest

import absorb.core
import absorb.criteria
import absorb.generate
from absorb import (
    AttemptCapExhausted,
    BudgetExceeded,
    GenSpec,
    NaryTable,
    canonical_form,
    derive_power_algebra,
    enumerate_tables,
    is_associative,
    is_commutative,
    is_idempotent,
    random_filtered,
)
from absorb.generate import MAX_FREE_CELLS, _cell_units, _dedup_canonical
from conftest import LEFT_ZERO, MIN2, TZ2, Z2, enumerate_pairs
from test_core import ASSOC_BINARY2, ASSOC_TERNARY2, naive_associative

MAX2 = NaryTable.from_function(2, 2, max)


def naive_canonical_form(table):
    """Reference: relabel every index of every permutation, keep the minimum."""
    m, n = table.size, table.arity
    tuples = list(itertools.product(range(m), repeat=n))
    best = None
    for perm in itertools.permutations(range(m)):
        relabeled = [0] * len(table.entries)
        for i, tup in enumerate(tuples):
            j = 0
            for a in tup:
                j = j * m + perm[a]
            relabeled[j] = perm[table.entries[i]]
        candidate = tuple(relabeled)
        if best is None or candidate < best:
            best = candidate
    return NaryTable(n, m, best)


class TestGenSpec:
    def test_int_fields_reject_other_types(self):
        # a float count would round up a random stream, a float size would
        # fail deep in backtracking, and a float seed would reach corpus.json
        for field in ("size", "arity", "count", "seed"):
            for value in (2.5, 2.0, True, "2"):
                with pytest.raises(ValueError, match=f"{field} must be an int"):
                    GenSpec(**{"size": 2, "arity": 2, "mode": "random", "count": 2, field: value})

    def test_power_mode_imports_nothing_from_criteria(self):
        # power algebras are core index arithmetic, not a criterion
        from_criteria = [
            name
            for name, obj in vars(absorb.generate).items()
            if getattr(obj, "__module__", None) == "absorb.criteria"
        ]
        assert from_criteria == []
        assert not hasattr(absorb.criteria, "derive_power_algebra")


class TestExhaustive:
    def test_binary_size2_count(self):
        assert len(ASSOC_BINARY2) == 8

    def test_binary_size3_count(self):
        assert len(list(enumerate_tables(GenSpec(3, 2)))) == 113

    def test_ternary_size2_count(self):
        # regression constant, re-derived from the 256-candidate naive filter
        naive = {
            entries
            for entries in itertools.product(range(2), repeat=8)
            if naive_associative(NaryTable(3, 2, entries))
        }
        assert len(naive) == 8
        assert {t.entries for t in ASSOC_TERNARY2} == naive

    def test_backtracking_equals_naive_binary_size2(self):
        naive = {
            entries
            for entries in itertools.product(range(2), repeat=4)
            if naive_associative(NaryTable(2, 2, entries))
        }
        assert {t.entries for t in ASSOC_BINARY2} == naive

    def test_emits_each_table_once(self):
        tables = [t.entries for t in enumerate_tables(GenSpec(3, 2))]
        assert len(tables) == len(set(tables))

    def test_every_emission_associative(self):
        for spec in (GenSpec(2, 2), GenSpec(2, 3), GenSpec(3, 2)):
            assert all(is_associative(t) for t in enumerate_tables(spec))

    def test_filters_respected(self):
        idem = list(enumerate_tables(GenSpec(3, 2, idempotent=True)))
        assert idem and all(is_idempotent(t) for t in idem)
        comm = list(enumerate_tables(GenSpec(3, 2, commutative=True)))
        assert comm and all(is_commutative(t) for t in comm)

    def test_filtered_ternary_size3_within_budget(self):
        # 10 free orbits under commutativity; 7 once the diagonal is pinned
        comm = list(enumerate_tables(GenSpec(3, 3, commutative=True)))
        assert len(comm) == 63
        both = list(enumerate_tables(GenSpec(3, 3, commutative=True, idempotent=True)))
        assert len(both) == 18
        assert all(is_commutative(t) and is_idempotent(t) for t in both)

    def test_unfiltered_ternary_size3_out_of_budget(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_tables(GenSpec(3, 3)))

    def test_budget_counts_units_before_building_them(self):
        # the budget decides exactly as the built units would
        for m, n in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)):
            for idempotent, commutative in itertools.product((False, True), repeat=2):
                units, _forced = _cell_units(m, n, idempotent, commutative)
                spec = GenSpec(m, n, idempotent=idempotent, commutative=commutative)
                stream = enumerate_tables(spec)
                if len(units) > MAX_FREE_CELLS:
                    with pytest.raises(BudgetExceeded, match=f"^{len(units)} free cells"):
                        next(stream)
                else:
                    next(stream, None)
        # m**n cells would take minutes to build
        for spec in (GenSpec(10, 10), GenSpec(12, 6, commutative=True)):
            started = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                next(enumerate_tables(spec))
            assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "mode, power", [("exhaustive", "3^1000000"), ("random", "3^1999999")]
    )
    def test_huge_arity_is_refused_without_the_power(self, mode, power):
        # the message names the power it refuses: the cells of one table, or
        # the (2n-1)-tuples of one associativity check
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded) as refused:
            next(enumerate_tables(GenSpec(3, 10**6, mode=mode, count=1)))
        assert time.perf_counter() - started < 1.0
        message = str(refused.value)
        assert message.startswith(f"{power} ") and len(message) < 200

    def test_canonical_search_checks_its_relabelings(self, monkeypatch):
        # no free-cell budget admits size 7 today; lifted, the canonical cap decides
        monkeypatch.setattr(absorb.generate, "MAX_FREE_CELLS", 49)
        message = "^7 elements in a canonical form exceed the cap of 6$"
        with pytest.raises(BudgetExceeded, match=message):
            next(enumerate_tables(GenSpec(7, 2, dedup=True)))


class TestPowerMode:
    def test_derives_all_binaries(self):
        derived = list(enumerate_tables(GenSpec(2, 3, mode="power")))
        assert len(derived) == 8
        assert all(t.arity == 3 and is_associative(t) for t in derived)
        assert TZ2.entries in {t.entries for t in derived}

    def test_filters_apply_to_derived_table(self):
        derived = list(enumerate_tables(GenSpec(2, 3, mode="power", idempotent=True)))
        assert derived and all(is_idempotent(t) for t in derived)

    def test_rejects_binary_target(self):
        with pytest.raises(ValueError):
            GenSpec(2, 2, mode="power")


class TestDeriveFromSemigroup:
    def test_z2_gives_ternary_sum(self):
        assert derive_power_algebra(Z2, 3).entries == TZ2.entries

    def test_min_gives_ternary_min(self):
        d = derive_power_algebra(MIN2, 3)
        for tup in itertools.product(range(2), repeat=3):
            assert d.apply(*tup) == min(tup)

    def test_left_zero_gives_first_projection(self):
        d = derive_power_algebra(LEFT_ZERO, 3)
        for tup in itertools.product(range(2), repeat=3):
            assert d.apply(*tup) == tup[0]


class TestRandomFiltered:
    def test_reproducible_streams(self):
        a = [t.entries for t in random_filtered(3, 3, 10, 1, idempotent=True, commutative=True)]
        b = [t.entries for t in random_filtered(3, 3, 10, 1, idempotent=True, commutative=True)]
        assert a == b
        assert len(a) == 10

    def test_members_of_exhaustive_list(self):
        exhaustive = {t.entries for t in ASSOC_BINARY2}
        sample = list(random_filtered(2, 2, 5, 7))
        assert len(sample) == 5
        assert all(t.entries in exhaustive for t in sample)

    def test_genspec_random_needs_positive_count(self):
        for count in (0, -1):
            with pytest.raises(ValueError):
                GenSpec(2, 2, mode="random", count=count)

    def test_count_zero_is_empty(self):
        assert list(random_filtered(2, 2, 0, 3)) == []

    def test_attempt_cap_warns_and_ends_stream(self, monkeypatch):
        # 40 draws of 2**3 tuples each
        monkeypatch.setattr(absorb.generate, "MAX_SAMPLE_TUPLES", 40 * 8)
        with pytest.warns(AttemptCapExhausted, match="after 40 draws"):
            got = list(random_filtered(2, 2, 10_000, 0))
        assert len(got) < 10_000

    def test_tuple_budget_ends_a_four_ary_stream(self, monkeypatch):
        # a 4-ary draw of size 4 reads 4**7 tuples: 5 draws, then the
        # sixth would pass the budget
        monkeypatch.setattr(absorb.generate, "MAX_SAMPLE_TUPLES", 6 * 4**7 - 1)
        started = time.perf_counter()
        with pytest.warns(AttemptCapExhausted, match="after 5 draws and 0 of 3 tables"):
            assert list(random_filtered(4, 4, 3, 0)) == []
        assert time.perf_counter() - started < 1.0

    def test_budget_counts_tuples_before_building_units(self):
        # one associativity check would read 7**13 tuples
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="tuples per associativity check"):
            next(enumerate_tables(GenSpec(7, 7, mode="random", count=1)))
        assert time.perf_counter() - started < 1.0

    def test_filters_hold_on_keepers(self):
        for t in random_filtered(3, 3, 10, 5, idempotent=True, commutative=True):
            assert is_associative(t) and is_idempotent(t) and is_commutative(t)


class TestCanonicalForm:
    def test_left_zero_minimal_relabeling(self):
        # compare the two relabelings by hand: both give left-zero back
        relabelings = set()
        for perm in ((0, 1), (1, 0)):
            entries = [0] * 4
            for a in range(2):
                for b in range(2):
                    entries[perm[a] * 2 + perm[b]] = perm[LEFT_ZERO.apply(a, b)]
            relabelings.add(tuple(entries))
        assert canonical_form(LEFT_ZERO).entries == min(relabelings)

    def test_single_element_table(self):
        t = NaryTable(2, 1, (0,))
        assert canonical_form(t) == t

    def test_min_max_same_class(self):
        assert canonical_form(MIN2) == canonical_form(MAX2)

    def test_idempotent_as_function(self):
        for t in ASSOC_BINARY2 + ASSOC_TERNARY2:
            c = canonical_form(t)
            assert canonical_form(c) == c

    def test_isomorphism_invariant(self):
        for t in ASSOC_TERNARY2:
            relabeled = [0] * 8
            perm = (1, 0)
            for i, tup in enumerate(itertools.product(range(2), repeat=3)):
                j = 0
                for a in tup:
                    j = j * 2 + perm[a]
                relabeled[j] = perm[t.entries[i]]
            assert canonical_form(NaryTable(3, 2, tuple(relabeled))) == canonical_form(t)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            canonical_form(NaryTable.from_function(2, 7, lambda a, b: 0))

    def test_matches_naive(self, commutative5):
        rng = random.Random(6)
        tables = [NaryTable(2, 1, (0,))]
        tables += [NaryTable(3, 2, e) for e in itertools.product(range(2), repeat=8)]
        tables += [NaryTable(2, 3, e) for e in itertools.product(range(3), repeat=9)]
        tables += enumerate_tables(GenSpec(4, 2))
        tables += commutative5[::10]
        tables += enumerate_tables(GenSpec(3, 3, mode="power"))
        tables += [NaryTable(2, 6, tuple(rng.randrange(6) for _ in range(36))) for _ in range(20)]
        assert len(tables) == 1 + 256 + 19_683 + 3_492 + 3_073 + 113 + 20
        assert any(not any(t.apply(*[a] * t.arity) == a for a in range(t.size)) for t in tables)
        for t in tables:
            assert canonical_form(t) == naive_canonical_form(t), t

    def test_uncached_shapes_match_naive(self, monkeypatch):
        monkeypatch.setattr(absorb.core, "PLAN_CACHE_MAX_OFFSETS", 0)
        monkeypatch.setattr(absorb.core, "_plans", {})
        rng = random.Random(7)
        tables = [NaryTable(3, 2, e) for e in itertools.product(range(2), repeat=8)]
        tables += enumerate_tables(GenSpec(3, 2))
        tables += [NaryTable(2, 6, tuple(rng.randrange(6) for _ in range(36))) for _ in range(3)]
        for t in tables:
            assert canonical_form(t) == naive_canonical_form(t), t
        assert not absorb.core._plans


class TestDedup:
    def test_preserves_canonical_set(self):
        spec = GenSpec(2, 2)
        raw = list(enumerate_tables(spec))
        deduped = list(enumerate_tables(GenSpec(2, 2, dedup=True)))
        raw_classes = {canonical_form(t).entries for t in raw}
        dedup_classes = {canonical_form(t).entries for t in deduped}
        assert raw_classes == dedup_classes
        assert len(deduped) == len(dedup_classes)
        assert len(deduped) <= len(raw)

    def test_counts_match_oeis(self, commutative5):
        # Semigroups up to isomorphism: OEIS A027851 (all) and A001426
        # (commutative); semilattices on m elements are the lattices on m + 1,
        # OEIS A006966 (5, 15, 53 at m = 4, 5, 6).
        for spec, count in (
            (GenSpec(2, 2, dedup=True), 5),
            (GenSpec(3, 2, dedup=True), 24),
            (GenSpec(4, 2, dedup=True), 188),
            (GenSpec(5, 2, commutative=True, dedup=True), 325),
            (GenSpec(4, 2, idempotent=True, commutative=True, dedup=True), 5),
            (GenSpec(5, 2, idempotent=True, commutative=True, dedup=True), 15),
            (GenSpec(6, 2, idempotent=True, commutative=True, dedup=True), 53),
        ):
            assert sum(1 for _ in enumerate_tables(spec)) == count, spec
        # Cross-check: the dedup pass over the labeled stream counts the same.
        assert sum(1 for _ in _dedup_canonical(commutative5)) == 325


class TestCanonicalSearch:
    """Exhaustive dedup prunes non-canonical tables during the search; it must
    yield what deduplicating the labeled stream keeps, in the same order."""

    @staticmethod
    def labeled_streams(commutative5):
        """Each labeled exhaustive stream of every filter combination the
        budget admits on binary sizes 1-4, ternary sizes 2 and 3 (commutative
        only) and commutative binary size 5, with its spec."""
        shapes = [(m, 2) for m in range(1, 5)] + [(2, 3)]
        specs = [
            GenSpec(m, n, idempotent=idempotent, commutative=commutative)
            for m, n in shapes
            for idempotent, commutative in itertools.product((False, True), repeat=2)
        ]
        specs += [GenSpec(3, 3, idempotent=idempotent, commutative=True) for idempotent in (False, True)]
        for spec in specs:
            yield spec, list(enumerate_tables(spec))
        yield GenSpec(5, 2, commutative=True), commutative5

    def test_equals_dedup_of_labeled_stream(self, commutative5):
        for spec, labeled in self.labeled_streams(commutative5):
            canonical = list(enumerate_tables(dataclasses.replace(spec, dedup=True)))
            assert canonical == list(_dedup_canonical(labeled)), spec
            assert all(canonical_form(t) == t for t in canonical), spec

    def test_labeled_streams_ascend(self, commutative5):
        # the invariant the equality rests on: the first table of each class
        # in the stream is its least relabeling
        for spec, labeled in self.labeled_streams(commutative5):
            entries = [t.entries for t in labeled]
            assert all(a < b for a, b in zip(entries, entries[1:])), spec


class TestPowerDedup:
    """Power mode with dedup derives from the canonical binary tables only;
    it must keep what deduplicating the powers of every labeled binary
    table keeps, in the same order."""

    @staticmethod
    def reference(spec):
        labeled = enumerate_tables(GenSpec(spec.size, 2))
        powers = (derive_power_algebra(binary, spec.arity) for binary in labeled)
        return list(_dedup_canonical(t for t in powers if spec.passes_filters(t)))

    def test_equals_dedup_of_labeled_powers(self):
        specs = [GenSpec(m, n, mode="power") for m, n in ((2, 3), (3, 3), (3, 5), (4, 3), (4, 5))]
        specs += [GenSpec(3, 3, mode="power", idempotent=True), GenSpec(3, 3, mode="power", commutative=True)]
        for spec in specs:
            deduped = list(enumerate_tables(dataclasses.replace(spec, dedup=True)))
            assert deduped == self.reference(spec), spec


class TestEnumeratePairs:
    """The pair stream the corpus tests are built on."""

    def test_min_has_both_singletons(self):
        pairs = list(enumerate_pairs([MIN2]))
        assert [(s.elements) for _, s in pairs] == [(0,), (1,)]

    def test_z2_single_pair(self):
        pairs = list(enumerate_pairs([Z2]))
        assert len(pairs) == 1
        assert pairs[0][1].elements == (0,)

    def test_empty_stream(self):
        assert list(enumerate_pairs([])) == []
