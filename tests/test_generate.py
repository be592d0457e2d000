import dataclasses
import itertools
import math
import random
import re
import time
import tracemalloc

import pytest

import absorb.core
import absorb.criteria
import absorb.generate
from absorb import (
    BudgetExceeded,
    GenSpec,
    NaryTable,
    canonical_form,
    derive_power_algebra,
    enumerate_tables,
    is_associative,
    is_commutative,
    is_idempotent,
)
from absorb.core import _relabeling_sources
from absorb.generate import MAX_FREE_CELLS, _backtrack_tables, _cell_units, _dedup_canonical
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


def reference_instances(size, arity):
    """Every adjacent-bracketing instance of the (2n-1)-tuples, as
    (innerL, baseL, strideL, innerR, baseR, strideR) with the outer cell at
    base + inner_value * stride, and for each cell the instances that may
    read it."""
    m, n = size, arity
    pw = [m ** (n - 1 - j) for j in range(n)]
    instances = []
    triggers = [set() for _ in range(m**n)]

    def inner_cell(tup, q):
        idx = 0
        for a in tup[q : q + n]:
            idx = idx * m + a
        return idx

    def outer_base(tup, q):
        base = 0
        for t in range(n):
            if t < q:
                base += tup[t] * pw[t]
            elif t > q:
                base += tup[n + t - 1] * pw[t]
        return base

    for tup in itertools.product(range(m), repeat=2 * n - 1):
        for p in range(n - 1):
            instance = (
                inner_cell(tup, p), outer_base(tup, p), pw[p],
                inner_cell(tup, p + 1), outer_base(tup, p + 1), pw[p + 1],
            )
            iL, bL, sL, iR, bR, sR = instance
            triggers[iL].add(len(instances))
            triggers[iR].add(len(instances))
            for v in range(m):
                triggers[bL + v * sL].add(len(instances))
                triggers[bR + v * sR].add(len(instances))
            instances.append(instance)
    return instances, [sorted(t) for t in triggers]


def reference_tables(size, arity, idempotent, commutative, canonical, instances):
    """Reference for the exhaustive search: fill the units in row-major
    order, every value from 0 up, and only check each instance once its
    cells are known, with no propagation; with canonical, prune by the
    lex-leader check over every cell.  instances are the
    reference_instances of the shape."""
    instances, triggers = instances
    units, forced = _cell_units(size, arity, idempotent, commutative)
    cells = [None] * size**arity
    for c, v in forced.items():
        cells[c] = v

    def consistent(c):
        for ii in triggers[c]:
            iL, bL, sL, iR, bR, sR = instances[ii]
            v = cells[iL]
            if v is None:
                continue
            vL = cells[bL + v * sL]
            if vL is None:
                continue
            v = cells[iR]
            if v is None:
                continue
            vR = cells[bR + v * sR]
            if vR is not None and vL != vR:
                return False
        return True

    def beaten():
        for perm, sources in relabelings:
            for j, mine in enumerate(cells):
                theirs = cells[sources[j]]
                if mine is None or theirs is None or perm[theirs] > mine:
                    break
                if perm[theirs] < mine:
                    return True
        return False

    perms = list(itertools.permutations(range(size)))[1:] if canonical else []
    relabelings = [(perm, _relabeling_sources(size, arity, perm)) for perm in perms]

    def rec(u):
        if u == len(units):
            yield NaryTable(arity, size, tuple(cells))
            return
        for v in range(size):
            for c in units[u]:
                cells[c] = v
            if all(consistent(c) for c in units[u]) and not beaten():
                yield from rec(u + 1)
        for c in units[u]:
            cells[c] = None

    if all(consistent(c) for c in forced):
        yield from rec(0)


def automorphisms(table):
    """The relabelings of table that give it back, by brute force."""
    m, n = table.size, table.arity
    count = 0
    for perm in itertools.permutations(range(m)):
        count += all(
            perm[table.apply(*tup)] == table.apply(*(perm[a] for a in tup))
            for tup in itertools.product(range(m), repeat=n)
        )
    return count


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
        # the budget decides exactly as the built units would, in both modes
        shapes = ((1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2))
        for (m, n), mode in itertools.product(shapes, ("exhaustive", "random")):
            for idempotent, commutative in itertools.product((False, True), repeat=2):
                units, _forced = _cell_units(m, n, idempotent, commutative)
                spec = GenSpec(
                    m, n, mode=mode, count=3, idempotent=idempotent, commutative=commutative
                )
                stream = enumerate_tables(spec)
                if len(units) > MAX_FREE_CELLS:
                    with pytest.raises(BudgetExceeded, match=f"^{len(units)} free cells"):
                        next(stream)
                elif mode == "random":
                    tables = list(stream)
                    exhaustive = dataclasses.replace(spec, mode="exhaustive")
                    listed = {t.entries for t in enumerate_tables(exhaustive)}
                    assert len(tables) == 3
                    for t in tables:
                        assert is_associative(t) and spec.passes_filters(t)
                        assert t.entries in listed
                else:
                    next(stream, None)
        # m**n cells would take minutes to build
        for spec in (GenSpec(10, 10), GenSpec(12, 6, commutative=True)):
            started = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                next(enumerate_tables(spec))
            assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "mode, power", [("exhaustive", "3^1000000"), ("random", "3^1000000")]
    )
    def test_huge_arity_is_refused_without_the_power(self, mode, power):
        # the message names the power it refuses, the cells of one table
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

    def test_huge_commutative_unit_count_is_refused_without_the_count(self):
        # comb(19999, 10000) has over 6,000 digits, too many to format
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded) as refused:
            next(enumerate_tables(GenSpec(10**4, 10**4, commutative=True)))
        assert time.perf_counter() - started < 1.0
        message = str(refused.value)
        assert message == "comb(19999, 10000) free cells exceed the cap of 16"

    @pytest.mark.parametrize(
        "arity, message",
        [
            (15, "2^29 tuples per associativity check exceed the cap of 4194304"),
            (12, "2^23 tuples per associativity check exceed the cap of 4194304"),
        ],
    )
    def test_associativity_instances_are_counted_before_they_are_built(self, arity, message):
        # commutative size 2 has arity + 1 free cells, within MAX_FREE_CELLS
        # up to arity 15, but (n - 1) * 2^(2n - 1) instances
        def refuse():
            with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
                next(enumerate_tables(GenSpec(2, arity, commutative=True)))

        started = time.perf_counter()
        refuse()
        assert time.perf_counter() - started < 1.0
        tracemalloc.start()
        try:
            refuse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_commutative_size2_arity8(self):
        # 7 * 2^15 associativity instances over 9 free cell orbits
        tables = list(enumerate_tables(GenSpec(2, 8, commutative=True)))
        assert len(tables) == 6
        assert all(is_associative(t) and is_commutative(t) for t in tables)

    def test_commutative_size2_arity9(self):
        # 8 * 2^17 instances, but few distinct equations over 10 free cells;
        # the labeled tables are the m!/|Aut(T)| relabelings of each class T
        spec = GenSpec(2, 9, commutative=True)
        stream = list(enumerate_tables(spec))
        classes = list(enumerate_tables(dataclasses.replace(spec, dedup=True)))
        assert (len(stream), len(classes)) == (6, 4)
        assert all(is_associative(t) and is_commutative(t) for t in stream)
        assert list(_dedup_canonical(stream)) == classes
        assert sum(math.factorial(2) // automorphisms(t) for t in classes) == 6


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
        spec = GenSpec(3, 3, mode="random", count=10, seed=1, idempotent=True, commutative=True)
        a = [t.entries for t in enumerate_tables(spec)]
        b = [t.entries for t in enumerate_tables(spec)]
        assert a == b
        assert len(a) == 10

    def test_members_of_exhaustive_list(self):
        exhaustive = {t.entries for t in ASSOC_BINARY2}
        sample = list(enumerate_tables(GenSpec(2, 2, mode="random", count=5, seed=7)))
        assert len(sample) == 5
        assert all(t.entries in exhaustive for t in sample)

    def test_genspec_random_needs_positive_count(self):
        for count in (0, -1):
            with pytest.raises(ValueError):
                GenSpec(2, 2, mode="random", count=count)

    def test_count_zero_is_empty(self):
        assert list(_backtrack_tables(2, 2, False, False, rng=random.Random(3), count=0)) == []

    def test_every_descent_ends_in_a_table(self):
        # every descent ends in a table, even where associative tables are
        # rare among all commutative ones
        spec = GenSpec(5, 2, mode="random", count=50, commutative=True)
        tables = list(enumerate_tables(spec))
        assert len(tables) == 50
        assert all(is_associative(t) and is_commutative(t) for t in tables)

    def test_budget_counts_tuples_before_building_units(self):
        # 7-ary tables of size 7 have 7**7 free cells
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="^823543 free cells"):
            next(enumerate_tables(GenSpec(7, 7, mode="random", count=1)))
        assert time.perf_counter() - started < 1.0

    def test_filters_hold_on_keepers(self):
        spec = GenSpec(3, 3, mode="random", count=10, seed=5, idempotent=True, commutative=True)
        for t in enumerate_tables(spec):
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


class TestPropagation:
    """The search fills forced cells by propagation and branches on the
    rest; it must yield the reference stream, table for table."""

    SHAPES = [(m, 2) for m in range(1, 6)] + [(2, 3), (2, 4)]
    COMMUTATIVE_SHAPES = [(3, 3), (2, 8)]

    @staticmethod
    def specs():
        """Every shape and filter combination above, with and without dedup,
        that the budget admits."""
        flags = list(itertools.product((False, True), repeat=3))
        for (m, n), (idempotent, commutative, dedup) in itertools.product(
            TestPropagation.SHAPES + TestPropagation.COMMUTATIVE_SHAPES, flags
        ):
            if commutative or (m, n) in TestPropagation.SHAPES:
                yield GenSpec(m, n, idempotent=idempotent, commutative=commutative, dedup=dedup)

    def test_equals_reference_stream(self):
        refused = []
        for (m, n), specs in itertools.groupby(self.specs(), lambda s: (s.size, s.arity)):
            instances = reference_instances(m, n)  # once per shape
            for spec in specs:
                try:
                    stream = list(enumerate_tables(spec))
                except BudgetExceeded:
                    refused.append((m, n, spec.idempotent, spec.commutative))
                    continue
                flags = (spec.idempotent, spec.commutative, spec.dedup)
                assert stream == list(reference_tables(m, n, *flags, instances)), spec
        # only the unfiltered and the idempotent binary size 5, with and without dedup
        assert sorted(refused) == [(5, 2, False, False)] * 2 + [(5, 2, True, False)] * 2

    @pytest.mark.parametrize(
        "size, arity, idempotent, classes, labeled",
        [
            (5, 2, False, 1_915, None),  # OEIS A027851
            (3, 3, False, 29, 123),
            (4, 3, True, 84, 1_044),
            (4, 3, False, 380, 7_036),
        ],
    )
    def test_counts_past_the_cap(self, monkeypatch, size, arity, idempotent, classes, labeled):
        # the canonical classes, and the labeled tables they account for by
        # orbit-stabilizer: m!/|Aut(T)| relabelings of each class T
        monkeypatch.setattr(absorb.generate, "MAX_FREE_CELLS", size**arity)
        spec = GenSpec(size, arity, idempotent=idempotent, dedup=True)
        canonical = list(enumerate_tables(spec))
        assert len(canonical) == classes
        assert all(canonical_form(t) == t for t in canonical)
        if labeled is None:
            return
        stream = list(enumerate_tables(dataclasses.replace(spec, dedup=False)))
        assert len(stream) == labeled
        assert all(is_associative(t) for t in stream)
        assert list(_dedup_canonical(stream)) == canonical
        orbits = sum(math.factorial(size) // automorphisms(t) for t in canonical)
        assert orbits == labeled


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
