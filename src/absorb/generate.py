"""Corpus generators: exhaustive backtracking over associative tables,
power-derived families, seeded random sampling, and canonical forms.

Exhaustive mode yields tables in ascending lexicographic order of their
entries.  With dedup it prunes, during the search, every table that is not
its own canonical form; by that order, these are exactly the tables that
deduplicating the full stream would keep, in the same order.  Power and
random streams are deduplicated by canonical bytes; a deduplicated power
stream derives from the canonical binary tables only, as the first binary
table whose power lands in a class is its own canonical form.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (  # canonical_form is looked up here by bench/run.py:install
    BUILD_MAX_VALUES,
    CANONICAL_PERM_MAX_SIZE,
    NaryTable,
    _canonical_bytes,
    _power,
    _relabeling_sources,
    _require_within,
    canonical_form,
    derive_power_algebra,
    is_associative,
    is_commutative,
    is_idempotent,
)
from .errors import AttemptCapExhausted

# Backtracking budget: number of free cells (or cell orbits, once filters
# pin some of them) that the search may branch on.  16 admits all binary
# tables up to size 4 and ternary tables of size 2; unfiltered ternary
# size 3 (27 cells) stays out of budget.
MAX_FREE_CELLS = 16

# Seeded sampling uses random.Random: the Mersenne Twister, stable for a
# given 64-bit seed.  Recorded in corpus metadata for reproducibility.
GENERATOR_NAME = "mt19937"

MODES = ("exhaustive", "power", "random")

# Sampling budget: (2n-1)-tuples that all draws of one stream may read
# together; one draw's associativity check builds a list of m**(2n-1)
# values per bracketing, within core.BUILD_MAX_VALUES.  So 7-ary tables of
# size 7 (7**13 tuples) are refused, while 4-ary tables of size 4 read
# 4**7 = 16,384 tuples per draw and stop after 4,096 draws.
MAX_SAMPLE_TUPLES = 1 << 26


@dataclass(frozen=True)
class GenSpec:
    """What to generate: size, arity, mode, filters, dedup flag.

    Modes: "exhaustive" (backtracking over all associative tables),
    "power" (n-fold products of all binary associative tables of the same
    size), "random" (seeded rejection sampling; needs count).
    """

    size: int
    arity: int
    mode: str = "exhaustive"
    count: int = 0
    seed: int = 0
    idempotent: bool = False
    commutative: bool = False
    dedup: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("size", "arity", "count", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is rejected too
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.size < 1 or self.arity < 2:
            raise ValueError("size must be >= 1 and arity >= 2")
        if self.mode == "power" and self.arity < 3:
            raise ValueError("power mode derives arity >= 3 from binary tables")
        if self.mode == "random" and self.count <= 0:
            raise ValueError(f"random mode needs count >= 1, got {self.count}")

    def passes_filters(self, table: NaryTable) -> bool:
        if self.idempotent and not is_idempotent(table):
            return False
        if self.commutative and not is_commutative(table):
            return False
        return True


def _cell_units(
    size: int, arity: int, idempotent: bool, commutative: bool
) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """Free fill units and forced cells under the structural filters.

    Commutativity merges cells whose argument tuples are permutations of one
    another into a single unit; idempotence pins every diagonal cell.  Units
    are ordered by their first (row-major) cell.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, tup in enumerate(itertools.product(range(size), repeat=arity)):
        key = tuple(sorted(tup)) if commutative else tup
        groups.setdefault(key, []).append(i)
    units: list[tuple[int, ...]] = []
    forced: dict[int, int] = {}
    for key, cells in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if idempotent and len(set(key)) == 1:
            for c in cells:
                forced[c] = key[0]
        else:
            units.append(tuple(cells))
    return units, forced


def _assoc_instances(size: int, arity: int):
    """Associativity equations in incremental-check form.

    Each instance is (innerL, baseL, strideL, innerR, baseR, strideR): the
    two sides of one adjacent-bracketing equation, where the outer cell is
    base + inner_value * stride.  Also returns a map cell -> instance ids
    that may read that cell, so a fresh assignment triggers exactly the
    equations it can complete.
    """
    m, n = size, arity
    pw = [m ** (n - 1 - j) for j in range(n)]
    instances: list[tuple[int, int, int, int, int, int]] = []
    triggers: list[set[int]] = [set() for _ in range(m**n)]

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
            iL = inner_cell(tup, p)
            bL = outer_base(tup, p)
            sL = pw[p]
            iR = inner_cell(tup, p + 1)
            bR = outer_base(tup, p + 1)
            sR = pw[p + 1]
            ii = len(instances)
            instances.append((iL, bL, sL, iR, bR, sR))
            triggers[iL].add(ii)
            triggers[iR].add(ii)
            for v in range(m):
                triggers[bL + v * sL].add(ii)
                triggers[bR + v * sR].add(ii)

    return instances, [sorted(t) for t in triggers]


def _backtrack_tables(
    size: int, arity: int, idempotent: bool, commutative: bool, canonical: bool = False
) -> Iterator[NaryTable]:
    """All associative tables compatible with the filters, exactly once, in
    ascending lexicographic order of their entries; with canonical, only
    those equal to their canonical_form, in the same order.

    Cells are filled in row-major order (grouped into orbit units when the
    commutative filter is on) and a partial table is pruned as soon as any
    fully-determined associativity instance fails.  The order is ascending
    because units are ordered by their first cell: two tables first differ
    at the first cell of the first unit where they differ.

    The order is what makes the canonical search equal to deduplicating the
    full stream: both filters are invariant under relabeling, so the first
    table of each isomorphism class in the stream is its least relabeling,
    which is the one canonical table of the class.  The search keeps the
    relabelings that may still beat the partial table, each with the first
    position where it is not yet known to tie, and prunes as soon as one of
    them beats it on an assigned prefix (Distler's lex-leader symmetry
    breaking).
    """
    # The unit count of _cell_units, before it builds one cell per n-tuple:
    # commutativity leaves one unit per multiset, idempotence pins m of them.
    cell_count = _power(size, arity, BUILD_MAX_VALUES)
    free = math.comb(size + arity - 1, arity) if commutative else cell_count
    if idempotent and type(free) is int:
        free -= size
    _require_within(free, "free cells", MAX_FREE_CELLS)
    if canonical:
        _require_within(size, "elements in a canonical form", CANONICAL_PERM_MAX_SIZE)
    units, forced = _cell_units(size, arity, idempotent, commutative)
    instances, triggers = _assoc_instances(size, arity)
    cells: list[int | None] = [None] * (size**arity)
    for c, v in forced.items():
        cells[c] = v

    def cell_consistent(c: int) -> bool:
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
            if vR is None:
                continue
            if vL != vR:
                return False
        return True

    if not all(cell_consistent(c) for c in forced):
        return

    top = len(cells)
    Live = list[tuple[tuple[int, ...], list[int], int]]
    live: Live = []
    if canonical:
        perms = itertools.islice(itertools.permutations(range(size)), 1, None)
        live = [(perm, _relabeling_sources(size, arity, perm), 0) for perm in perms]

    def unbeaten(live: Live) -> Live | None:
        """The relabelings that may still beat the partial table, or None
        when one already does.  Position j of a relabeling holds
        perm[cells[sources[j]]]; ties before its start position hold for the
        whole subtree, and a relabeling that ties a complete table is an
        automorphism and drops out."""
        kept = []
        for perm, sources, start in live:
            for j in range(start, top):
                mine, theirs = cells[j], cells[sources[j]]
                if mine is None or theirs is None:
                    kept.append((perm, sources, j))
                    break
                if perm[theirs] != mine:
                    if perm[theirs] < mine:
                        return None
                    break
        return kept

    def rec(u: int, live: Live) -> Iterator[NaryTable]:
        if u == len(units):
            yield NaryTable(arity, size, tuple(cells))
            return
        unit = units[u]
        for v in range(size):
            for c in unit:
                cells[c] = v
            if all(cell_consistent(c) for c in unit):
                survivors = unbeaten(live) if live else live
                if survivors is not None:
                    yield from rec(u + 1, survivors)
        for c in unit:
            cells[c] = None

    yield from rec(0, live)


def random_filtered(
    size: int,
    arity: int,
    count: int,
    seed: int,
    idempotent: bool = False,
    commutative: bool = False,
) -> Iterator[NaryTable]:
    """Seeded stream of associative tables satisfying the filters.

    Draws uniformly over the structural-filter subspace (diagonal pinned by
    idempotent, one value per argument-permutation orbit for commutative)
    and keeps a draw iff the table is associative.  Ends after `count`
    keepers, or earlier with an AttemptCapExhausted warning when the next
    draw would take the tuples read past MAX_SAMPLE_TUPLES.
    """
    tuples = _power(size, 2 * arity - 1, BUILD_MAX_VALUES)
    _require_within(tuples, "tuples per associativity check", BUILD_MAX_VALUES)
    units, forced = _cell_units(size, arity, idempotent, commutative)
    rng = random.Random(seed)
    template: list[int] = [0] * (size**arity)
    for c, v in forced.items():
        template[c] = v
    kept = 0
    draws = 0
    while kept < count:
        if (draws + 1) * tuples > MAX_SAMPLE_TUPLES:
            warnings.warn(
                AttemptCapExhausted(
                    f"sampling budget of {MAX_SAMPLE_TUPLES} tuples exhausted after "
                    f"{draws} draws and {kept} of {count} tables"
                )
            )
            return
        draws += 1
        cells = list(template)
        for unit in units:
            v = rng.randrange(size)
            for c in unit:
                cells[c] = v
        table = NaryTable(arity, size, tuple(cells))
        if is_associative(table):
            kept += 1
            yield table


def enumerate_tables(spec: GenSpec) -> Iterator[NaryTable]:
    """Stream of associative tables matching the spec, deterministic order."""
    if spec.mode == "exhaustive":
        return _backtrack_tables(
            spec.size, spec.arity, spec.idempotent, spec.commutative, canonical=spec.dedup
        )
    if spec.mode == "power":
        stream = (
            derive_power_algebra(binary, spec.arity)
            for binary in _backtrack_tables(spec.size, 2, False, False, canonical=spec.dedup)
        )
        stream = (t for t in stream if spec.passes_filters(t))
    else:
        stream = random_filtered(
            spec.size,
            spec.arity,
            spec.count,
            spec.seed,
            idempotent=spec.idempotent,
            commutative=spec.commutative,
        )
    if spec.dedup:
        stream = _dedup_canonical(stream)
    return stream


def _dedup_canonical(stream: Iterable[NaryTable]) -> Iterator[NaryTable]:
    seen: set[bytes] = set()
    for table in stream:
        key = _canonical_bytes(table)
        if key not in seen:
            seen.add(key)
            yield table

