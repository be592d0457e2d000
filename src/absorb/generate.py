"""Corpus generators: exhaustive backtracking over associative tables,
power-derived families, seeded random sampling, and canonical forms.

Exhaustive mode yields tables in ascending lexicographic order of their
entries.  It branches on the free cells in order and propagates each value
through the associativity equations: an equation whose inner values are
known forces its unknown outer cell, or fails the branch, and every value
assigned or forced goes on a trail that backtracking pops.  With dedup it
prunes, during the search, every table that is not its own canonical
form; by that order, these are exactly the tables that deduplicating the
full stream would keep, in the same order.  Power and
random streams are deduplicated by canonical bytes; a deduplicated power
stream derives from the canonical binary tables only, as the first binary
table whose power lands in a class is its own canonical form.
"""

from __future__ import annotations

import itertools
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

# One associativity equation of the exhaustive search: (inner cell, outer
# row, inner cell, outer row), the sides f(.., inner value, ..) of two
# adjacent bracketings; see _assoc_equations.
Equation = tuple[int, tuple[int, ...], int, tuple[int, ...]]

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


def _assoc_equations(size: int, arity: int, rep: list[int]) -> list[list[Equation]]:
    """The associativity equations over the fill units, listed under each
    of their inner cells.

    The equations of one (2n-1)-tuple equate the brackets at adjacent
    windows p and p + 1: f(.., f(window p), ..) = f(.., f(window p+1), ..);
    for n = 2, f(x, c) = f(a, y) with x = f(a, b) and y = f(b, c).  Each side
    is its inner cell and its row of outer cells: inner value v reads the
    outer cell row[v].  Every cell is named by rep, the first cell of its
    unit, so equations that coincide on units are kept once, and one whose
    sides coincide is dropped.  The sides come from each tuple's index by
    arithmetic, and each distinct one is built once.
    """
    m, n = size, arity
    cells = m**n
    low = [m ** (n - 1 - p) for p in range(n)]  # the weight of window p's last digit
    high = [w * cells for w in low]  # the weight of the digit before window p
    rows: dict[tuple[int, ...], int] = {}  # interned rows of outer cells
    row_of: list[dict[int, int]] = [{} for _ in range(n)]  # window p: base -> row id
    for p in range(n):
        for base in range(cells):
            if base // low[p] % m == 0:  # the outer cell of value 0
                row = tuple(rep[base + v * low[p]] for v in range(m))
                row_of[p][base] = rows.setdefault(row, len(rows))
    width = len(rows)

    def sides(p: int) -> list[int]:
        """Side p of every tuple, as rep(inner cell) * width + row id."""
        lo, hi, lift, ids = low[p], high[p], m ** (n - p), row_of[p]
        return [
            rep[t // lo % cells] * width + ids[t // hi * lift + t % lo]
            for t in range(m ** (2 * n - 1))
        ]

    keys: set[tuple[int, int]] = set()
    right = sides(0)
    for p in range(n - 1):
        left, right = right, sides(p + 1)
        keys.update((a, b) if a < b else (b, a) for a, b in zip(left, right) if a != b)
    row_list = list(rows)
    watch: list[list[Equation]] = [[] for _ in range(cells)]
    for a, b in sorted(keys):
        eq = (a // width, row_list[a % width], b // width, row_list[b % width])
        for c in {eq[0], eq[2]}:
            watch[c].append(eq)
    return watch


def _multisets(size: int, arity: int, cap: int) -> int | str:
    """comb(size + arity - 1, arity), the arity-element multisets over size
    elements, when it is at most cap, else its text.  It is the last of the
    products comb(arity + i, i), i < size, which grow with i, so it stops at
    the first past cap and never builds a huge count."""
    count = 1
    for i in range(1, size):
        count = count * (arity + i) // i
        if count > cap:
            return f"comb({size + arity - 1}, {arity})"
    return count


def _backtrack_tables(
    size: int, arity: int, idempotent: bool, commutative: bool, canonical: bool = False
) -> Iterator[NaryTable]:
    """All associative tables compatible with the filters, exactly once, in
    ascending lexicographic order of their entries; with canonical, only
    those equal to their canonical_form, in the same order.

    The search branches on the units in order, each value from 0 up, and
    propagates every assignment (after Distler's semigroup enumeration):
    - An assigned unit goes on a trail, which is also the propagation
      queue.  Every cell is named by its unit's first cell.
    - An equation is read when one of its two inner cells leaves the queue.
      Once both inner values are known, it equates two outer cells.  If one
      is known, the other is forced to its value and joins the trail; if
      both are known and differ, the branch fails.  If neither is known,
      the two are linked, and a link forces or fails in the same way when
      one of its ends leaves the queue.
    - Backtracking pops the trail and the links back to where the branch
      began.  A unit that propagation has filled is passed over without
      branching.
    Each equation is checked once its cells are known, and a forced value
    is the only one that any completion can hold, so propagation keeps
    every associative table and the stream is the one a check-only search
    gives.  The order is ascending because units are ordered by their first
    cell: two tables first differ at the first cell of the first unit where
    they differ.

    The order is what makes the canonical search equal to deduplicating the
    full stream: both filters are invariant under relabeling, so the first
    table of each isomorphism class in the stream is its least relabeling,
    which is the one canonical table of the class.  The search keeps the
    relabelings that may still beat the partial table, each with the first
    position where it is not yet known to tie, and prunes as soon as one of
    them beats it on an assigned prefix (Distler's lex-leader symmetry
    breaking).  Its positions are the first cells of the units: a
    relabeled commutative table is commutative, so the other cells of a
    unit tie where its first cell ties.
    """
    # The unit count of _cell_units, before it builds one cell per n-tuple:
    # commutativity leaves one unit per multiset, idempotence pins m of them.
    cap = BUILD_MAX_VALUES
    free = _multisets(size, arity, cap) if commutative else _power(size, arity, cap)
    if idempotent and type(free) is int:
        free -= size
    _require_within(free, "free cells", MAX_FREE_CELLS)
    if canonical:
        _require_within(size, "elements in a canonical form", CANONICAL_PERM_MAX_SIZE)
    # _assoc_equations holds two sides lists of m**(2n - 1) values, one per
    # tuple; the tuple count bounds m**n too.  The equations it keeps are
    # pairs of distinct sides, each a unit and a row of units, so they stay
    # few while MAX_FREE_CELLS bounds the units.
    tuples = _power(size, 2 * arity - 1, cap)
    _require_within(tuples, "tuples per associativity check", cap)
    units, forced = _cell_units(size, arity, idempotent, commutative)
    top = size**arity
    rep = list(range(top))
    for unit in units:
        for c in unit:
            rep[c] = unit[0]
    watch = _assoc_equations(size, arity, rep)
    firsts = [unit[0] for unit in units]
    vals: list[int | None] = [None] * top  # by the first cell of each unit
    trail: list[int] = []
    links: list[list[int]] = [[] for _ in range(top)]  # cells each cell must equal
    linked: list[int] = []  # the ends of each link, in the order they were made

    def propagate(head: int) -> bool:
        """Propagate the trail from head on; False on a conflict."""
        while head < len(trail):
            c = trail[head]
            for inner_l, row_l, inner_r, row_r in watch[c]:
                a = vals[inner_l]
                if a is None:
                    continue
                b = vals[inner_r]
                if b is None:
                    continue
                out_l, out_r = row_l[a], row_r[b]
                x, y = vals[out_l], vals[out_r]
                if x is None:
                    if y is not None:
                        vals[out_l] = y
                        trail.append(out_l)
                    elif out_l != out_r:
                        links[out_l].append(out_r)
                        links[out_r].append(out_l)
                        linked.extend((out_l, out_r))
                elif y is None:
                    vals[out_r] = x
                    trail.append(out_r)
                elif x != y:
                    return False
            x = vals[c]
            for d in links[c]:
                y = vals[d]
                if y is None:
                    vals[d] = x
                    trail.append(d)
                elif y != x:
                    return False
            head += 1
        return True

    def undo(mark: int, link_mark: int) -> None:
        while len(trail) > mark:
            vals[trail.pop()] = None
        while len(linked) > link_mark:
            links[linked.pop()].pop()

    Live = list[tuple[tuple[int, ...], list[tuple[int, int]], int]]
    live: Live = []
    if canonical:
        positions = sorted(set(rep))
        for perm in itertools.islice(itertools.permutations(range(size)), 1, None):
            sources = _relabeling_sources(size, arity, perm)
            live.append((perm, [(j, rep[sources[j]]) for j in positions], 0))

    def unbeaten(live: Live) -> Live | None:
        """The relabelings that may still beat the partial table, or None
        when one already does.  Position j of a relabeling holds
        perm[vals[rep[sources[j]]]]; ties before its start position hold for
        the whole subtree, and a relabeling that ties a complete table is an
        automorphism and drops out."""
        kept = []
        for perm, pairs, start in live:
            for k in range(start, len(pairs)):
                j, source = pairs[k]
                mine, theirs = vals[j], vals[source]
                if mine is None or theirs is None:
                    kept.append((perm, pairs, k))
                    break
                if perm[theirs] != mine:
                    if perm[theirs] < mine:
                        return None
                    break
        return kept

    def rec(u: int, live: Live) -> Iterator[NaryTable]:
        while u < len(firsts) and vals[firsts[u]] is not None:
            u += 1
        if u == len(firsts):
            yield NaryTable(arity, size, tuple([vals[r] for r in rep]))
            return
        c = firsts[u]
        mark, link_mark = len(trail), len(linked)
        for v in range(size):
            vals[c] = v
            trail.append(c)
            if propagate(mark):
                survivors = unbeaten(live) if live else live
                if survivors is not None:
                    yield from rec(u + 1, survivors)
            undo(mark, link_mark)

    for c, v in forced.items():
        vals[c] = v
        trail.append(c)
    if propagate(0):
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

