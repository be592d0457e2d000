"""Finite n-ary operation tables and the machinery around them.

Tables are flat, row-major lookup arrays over the carrier {0..size-1}; words
are sequences of variable indices; powers and exponents follow the valid
lengths 1 mod (arity - 1).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceeded, LengthNotEvaluable, NotAssociative

# Exhaustive subuniverse scans iterate 2^m - 1 subsets; cap the carrier size.
SUBSET_SCAN_MAX_SIZE = 16

# Element-relabeling search bound for canonical forms (m! permutations); it
# also keeps every element below 256, so canonical_form works on bytes.
CANONICAL_PERM_MAX_SIZE = 6

# Shapes whose m! relabelings span at most this many entries keep their
# relabeling maps for the life of the process (about 11 MB at most per
# shape); larger shapes, such as 5-ary tables of size 6, rebuild them on
# each call.
CANONICAL_CACHE_MAX_ENTRIES = 1 << 18

# Subset plans are the flat indices a check on one subset gathers from the
# entries; they depend only on (size, arity, subset).  Shapes of at most
# PLAN_CACHE_MAX_ENTRIES entries keep them, each kind in an LRU cache of
# PLAN_CACHE_SLOTS plans (every nonempty subset of a size-8 carrier); the
# oracle's step table must hold at most that many offsets too.  Every index
# is then below 256, one of the interpreter's shared small ints, so a slot
# holds at most about 7 kB and the four plan caches at most about 5 MB, well
# below a 16 MB bound (a test measures the largest plan of each kind).
# Larger shapes build their index lists on each call.
PLAN_CACHE_MAX_ENTRIES = 1 << 8
PLAN_CACHE_SLOTS = 1 << 8

_VAR_NAMES = "xyzuvw"


@dataclass(frozen=True)
class NaryTable:
    """An n-ary operation on {0..size-1} stored as a flat row-major table.

    The flat index of (a_1, ..., a_n) is sum(a_i * size**(n-1-i)): the first
    argument is the most significant digit.  This layout is a bit-exact
    contract shared with the on-disk algebra format.
    """

    arity: int
    size: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.arity) is not int or self.arity < 2:  # bool is rejected too
            raise ValueError(f"arity must be an int >= 2, got {self.arity!r}")
        if type(self.size) is not int or self.size < 1:
            raise ValueError(f"size must be an int >= 1, got {self.size!r}")
        object.__setattr__(self, "entries", tuple(self.entries))
        count = len(self.entries)
        if self.size > 1 and self.arity > count.bit_length():
            # size**arity >= 2**arity > count: reject before building a power
            # that can have millions of digits.
            expected: int | str = f"{self.size}**{self.arity}"
        else:
            expected = self.size**self.arity
        if count != expected:
            raise ValueError(
                f"size {self.size} arity {self.arity} needs {expected} entries, got {count}"
            )
        for e in self.entries:
            if type(e) is not int or not 0 <= e < self.size:  # bool is rejected too
                raise ValueError(f"entry {e!r} is not an element index below {self.size}")

    @classmethod
    def from_function(cls, arity: int, size: int, fn: Callable[..., int]) -> "NaryTable":
        entries = tuple(fn(*args) for args in itertools.product(range(size), repeat=arity))
        return cls(arity, size, entries)

    def apply(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.entries[idx]


@dataclass(frozen=True)
class Subuniverse:
    """A nonempty subset of the carrier, the candidate absorbing subalgebra.

    Closedness under a table is not an invariant here; establish it with
    is_closed where an operation requires it.
    """

    carrier_size: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise ValueError("subuniverse must be nonempty")
        if any(type(a) is not int or not 0 <= a < self.carrier_size for a in self.members):
            raise ValueError("subuniverse members must be element indices below carrier_size")

    @classmethod
    def from_mask(cls, carrier_size: int, mask: int) -> "Subuniverse":
        return cls(carrier_size, frozenset(i for i in range(carrier_size) if mask >> i & 1))

    @functools.cached_property
    def mask(self) -> int:
        return sum(1 << a for a in self.members)

    @functools.cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def is_proper(self) -> bool:
        return len(self.members) < self.carrier_size

    def __contains__(self, element: int) -> bool:
        return element in self.members


@dataclass(frozen=True)
class Word:
    """A term of the one-operation signature: a sequence of variable indices.

    Evaluability against an arity-n table requires length 1 mod (n - 1);
    that is checked per operation, not stored.
    """

    num_vars: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.num_vars) is not int or self.num_vars < 1:  # bool is rejected too
            raise ValueError("num_vars must be an int >= 1")
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("word must be nonempty")
        if any(type(l) is not int or not 0 <= l < self.num_vars for l in self.letters):
            raise ValueError("letters must be variable indices below num_vars")

    @property
    def length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if self.num_vars <= len(_VAR_NAMES):
            return "".join(_VAR_NAMES[l] for l in self.letters)
        return " ".join(f"x{l}" for l in self.letters)


@dataclass(frozen=True)
class PowerProfile:
    """Tail and cycle length of one element's power walk, in steps of (n-1)."""

    element: int
    tail: int
    period: int


def length_evaluable(length: int, arity: int) -> bool:
    return length >= 1 and (length - 1) % (arity - 1) == 0


def _reduce_left(table: NaryTable, values: Sequence[int]) -> int:
    """Left-greedy product of an evaluable sequence of elements."""
    m = table.size
    n = table.arity
    entries = table.entries
    if len(values) == 1:
        return values[0]
    idx = 0
    for a in values[:n]:
        idx = idx * m + a
    acc = entries[idx]
    pos = n
    total = len(values)
    while pos < total:
        idx = acc
        for a in values[pos : pos + n - 1]:
            idx = idx * m + a
        acc = entries[idx]
        pos += n - 1
    return acc


def eval_word(table: NaryTable, word: Word, assignment: Sequence[int]) -> int:
    """Value of the word under the assignment, by left-greedy reduction.

    Associativity makes every reduction order agree; left-greedy is the
    normative one.
    """
    if not length_evaluable(word.length, table.arity):
        raise LengthNotEvaluable(
            f"length {word.length} is not 1 mod {table.arity - 1}"
        )
    if len(assignment) != word.num_vars:
        raise ValueError(f"assignment must cover {word.num_vars} variables")
    if any(not 0 <= a < table.size for a in assignment):
        raise ValueError("assignment values must be element indices below size")
    return _reduce_left(table, [assignment[l] for l in word.letters])


def element_power(table: NaryTable, a: int, e: int) -> int:
    """a^e for a valid exponent e (e >= 1 and e = 1 mod (n-1))."""
    if not 0 <= a < table.size:
        raise ValueError(f"element {a} out of range")
    if e < 1 or not length_evaluable(e, table.arity):
        raise LengthNotEvaluable(f"exponent {e} is not 1 mod {table.arity - 1}")
    x = a
    for _ in range((e - 1) // (table.arity - 1)):
        x = _step_power(table, x, a)
    return x


def power_profile(table: NaryTable, a: int) -> PowerProfile:
    """Walk a, a^(1+(n-1)), a^(1+2(n-1)), ... until the first repeat."""
    seen: dict[int, int] = {}
    x = a
    j = 0
    while x not in seen:
        seen[x] = j
        x = _step_power(table, x, a)
        j += 1
    tail = seen[x]
    return PowerProfile(element=a, tail=tail, period=j - tail)


def _step_power(table: NaryTable, x: int, a: int) -> int:
    """f(x, a, ..., a): one (n-1)-step along a's power sequence."""
    idx = x
    for _ in range(table.arity - 1):
        idx = idx * table.size + a
    return table.entries[idx]


def compute_exponent(table: NaryTable) -> int | None:
    """Minimal k > 1 with k = 1 mod (n-1) and a^k = a for every element.

    Exists iff every element's power walk is purely periodic (tail 0); then
    k = 1 + lcm(periods) * (n-1), minimal because any valid k' = 1 + j(n-1)
    fixes every element iff every period divides j.
    """
    periods = []
    for a in range(table.size):
        profile = power_profile(table, a)
        if profile.tail != 0:
            return None
        periods.append(profile.period)
    return 1 + math.lcm(*periods) * (table.arity - 1)


def is_associative(table: NaryTable) -> bool:
    """All n bracketings of every (2n-1)-tuple agree.

    Bracketing p multiplies letters p..p+n-1 first.  Its values over all
    tuples in lexicographic order are built by index arithmetic on the
    entries: for each prefix of p letters and each inner n-tuple, the inner
    value selects a contiguous row of the outer product.  Adjacent bracket
    positions suffice: equality of neighbouring value vectors chains across
    all positions.
    """
    n, m, entries = table.arity, table.size, table.entries
    previous = None
    for p in range(n):
        width = m ** (n - 1 - p)  # outer products sharing their first p+1 arguments
        rows = [entries[r * width : (r + 1) * width] for r in range(m ** (p + 1))]
        values = list(
            itertools.chain.from_iterable(
                rows[prefix + inner] for prefix in range(0, len(rows), m) for inner in entries
            )
        )
        if previous is not None and values != previous:
            return False
        previous = values
    return True


def is_commutative(table: NaryTable) -> bool:
    """Invariant under all argument permutations; adjacent swaps suffice.

    Swapping arguments i and i+1 moves flat index j by
    (a_(i+1) - a_i) * (m**(n-1-i) - m**(n-2-i)), so each swap is one gather.
    """
    n, m, entries = table.arity, table.size, table.entries
    for i in range(n - 1):
        low = m ** (n - 2 - i)  # weight of argument i+1; argument i weighs m * low
        swapped = (j + (j // low % m - j // (m * low) % m) * (m - 1) * low for j in range(len(entries)))
        if tuple(map(entries.__getitem__, swapped)) != entries:
            return False
    return True


def _diagonal(size: int, arity: int) -> int:
    """Flat index of (1, ..., 1); (a, ..., a) sits at a times it.  Needs size >= 2."""
    return (size**arity - 1) // (size - 1)


def is_idempotent(table: NaryTable) -> bool:
    """f(a, ..., a) = a for every a: the diagonal entries read 0, ..., m-1."""
    m = table.size
    if m == 1:
        return True  # the only entry is 0
    return table.entries[:: _diagonal(m, table.arity)] == tuple(range(m))


def _relabeling_sources(size: int, arity: int, perm: Sequence[int]) -> list[int]:
    """The source index list of relabeling perm of a (size, arity) table.

    Position j of the relabeled table holds perm[entries[sources[j]]]: sources
    picks, for each relabeled position, the position whose argument tuple
    perm maps there.
    """
    sources = [0] * size**arity
    for i, tup in enumerate(itertools.product(range(size), repeat=arity)):
        j = 0
        for a in tup:
            j = j * size + perm[a]
        sources[j] = i
    return sources


def _relabeling_maps(
    size: int, arity: int, anchors: Iterable[int]
) -> Iterator[tuple[Callable, bytes]]:
    """The relabelings of a (size, arity) table that send an anchor to 0,
    each as a (gather, values) pair.

    For a relabeling perm, the relabeled entries are
    bytes(gather(raw.translate(values))): values is the 256-byte translate
    table of perm, and gather is the itemgetter of its _relabeling_sources.
    Needs size >= 2, so that gather returns a tuple.
    """
    anchors = set(anchors)
    for perm in itertools.permutations(range(size)):
        if perm.index(0) in anchors:
            sources = _relabeling_sources(size, arity, perm)
            yield operator.itemgetter(*sources), bytes(perm) + bytes(range(size, 256))


@functools.cache
def _relabelings(size: int, arity: int) -> tuple[tuple[tuple[Callable, bytes], ...], ...]:
    """_relabeling_maps of one shape, built once, grouped by the element sent to 0."""
    return tuple(tuple(_relabeling_maps(size, arity, (a,))) for a in range(size))


def _canonical_bytes(table: NaryTable) -> bytes:
    """The entries of canonical_form(table), without building its table.

    A relabeling sending a to 0 starts its entries with the new label of
    f(a, ..., a), which is 0 exactly when a is idempotent; so when the table
    has an idempotent, only the relabelings sending one to 0 can be minimal.
    """
    m, n = table.size, table.arity
    if m > CANONICAL_PERM_MAX_SIZE:
        raise BudgetExceeded(
            f"canonical form over {m}! relabelings exceeds the cap of "
            f"{CANONICAL_PERM_MAX_SIZE}!"
        )
    if m == 1:
        return bytes(table.entries)
    diagonal = _diagonal(m, n)
    anchors = [a for a in range(m) if table.entries[a * diagonal] == a] or range(m)
    if math.factorial(m) * m**n <= CANONICAL_CACHE_MAX_ENTRIES:
        groups = _relabelings(m, n)
        maps = itertools.chain.from_iterable(groups[a] for a in anchors)
    else:
        maps = _relabeling_maps(m, n, anchors)
    raw = bytes(table.entries)
    return min(bytes(gather(raw.translate(values))) for gather, values in maps)


def canonical_form(table: NaryTable) -> NaryTable:
    """Lexicographically minimal entry sequence over all element relabelings.

    Isomorphic tables map to equal canonical forms; the map is idempotent.
    """
    return NaryTable(table.arity, table.size, tuple(_canonical_bytes(table)))


def table_digest(table: NaryTable) -> str:
    """Isomorphism-invariant id when the relabeling budget allows, else raw."""
    if table.size <= CANONICAL_PERM_MAX_SIZE:
        entries: Iterable[int] = _canonical_bytes(table)
        prefix = "c"
    else:
        entries = table.entries
        prefix = "r"
    text = f"{table.arity}:{table.size}:{','.join(map(str, entries))}"
    return prefix + hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TableFacts:
    """Facts of an associative table that hold for every subuniverse; never cached."""

    table: NaryTable
    exponent_k: int | None
    commutative: bool
    idempotent: bool
    digest: str


def table_facts(table: NaryTable | TableFacts) -> TableFacts:
    """Check associativity once and compute the facts; a TableFacts passes through."""
    if isinstance(table, TableFacts):
        return table
    if not is_associative(table):
        raise NotAssociative("table is not associative")
    return TableFacts(
        table=table,
        exponent_k=compute_exponent(table),
        commutative=is_commutative(table),
        idempotent=is_idempotent(table),
        digest=table_digest(table),
    )


def _power_indices(m: int, n: int, elements: Sequence[int]) -> list[int]:
    """Flat indices of every n-tuple over elements, in lexicographic order."""
    indices = [0]
    for _ in range(n):
        indices = [i * m + a for i in indices for a in elements]
    return indices


def _gather(indices: Sequence[int]) -> Callable:
    """The itemgetter of a nonempty index list, returning a tuple even for
    one index (which it repeats)."""
    if len(indices) == 1:
        indices = [indices[0]] * 2
    return operator.itemgetter(*indices)


def _plan(builder: Callable, table: NaryTable, *key: int, plan_size: int = 0):
    """builder(size, arity, *key) from its LRU cache when the table has at
    most PLAN_CACHE_MAX_ENTRIES entries and plan_size, the number of
    offsets a plan that is not a subset's index list holds, is at most
    that too; otherwise built for this call alone."""
    if len(table.entries) <= PLAN_CACHE_MAX_ENTRIES and plan_size <= PLAN_CACHE_MAX_ENTRIES:
        return builder(table.size, table.arity, *key)
    return builder.__wrapped__(table.size, table.arity, *key)


@functools.lru_cache(maxsize=PLAN_CACHE_SLOTS)
def _subset_plan(size: int, arity: int, mask: int) -> tuple[Subuniverse, Callable]:
    """The subset with this mask, and the gather of the entries of every
    arity-tuple over it."""
    sub = Subuniverse.from_mask(size, mask)
    return sub, _gather(_power_indices(size, arity, sub.elements))


def is_closed(table: NaryTable, sub: Subuniverse) -> bool:
    """Every n-tuple from the subset lands back in the subset."""
    if sub.carrier_size != table.size:
        raise ValueError("subuniverse carrier does not match table size")
    _, gather = _plan(_subset_plan, table, sub.mask)
    return sub.members.issuperset(gather(table.entries))


def enumerate_subuniverses(table: NaryTable, proper_only: bool) -> list[Subuniverse]:
    """All nonempty closed subsets in ascending bitmask order; the
    Subuniverse objects come from the subset plans, so tables of one shape
    share them."""
    m = table.size
    if m > SUBSET_SCAN_MAX_SIZE:
        raise BudgetExceeded(
            f"subuniverse scan over 2^{m} subsets exceeds the cap of {SUBSET_SCAN_MAX_SIZE}"
        )
    full = (1 << m) - 1
    entries = table.entries
    found = []
    for mask in range(1, full if proper_only else full + 1):
        sub, gather = _plan(_subset_plan, table, mask)
        if sub.members.issuperset(gather(entries)):
            found.append(sub)
    return found
