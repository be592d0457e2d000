"""Exact search for an absorbing idempotent term.

The ground-truth side of every equivalence check: close the term
operations in at most max_vars variables under one more application of the
operation, breadth-first, and return the first one the definition accepts,
with no reference to the product criteria.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .core import (
    BUILD_MAX_VALUES,
    NaryTable,
    Subuniverse,
    Word,
    _plan,
    _power,
    _require_proper_closed,
    _require_within,
    compute_exponent,
)
from .criteria import verify_witness


@dataclass(frozen=True)
class OracleBounds:
    """Terms in at most max_vars variables and of at most max_len letters;
    max_len=None runs the closure until it is exhausted."""

    max_vars: int = 3
    max_len: int | None = None

    def __post_init__(self) -> None:
        if type(self.max_vars) is not int or self.max_vars < 1:  # bool is rejected too
            raise ValueError(f"max_vars must be an int >= 1, got {self.max_vars!r}")
        if self.max_len is not None and (type(self.max_len) is not int or self.max_len < 2):
            raise ValueError(f"max_len must be None or an int >= 2, got {self.max_len!r}")


class OracleStop(str, Enum):
    """Why the search stopped, and what a negative answer proves."""

    FOUND = "Found"
    NO_IDEMPOTENT_TERM = "NoIdempotentTerm"  # no proper B absorbs, at any arity
    CLOSURE_EXHAUSTED = "ClosureExhausted"  # no term in max_vars variables absorbs
    LENGTH_BOUND = "LengthBound"  # none up to max_len; no proof


@dataclass(frozen=True)
class OracleOutcome:
    """The witness (None unless stop is FOUND), the number of term vectors
    evaluated, and why the search stopped."""

    witness: Word | None
    words_examined: int
    stop: OracleStop

    @property
    def found(self) -> bool:
        return self.witness is not None


def _witness(parent: dict, vector: tuple[int, ...]) -> Word:
    """The word of a vector, rebuilt from the parent pointers, with its
    variables renamed in order of first occurrence."""
    chunks = []
    while parent[vector] is not None:
        vector, letters = parent[vector]
        chunks.append(letters)
    names = {0: 0}
    renamed = [0] + [names.setdefault(x, len(names)) for c in reversed(chunks) for x in c]
    return Word(len(names), renamed)


# The table whose exponent was computed last, and that exponent: a corpus
# run searches every subuniverse of one table in a row.  Keyed on identity,
# so a lookup costs nothing however large the table; it keeps that one
# table alive.
_last_exponent: tuple[NaryTable | None, int | None] = (None, None)


def _exponent(table: NaryTable) -> int | None:
    """compute_exponent(table), remembered for the last table asked about.

    The oracle computes its own exponent, independently of the criterion's
    table facts."""
    global _last_exponent
    last, k = _last_exponent
    if last is not table:
        k = compute_exponent(table)
        _last_exponent = (table, k)
    return k


def _closure_plan(size: int, arity: int, max_vars: int, mask: int) -> tuple[tuple, int]:
    """The table-independent part of the closure over the subset with this
    mask: the vector of the word x and the steps, and their offset count.

    The assignment list is the domain D, then the size diagonal ones.  Each
    step appends one tuple of arity-1 letters, as the flat-index offsets of
    their values over the assignment list.  Raises BudgetExceeded, before it
    builds D, when the offsets would pass BUILD_MAX_VALUES.
    """
    elements = Subuniverse.from_mask(size, mask).elements
    outside = [a for a in range(size) if not mask >> a & 1]
    cap = BUILD_MAX_VALUES
    steps, rests = _power(max_vars, arity - 1, cap), _power(len(elements), max_vars - 1, cap)
    offsets: int | str = f"{steps}*({max_vars}*{rests}*{len(outside)} + {size})"
    if type(steps) is int and type(rests) is int:
        offsets = steps * (max_vars * rests * len(outside) + size)
    _require_within(offsets, "closure-plan offsets", cap)
    domain = [
        rest[:i] + (a,) + rest[i:]
        for i in range(max_vars)
        for rest in itertools.product(elements, repeat=max_vars - 1)
        for a in outside
    ]
    diagonal = tuple(range(size))
    columns = [tuple(assignment[x] for assignment in domain) + diagonal for x in range(max_vars)]
    steps = []
    for letters in itertools.product(range(max_vars), repeat=arity - 1):
        offsets = [0] * len(columns[0])
        for x in letters:
            offsets = [o * size + c for o, c in zip(offsets, columns[x])]
        steps.append((letters, tuple(offsets)))
    return (columns[0], tuple(steps)), len(steps) * len(columns[0])


def search_absorbing_term(
    table: NaryTable,
    sub: Subuniverse,
    bounds: OracleBounds = OracleBounds(),
) -> OracleOutcome:
    """A shortest absorbing idempotent term in at most max_vars variables.

    The table must be associative: only then is every term a word, the
    same in every bracketing, so that the closure below reaches every term
    operation and a negative stop is a proof.

    A term is a word over the variables, evaluated left-greedily, and its
    term operation is tabulated as a vector over a fixed list of
    assignments: the domain D of assignments with exactly one variable
    outside B, then the m diagonal assignments (a, ..., a).  D is exact: an
    all-inside assignment cannot escape the closed B, and a variable the
    word does not use ranges over the nonempty B and changes nothing.  A
    vector absorbs iff its diagonal part is (0, ..., m-1) and none of its D
    part leaves B.  Appending n-1 letters to a word maps its vector through
    f(old value, letters) pointwise, so the vectors of the words that start
    with variable 0 (every term up to renaming) close breadth-first from x,
    one layer per n-1 letters, keeping only vectors not seen before.

    The search stops at the first absorbing vector (its word is rebuilt
    from parent pointers, renamed by first occurrence and re-verified with
    verify_witness); at once if the table has no exponent, when only the
    one-letter term is idempotent; when a layer adds nothing new; or when
    the next layer would pass max_len.
    """
    _require_proper_closed(table, sub)
    if _exponent(table) is None:
        return OracleOutcome(None, 0, OracleStop.NO_IDEMPOTENT_TERM)

    n, m, v, entries = table.arity, table.size, bounds.max_vars, table.entries
    members = sub.members
    start, steps = _plan(_closure_plan, m, n, v, sub.mask)
    diagonal = start[-m:]
    stride = m ** (n - 1)

    # every vector reached -> (its parent vector, the letters appended), or
    # None for the word x
    parent: dict = {start: None}
    layer = [start]
    length = 1
    examined = 0
    while True:
        length += n - 1
        if bounds.max_len is not None and length > bounds.max_len:
            return OracleOutcome(None, examined, OracleStop.LENGTH_BOUND)
        added = []
        for vector in layer:
            bases = [a * stride for a in vector]
            for letters, offsets in steps:
                examined += 1
                stepped = tuple([entries[b + o] for b, o in zip(bases, offsets)])
                if stepped in parent:
                    continue
                parent[stepped] = (vector, letters)
                added.append(stepped)
                if stepped[-m:] == diagonal and members.issuperset(stepped[:-m]):
                    word = _witness(parent, stepped)
                    if not verify_witness(table, sub, word):
                        raise RuntimeError(f"oracle hit {word} failed re-verification")
                    return OracleOutcome(word, examined, OracleStop.FOUND)
        if not added:
            return OracleOutcome(None, examined, OracleStop.CLOSURE_EXHAUSTED)
        layer = added
