"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the absorb package at every module that
imported them (``absorb.criteria.is_associative``, ``absorb.harness.
is_associative``, ...), so each call opens a span whatever route it takes.
A span records its name, start, end and the id of the span that caused it.
Hot leaf functions are not given spans: their calls and time are added to
the open span instead, which keeps the cost of a traced run bounded.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter


class _Open:
    __slots__ = ("id", "name", "start", "child_s", "transparent", "leaves")

    def __init__(self, span_id: int, name: str, start: float, transparent: bool) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.transparent = transparent
        self.leaves: dict[str, list] | None = None


class Tracer:
    """Spans plus per-name totals: calls, inclusive seconds, self seconds, hits.

    Self time is a span's duration minus the time its child spans and leaf
    calls cover.  A transparent span (one per corpus table) gives its self
    time to its parent, so ``harness.run_corpus`` keeps the per-record work
    it does between pulls on the table source.
    """

    def __init__(self) -> None:
        # Closed spans: (id, name, start, end, parent id or -1, leaf totals).
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self.table_starts: list[float] = []
        self._stack: list[_Open] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        return stat

    def open(self, name: str, transparent: bool = False) -> None:
        self._stack.append(_Open(self._next_id, name, _clock(), transparent))
        self._next_id += 1

    def close(self) -> None:
        end = _clock()
        span = self._stack.pop()
        duration = end - span.start
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            (span.id, span.name, span.start, end, parent.id if parent else -1, span.leaves)
        )
        stat = self._stat(span.name)
        stat[0] += 1
        stat[1] += duration
        if span.transparent and parent is not None:
            parent.child_s += span.child_s
        else:
            stat[2] += duration - span.child_s
            if parent is not None:
                parent.child_s += duration

    def leaf(self, name: str, seconds: float, hit: bool) -> None:
        stat = self._stat(name)
        stat[0] += 1
        stat[1] += seconds
        stat[2] += seconds
        stat[3] += hit
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += seconds
            if parent.leaves is None:
                parent.leaves = {}
            tally = parent.leaves.setdefault(name, [0, 0.0])
            tally[0] += 1
            tally[1] += seconds

    def table_source(self, tables):
        """Yield the tables, one transparent ``harness.table`` span each."""
        for table in tables:
            if self.table_starts:
                self.close()
            self.table_starts.append(_clock())
            self.open("harness.table", transparent=True)
            yield table
        if self.table_starts:
            self.close()
        self.table_starts.append(_clock())

    def wrap(self, module: str, func: str, leaf: bool = False, stream: bool = False) -> None:
        """Replace ``module.func`` at every absorb module that bound it.

        leaf: count the call into the open span instead of opening one.
        stream: the function returns an iterator; each ``next`` on it is a
        span, and the time each item is delivered goes to ``table_starts``.
        """
        original = getattr(sys.modules[module], func)
        name = f"{module.rsplit('.', 1)[-1]}.{func}"

        if leaf:

            def wrapper(*args, **kwargs):
                start = _clock()
                result = original(*args, **kwargs)
                self.leaf(name, _clock() - start, bool(result))
                return result

        elif stream:

            def wrapper(*args, **kwargs):
                return self._traced_stream(name, original(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close()

        functools.update_wrapper(wrapper, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "absorb":
                continue
            if vars(mod).get(func) is original:
                setattr(mod, func, wrapper)
                self._patched.append((mod, func, original))

    def _traced_stream(self, name: str, iterable):
        iterator = iter(iterable)
        while True:
            self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.table_starts.append(_clock())
                return
            finally:
                self.close()
            self.table_starts.append(_clock())
            yield item

    def unwrap(self) -> None:
        for mod, func, original in reversed(self._patched):
            setattr(mod, func, original)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def hits(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[3]

    def table_latencies(self) -> list[float]:
        starts = self.table_starts
        return [b - a for a, b in zip(starts, starts[1:])]
