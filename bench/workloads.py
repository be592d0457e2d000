"""The benchmark's workloads: inputs made from a seed, one timed pass, a gate.

Every pass drives the public API the way a user does: ``absorb.run_corpus``
over a whole corpus, or ``absorb.cli.main`` for ``absorb enumerate``.  The
functions are looked up on their modules at call time, so the tracer's
wrappers see the calls.  Each pass is checked in full against counts that
do not come from this program's own earlier output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import absorb
import absorb.cli

clock = time.perf_counter


@dataclass
class Pass:
    """One timed call and what its output showed."""

    seconds: float
    tables: int
    ops: int
    unresolved: int = 0
    found: int = 0
    words_examined: int = 0
    report_bytes: int = 0
    table_starts: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def relabel(table: absorb.NaryTable, perm: list[int]) -> absorb.NaryTable:
    """The isomorphic copy of ``table`` under the carrier permutation ``perm``."""
    m = table.size
    entries = [0] * len(table.entries)
    for i, tup in enumerate(itertools.product(range(m), repeat=table.arity)):
        j = 0
        for a in tup:
            j = j * m + perm[a]
        entries[j] = perm[table.entries[i]]
    return absorb.NaryTable(table.arity, m, tuple(entries))


def relabel_and_shuffle(tables: list, seed: int) -> list:
    """Seed 0 keeps the corpus as generated; any other seed relabels every
    table with one seeded carrier permutation and shuffles the table order."""
    if seed == 0:
        return list(tables)
    rng = random.Random(seed)
    size = tables[0].size
    perm = rng.sample(range(size), size)
    out = [relabel(t, perm) for t in tables]
    rng.shuffle(out)
    return out


def _pull_times(tables, starts: list[float]):
    for table in tables:
        starts.append(clock())
        yield table
    starts.append(clock())


class CorpusWorkload:
    """``run_corpus`` over every table of a generated corpus.

    ``expect`` holds the gate: table and pair counts, the proof-case tally
    and the number of absorbing verdicts.  Agreement counts other than
    Disagree, and words examined, are measured rather than gated, because a
    more complete oracle may move them on purpose.
    """

    def __init__(self, spec, bounds, warm_tables: int, expect: dict) -> None:
        self.spec = spec
        self.bounds = bounds
        self.warm_tables = warm_tables
        self.expect = expect
        self.ops_per_pass = expect["pairs"]

    def set_up(self, seed: int, tmp: str) -> list:
        tables = list(absorb.enumerate_tables(self.spec))
        inputs = relabel_and_shuffle(tables, seed)
        # The warm-up set is fixed across seeds so set-up time does not
        # depend on which tables a shuffle puts first.
        absorb.run_corpus(tables[: self.warm_tables], self.bounds, os.path.join(tmp, "warm.jsonl"))
        return inputs

    def run_pass(self, tables: list, tmp: str, tracer=None) -> Pass:
        path = os.path.join(tmp, "report.jsonl")
        starts: list[float] = []
        source = tracer.table_source(tables) if tracer else _pull_times(tables, starts)
        start = clock()
        report = absorb.run_corpus(source, self.bounds, path)
        seconds = clock() - start
        result = Pass(
            seconds=seconds,
            tables=self.expect["tables"],
            ops=self.ops_per_pass,
            table_starts=tracer.table_starts if tracer else starts,
            report_bytes=os.path.getsize(path),
        )
        self._check(report, path, result)
        return result

    def _check(self, report, path: str, result: Pass) -> None:
        expect, problems = self.expect, result.problems
        pairs = absorbs = 0
        summary: dict = {}
        # Streamed, so the gate adds little to the peak memory measured.
        with open(path, encoding="utf-8") as f:
            for line in f:
                record = json.loads(line)
                if record["type"] == "summary":
                    summary = record
                if record["type"] != "pair":
                    continue
                pairs += 1
                absorbs += record["verdict"]["absorbs"]
                result.found += record["oracle"]["found"]
                result.words_examined += record["oracle"]["words_examined"]
                result.unresolved += record["agreement"] == "Unresolved"
                if record["fatal"] or record["counterexample"]:
                    problems.append(f"record flagged: table {record['table']} sub {record['sub']}")
        got = {
            "status": report.status,
            "summary status": summary.get("status"),
            "tables": report.tables,
            "pairs": report.pairs,
            "pair records": pairs,
            "summary pairs": summary.get("pairs"),
            "cases": report.cases,
            "absorbs": absorbs,
            "Disagree": report.agreements["Disagree"],
            "Unresolved": report.agreements["Unresolved"],
        }
        want = {
            "status": "consistent",
            "summary status": "consistent",
            "tables": expect["tables"],
            "pairs": expect["pairs"],
            "pair records": expect["pairs"],
            "summary pairs": expect["pairs"],
            "cases": expect["cases"],
            "absorbs": expect["absorbs"],
            "Disagree": 0,
            "Unresolved": result.unresolved,
        }
        for key, value in want.items():
            if got[key] != value:
                problems.append(f"{key}: got {got[key]!r}, want {value!r}")


# Commutative semigroups of order 5 up to isomorphism: OEIS A001426 (1, 3,
# 12, 58, 325, ...).
A001426_AT_5 = 325
# Commutative associative tables on {0..4} that the enumerator visits before
# dedup; the fixed unit of work behind tables_per_s.
COMM5_LABELED_TABLES = 30_730


class EnumerateWorkload:
    """``absorb enumerate --size 5 --arity 2 --commutative --dedup``.

    The enumeration takes no input, so the seed changes nothing here.  The
    gate wants exactly A001426(5) tables written, each one commutative and
    associative and no two isomorphic, so the output is one table from each
    isomorphism class.
    """

    ops_per_pass = COMM5_LABELED_TABLES
    size = 5

    def _enumerate(self, out: str, size: int) -> tuple[int, str]:
        argv = ["enumerate", "--size", str(size), "--arity", "2", "--commutative", "--dedup"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = absorb.cli.main(argv + ["--out", out])
        return code, stdout.getvalue()

    def set_up(self, seed: int, tmp: str) -> None:
        out = os.path.join(tmp, "warm")
        self._enumerate(out, self.size - 1)
        shutil.rmtree(out)

    def run_pass(self, inputs, tmp: str, tracer=None) -> Pass:
        out = os.path.join(tmp, "corpus")
        start = clock()
        code, stdout = self._enumerate(out, self.size)
        seconds = clock() - start
        result = Pass(
            seconds=seconds,
            tables=COMM5_LABELED_TABLES,
            ops=COMM5_LABELED_TABLES,
            table_starts=tracer.table_starts if tracer else [],
        )
        try:
            self._check(code, stdout, out, result.problems)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, code: int, stdout: str, out: str, problems: list[str]) -> None:
        if code != 0:
            problems.append(f"exit code {code}")
            return
        with open(os.path.join(out, "corpus.json"), encoding="utf-8") as f:
            meta = json.load(f)
        names = sorted(n for n in os.listdir(out) if n.startswith("table_"))
        counts = {
            "printed count": json.loads(stdout)["count"],
            "corpus.json count": meta["count"],
            "table files": len(names),
        }
        for key, value in counts.items():
            if value != A001426_AT_5:
                problems.append(f"{key}: got {value}, want {A001426_AT_5} (OEIS A001426)")
        m = self.size
        perms = list(itertools.permutations(range(m)))
        seen = set()
        for name in names:
            with open(os.path.join(out, name), encoding="utf-8") as f:
                doc = json.load(f)
            t = doc["table"]
            if (doc["arity"], doc["size"], len(t)) != (2, m, m * m):
                problems.append(f"{name}: not a binary table of size {m}")
                continue
            if any(t[a * m + b] != t[b * m + a] for a in range(m) for b in range(m)):
                problems.append(f"{name}: not commutative")
            if any(
                t[t[a * m + b] * m + c] != t[a * m + t[b * m + c]]
                for a in range(m)
                for b in range(m)
                for c in range(m)
            ):
                problems.append(f"{name}: not associative")
            key = min(_relabeled(t, m, p) for p in perms)
            if key in seen:
                problems.append(f"{name}: isomorphic to an earlier table")
            seen.add(key)


def _relabeled(t: list[int], m: int, p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (m * m)
    for a in range(m):
        for b in range(m):
            out[p[a] * m + p[b]] = p[t[a * m + b]]
    return tuple(out)


CASES_NONE = {c.value: 0 for c in absorb.CaseTag}

WORKLOADS = {
    "corpus-ternary3": CorpusWorkload(
        absorb.GenSpec(3, 3, mode="power"),
        absorb.OracleBounds(),
        warm_tables=12,
        expect={
            "tables": 113,
            "pairs": 507,
            "absorbs": 57,
            "cases": {
                **CASES_NONE,
                "TheoremCommutative": 267,
                "TheoremCoatom": 114,
                "TheoremIdempotentTernary": 78,
                "Conjectural": 48,
            },
        },
    ),
    "sweep-binary4": CorpusWorkload(
        absorb.GenSpec(4, 2),
        absorb.OracleBounds(max_vars=2, max_len=2),
        warm_tables=100,
        expect={
            "tables": 3492,
            "pairs": 29_928,
            "absorbs": 1736,
            "cases": {**CASES_NONE, "TheoremBinary": 29_928},
        },
    ),
    "enumerate-comm5": EnumerateWorkload(),
}
