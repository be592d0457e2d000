"""Conjecture-verification pipeline.

check_pair runs both decision routes on one (table, sub) pair and its
PairReport says what the pair means: whether the two routes agree, which
proved facts it violates, and whether it is a counterexample.  run_corpus
takes any iterable of tables, writes one JSON record per line (a table
record, then one pair record per proper subuniverse of that table), and
classifies the outcome (consistent / counterexample-candidate / failed).
A process encodes each distinct pair outcome once and splices each pair's
subset into those bytes; the lines are those of to_record, byte for byte.
The report is its own checkpoint: a table record gives the table, each
pair record its subset, so an interrupted run resumes from the report
alone and comes out byte-identical.

run_corpus reads its stream in chunks of CORPUS_CHUNK_TABLES tables, and
one chunk runner writes a chunk's lines and tallies them.  A stream of at
most two chunks runs in-process.  A longer one, on a platform with fork
and called from a process that runs no other thread, is checked on every
CPU: the helpers module forks one helper per usable CPU (none on a single
CPU, and no more than the chunks there are), each its own process with
its own memory and caches, sends each one chunk at a time over a pipe,
and writes their lines in stream order.  The report is the same bytes
either way, also when a fatal pair or an exception cuts the run short,
and no helper outlives run_corpus.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Iterator

from .core import (
    NaryTable,
    Subuniverse,
    TableFacts,
    Word,
    enumerate_subuniverses,
    eval_word,
    table_digest,
    table_facts,
)
from .criteria import (
    AbsorptionVerdict,
    CaseTag,
    FailedCondition,
    _cond3,
    construct_witness,
    decide_theorem,
    verify_witness,
)
from .errors import NotAssociative, NotClosed, NotProperSubuniverse, PreconditionsUnmet
from .generate import GENERATOR_NAME
from .oracle import OracleBounds, OracleOutcome, OracleStop, search_absorbing_term
from .version import VERSION

REPORT_FORMAT = "absorb-report/3"

STATUS_CONSISTENT = "consistent"
STATUS_CANDIDATE = "counterexample-candidate"
STATUS_FAILED = "failed"

# Membership facts the idempotent-ternary proof derives along the way, in
# proof-step order, as two-variable words: variable 0 is the arbitrary
# element, variable 1 the subset member.
_FACT_PATTERNS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("abbab", (0, 1, 1, 0, 1)),
    ("babba", (1, 0, 1, 1, 0)),
    ("aab", (0, 0, 1)),
    ("baa", (1, 0, 0)),
    ("aabaa", (0, 0, 1, 0, 0)),
    ("bab", (1, 0, 1)),
    ("abb", (0, 1, 1)),
    ("bba", (1, 1, 0)),
)


class Agreement(str, Enum):
    AGREE = "Agree"
    DISAGREE = "Disagree"
    UNRESOLVED = "Unresolved"


def oracle_agrees(
    verdict: AbsorptionVerdict, outcome: OracleOutcome, bounds: OracleBounds
) -> Agreement:
    """Compare the criterion verdict with the oracle outcome.

    NoIdempotentTerm proves that no proper B absorbs, so it settles every
    verdict.  Any other negative outcome corroborates a negative verdict
    only when the verdict is theorem-backed and the search provably covers
    the constructed witness x^(k-1)y: max_vars >= 2, and the closure was
    exhausted or max_len >= k.  Otherwise it stays Unresolved.  An
    absorbing verdict the oracle cannot confirm under such bounds is a
    Disagree: the witness is a theorem for every arity.
    """
    if outcome.found:
        return Agreement.AGREE if verdict.absorbs else Agreement.DISAGREE
    if outcome.stop is OracleStop.NO_IDEMPOTENT_TERM:
        return Agreement.DISAGREE if verdict.absorbs else Agreement.AGREE
    k = verdict.exponent_k
    covers_k = (
        outcome.stop is OracleStop.CLOSURE_EXHAUSTED
        or k is None
        or (bounds.max_len is not None and bounds.max_len >= k)
    )
    adequate = bounds.max_vars >= 2 and covers_k
    if verdict.absorbs:
        return Agreement.DISAGREE if adequate else Agreement.UNRESOLVED
    if verdict.proof_status.is_proved() and adequate:
        return Agreement.AGREE
    return Agreement.UNRESOLVED


@dataclass(frozen=True)
class PairReport:
    """Everything both decision routes said about one (table, sub) pair."""

    table: NaryTable
    sub: Subuniverse
    cond3: bool
    verdict: AbsorptionVerdict
    oracle: OracleOutcome
    agreement: Agreement

    @property
    def cond2(self) -> bool:
        return self.verdict.failed_condition is not FailedCondition.PRODUCTS_ESCAPE_B

    @functools.cached_property
    def violations(self) -> tuple[str, ...]:
        """Inconsistencies with theorem-level facts; any entry is fatal.

        Covers the proved implication chain on the pair itself plus the two
        proved-case disagreement flavors.
        """
        table, sub, verdict = self.table, self.sub, self.verdict
        k = verdict.exponent_k
        verified: dict[Word, bool] = {}  # an absorbing verdict carries the constructed witness

        def rejected(word: Word) -> bool:
            if word not in verified:
                verified[word] = verify_witness(table, sub, word)
            return not verified[word]

        msgs = []
        if self.cond2 and k is not None and not self.cond3:
            msgs.append("cond2 with exponent but cond3 fails")
        if self.cond3 and k is not None:
            if rejected(construct_witness(table, k)):
                msgs.append("cond3 with exponent but constructed witness rejected")
        if verdict.absorbs and rejected(verdict.witness):
            msgs.append("absorbing verdict carries a rejected witness")
        if self.agreement is Agreement.DISAGREE:
            if verdict.absorbs:
                msgs.append("criterion absorbs but oracle found nothing within adequate bounds")
            elif verdict.proof_status.is_proved():
                msgs.append("oracle witness contradicts a proved-case negative verdict")
        return tuple(msgs)

    @property
    def counterexample(self) -> bool:
        """Any violation or disagreement.  A disagreement on an absorbing
        or proved pair is a violation; one on a conjectural negative verdict
        is an oracle hit against it: a research finding, not an
        implementation bug."""
        return bool(self.violations) or self.agreement is Agreement.DISAGREE

    def to_record(self) -> dict:
        """The pair's facts; its table is in the table record before it.
        cond2 and the proof case are read from the verdict."""
        return {
            "type": "pair",
            "sub": list(self.sub.elements),
            "cond3": self.cond3,
            "verdict": verdict_record(self.verdict),
            "oracle": oracle_record(self.oracle),
            "agreement": self.agreement.value,
            "counterexample": self.counterexample,
            "fatal": bool(self.violations),
            "violations": list(self.violations),
        }


def table_record(table: NaryTable) -> dict:
    return {
        "type": "table",
        "table_id": table_digest(table),
        "arity": table.arity,
        "size": table.size,
        "table": list(table.entries),
    }


def word_record(word: Word | None) -> dict | None:
    if word is None:
        return None
    return {"num_vars": word.num_vars, "letters": list(word.letters), "display": str(word)}


def verdict_record(verdict: AbsorptionVerdict) -> dict:
    return {
        "absorbs": verdict.absorbs,
        "exponent_k": verdict.exponent_k,
        "witness": word_record(verdict.witness),
        "failed_condition": (
            verdict.failed_condition.value if verdict.failed_condition else None
        ),
        "proof_status": verdict.proof_status.value,
    }


def oracle_record(outcome: OracleOutcome) -> dict:
    return {
        "found": outcome.found,
        "witness": word_record(outcome.witness),
        "words_examined": outcome.words_examined,
        "stop": outcome.stop.value,
    }


@dataclass
class CorpusReport:
    """Aggregate of a corpus run, tallied record by record; wall_time never
    enters the report file."""

    tables: int = 0
    pairs: int = 0
    agreements: dict[str, int] = field(default_factory=lambda: {a.value: 0 for a in Agreement})
    cases: dict[str, int] = field(default_factory=lambda: {c.value: 0 for c in CaseTag})
    counterexamples: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    last_table: dict = field(default_factory=dict, repr=False)  # for the pairs that follow it

    @property
    def status(self) -> str:
        """failed if any counterexample is fatal, else candidate if any."""
        if any(c["fatal"] for c in self.counterexamples):
            return STATUS_FAILED
        if self.counterexamples:
            return STATUS_CANDIDATE
        return STATUS_CONSISTENT

    def add_record(self, record: dict) -> None:
        """Tally one table or pair record, in report order."""
        if record["type"] == "table":
            self.tables, self.last_table = self.tables + 1, record
            return
        self.pairs += 1
        self.agreements[record["agreement"]] += 1
        self.cases[record["verdict"]["proof_status"]] += 1
        if record["counterexample"]:
            self.counterexamples.append(
                {
                    "table_id": self.last_table["table_id"],
                    "table": self.last_table["table"],
                    "sub": record["sub"],
                    "fatal": record["fatal"],
                }
            )

    def merge(self, other: "CorpusReport") -> None:
        """Tally other's records as if they followed these in the report."""
        self.tables += other.tables
        self.pairs += other.pairs
        for key, count in other.agreements.items():
            self.agreements[key] += count
        for key, count in other.cases.items():
            self.cases[key] += count
        self.counterexamples += other.counterexamples
        self.last_table = other.last_table or self.last_table

    def summary_record(self) -> dict:
        return {
            "type": "summary",
            "status": self.status,
            "tables": self.tables,
            "pairs": self.pairs,
            "agreements": self.agreements,
            "cases": self.cases,
            "counterexamples": self.counterexamples,
        }


def check_pair(
    table: NaryTable | TableFacts, sub: Subuniverse, bounds: OracleBounds = OracleBounds()
) -> PairReport:
    """Run both routes on one valid (associative, closed, proper) pair, from
    one computation of the table facts.  cond3 is read unchecked after them,
    and only when cond2 holds: cond2 gathers a prefix of what cond3
    gathers, so a pair that fails cond2 fails cond3."""
    facts = table_facts(table)
    table = facts.table
    verdict = decide_theorem(facts, sub)
    outcome = search_absorbing_term(table, sub, bounds)
    cond2 = verdict.failed_condition is not FailedCondition.PRODUCTS_ESCAPE_B
    return PairReport(
        table=table,
        sub=sub,
        cond3=cond2 and _cond3(table, sub),
        verdict=verdict,
        oracle=outcome,
        agreement=oracle_agrees(verdict, outcome, bounds),
    )


def derived_fact_probes(
    table: NaryTable | TableFacts, sub: Subuniverse
) -> list[tuple[str, bool]]:
    """Membership facts the idempotent-ternary proof derives, each checked
    over all a in the carrier and b in the subset.

    Preconditions: ternary idempotent associative table, closed proper
    subset, and an absorbing criterion verdict; under those, every fact
    must hold.
    """
    try:
        facts = table_facts(table)
        absorbs = decide_theorem(facts, sub).absorbs
    except (NotAssociative, NotClosed, NotProperSubuniverse, ValueError) as exc:
        raise PreconditionsUnmet(f"probes need a valid criterion input: {exc}") from exc
    table = facts.table
    if table.arity != 3:
        raise PreconditionsUnmet("probes need a ternary table")
    if not facts.idempotent:
        raise PreconditionsUnmet("probes need an idempotent table")
    if not absorbs:
        raise PreconditionsUnmet("probes apply only to absorbing pairs")

    members = sub.members
    results = []
    for name, pattern in _FACT_PATTERNS:
        word = Word(2, pattern)
        holds = all(
            eval_word(table, word, [a, b]) in members
            for a in range(table.size)
            for b in sub.elements
        )
        results.append((name, holds))
    return results


# The encoder json.dumps(record, sort_keys=True, separators=(",", ":"))
# would build for each record, built once.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump(record: dict) -> bytes:
    return _ENCODER.encode(record).encode() + b"\n"


# A corpus run encodes each distinct pair outcome once (see _records).  A
# pair record is a pure function of its key, so one memo serves every run
# in the process, and forked helpers inherit it warm.  It is emptied when
# it would pass this many entries, as the plan cache is; an entry holds no
# table and measured about 1.4 KB.
PAIR_RECORD_MEMO_MAX = 1024
_pair_lines: dict[tuple, tuple[dict, bytes, bytes]] = {}


def _header_record(bounds: OracleBounds, meta: dict | None) -> dict:
    return {
        "type": "header",
        "format": REPORT_FORMAT,
        "version": VERSION,
        "source": {"kind": "tables"},
        "bounds": asdict(bounds),
        "defaults": {
            **asdict(OracleBounds()),
            "proper_only": True,
            "generator": GENERATOR_NAME,
        },
        "meta": meta or {},
    }


def _expected_records(table: NaryTable) -> Iterator[tuple[str, str, list[int]]]:
    """(type, key, value) of the records a run writes for table, in order."""
    yield "table", "table", list(table.entries)
    for sub in enumerate_subuniverses(table):
        yield "pair", "sub", list(sub.elements)


def _resume(
    path: str, header_bytes: bytes, tables: Iterator[NaryTable], report: CorpusReport
) -> Iterator[NaryTable] | None:
    """Tally the report at path table by table, cut it after the last table
    it holds complete, and return the tables still to run; None when it
    holds no complete header, so the run starts afresh.

    A table is complete when its table record and all its pair records are
    there and none is fatal.  Raises ValueError, leaving the file as it is,
    unless the header is this run's, each table record holds the table and
    each pair record the subset this stream puts there, and every line the
    walk reads is a JSON object with the keys it reads.
    """
    try:
        f = open(path, "r+b")
    except FileNotFoundError:
        return None
    with f:
        first = f.readline()
        if first != header_bytes:
            if header_bytes.startswith(first):
                return None
            raise ValueError(f"report {path} does not match this run's parameters")
        kept = f.tell()
        lines = enumerate(iter(f.readline, b""), start=2)
        number = 1
        try:
            for table in tables:
                unit = []
                for kind, key, value in _expected_records(table):
                    number, line = next(lines, (number, b""))
                    if not line.endswith(b"\n"):
                        break  # cut short
                    record = json.loads(line)
                    if record["type"] == "summary":
                        break  # a shorter run's summary
                    if record["type"] != kind or record[key] != value:
                        raise ValueError(
                            f"report {path} line {number}: not this run's table stream"
                        )
                    if kind == "pair" and record["fatal"]:
                        break
                    unit.append((number, record))
                else:
                    for number, record in unit:
                        report.add_record(record)
                    kept = f.tell()
                    continue
                tables = itertools.chain([table], tables)
                break
            else:
                number, line = next(lines, (number, b""))
                if line.endswith(b"\n") and json.loads(line)["type"] != "summary":
                    raise ValueError(
                        f"report {path} line {number}: more tables than this run's table stream"
                    )
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
            raise ValueError(
                f"report {path} line {number}: not a report record ({type(exc).__name__}: {exc})"
            ) from None
        f.truncate(kept)
    return tables


def _records(tables: Iterable[NaryTable], bounds: OracleBounds) -> Iterator[tuple[dict, bytes]]:
    """Each table's record and its line, then those of its pairs, until a
    fatal pair.

    A pair that is no counterexample is encoded once per outcome:
    _pair_lines maps (cond3, verdict, oracle, agreement, violations), which
    fix every byte of its record but the subset, to that record with an
    empty subset and its line cut around the subset's digits, and each pair
    with that outcome gets the line with its own digits spliced in.  The
    bounds reach a record only through the oracle outcome and the
    agreement, both in the key.  A flagged pair is encoded whole, so the
    tally reads its subset.
    """
    for table in tables:
        facts = table_facts(table)
        record = table_record(table)
        yield record, _dump(record)
        for sub in enumerate_subuniverses(table):
            pair = check_pair(facts, sub, bounds)
            if pair.counterexample:
                record = pair.to_record()
                yield record, _dump(record)
                if pair.violations:
                    return
                continue
            key = (pair.cond3, pair.verdict, pair.oracle, pair.agreement, pair.violations)
            entry = _pair_lines.get(key)
            if entry is None:
                if len(_pair_lines) >= PAIR_RECORD_MEMO_MAX:
                    _pair_lines.clear()
                record = pair.to_record()
                record["sub"] = []
                head, marker, tail = _dump(record).partition(b'"sub":[]')
                assert marker and b'"sub":[]' not in tail, "one subset per pair record"
                entry = _pair_lines[key] = (record, head + b'"sub":[', b"]" + tail)
            record, head, tail = entry
            yield record, head + ",".join(map(str, sub.elements)).encode() + tail


# run_corpus reads its table stream in chunks of this many tables, each run
# by one call of _run_chunk, in-process or in a helper.
CORPUS_CHUNK_TABLES = 64


def _chunks(stream: Iterator[NaryTable]) -> Iterator[tuple[list[NaryTable], Exception | None]]:
    """Each chunk of the stream, with the exception that ended the stream
    after the chunk's tables, if one did."""
    while True:
        tables = []
        try:
            for table in itertools.islice(stream, CORPUS_CHUNK_TABLES):
                tables.append(table)
        except Exception as exc:
            yield tables, exc
            return
        if not tables:
            return
        yield tables, None


def _run_chunk(
    tables: list[NaryTable], bounds: OracleBounds, write: Callable[[bytes], object]
) -> CorpusReport:
    """Write the lines of a chunk's records with write, and return their
    tally; an exception propagates after the lines written before it."""
    tally = CorpusReport()
    for record, line in _records(tables, bounds):
        write(line)
        tally.add_record(record)
    return tally


def _helper_count() -> int:
    """The helpers a long stream is run with: one per usable CPU; none on a
    single CPU, without fork, or in a process that runs other threads,
    where a fork is unsafe (the child gets only the calling thread)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus if cpus > 1 else 0


def _write_chunks(
    stream: Iterator[NaryTable], bounds: OracleBounds, out: BinaryIO, report: CorpusReport
) -> None:
    """Write the lines of every chunk of the stream to out in stream order
    and tally them into report, until a fatal pair.  An exception in a chunk
    or in the stream propagates after the lines before it, as in a serial
    run."""
    chunks = _chunks(stream)
    cpus = _helper_count()
    # Forking costs more than it saves on a stream of at most two chunks,
    # and a helper beyond the stream's chunks would get none.
    ahead = list(itertools.islice(chunks, max(3, cpus)))
    helpers = min(cpus, len(ahead)) if len(ahead) > 2 else 0
    chunks = itertools.chain(ahead, chunks)
    if helpers:
        from .helpers import helper_results  # imported only where a run forks

        results = helper_results(chunks, bounds, helpers, out)
    else:
        results = ((_run_chunk(tables, bounds, out.write), error) for tables, error in chunks)
    with contextlib.closing(results):
        for tally, error in results:
            report.merge(tally)
            if tally.status == STATUS_FAILED:
                return
            if error is not None:
                raise error


def run_corpus(
    tables: Iterable[NaryTable],
    bounds: OracleBounds,
    out_path: str,
    resume: bool = False,
    meta: dict | None = None,
) -> CorpusReport:
    """Check every (table, proper closed sub) pair of any iterable of tables.

    Writes the header, then for each table its table record and one pair
    record per proper subuniverse, one per line, to out_path, and a final
    summary record.  With resume, a killed run continues from the report
    it left: the tables it holds complete are tallied, not redone, and the
    bytes come out as a fresh run's (see _resume).  Otherwise out_path is
    overwritten.  Proved-case inconsistencies abort the run as failed;
    conjectural oracle-vs-criterion conflicts are flagged as
    counterexample candidates and the run continues.
    """
    started = time.perf_counter()
    stream = iter(tables)
    header_bytes = _dump(_header_record(bounds, meta))
    report = CorpusReport()
    pending = _resume(out_path, header_bytes, stream, report) if resume else None
    with open(out_path, "wb" if pending is None else "ab") as out:
        if pending is None:
            out.write(header_bytes)
            pending = stream
        _write_chunks(pending, bounds, out, report)
        out.write(_dump(report.summary_record()))

    report.wall_time = time.perf_counter() - started
    return report
