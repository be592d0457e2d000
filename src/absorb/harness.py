"""Conjecture-verification pipeline.

check_pair runs both decision routes on one (table, sub) pair and its
PairReport says what the pair means: whether the two routes agree, which
proved facts it violates, and whether it is a counterexample.  run_corpus
streams pairs from a generator or an explicit table list, writes one
self-contained JSON record per line, and classifies the outcome
(consistent / counterexample-candidate / failed).  The report is its own
checkpoint: each record names its table and subset, so an interrupted run
resumes from the report alone and comes out byte-identical.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import BinaryIO, Iterable, Iterator

from .core import (  # table_digest is looked up here by bench/run.py:install
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
    cond3_products,
    construct_witness,
    decide_theorem,
    verify_witness,
)
from .errors import NotAssociative, NotClosed, NotProperSubuniverse, PreconditionsUnmet
from .generate import GENERATOR_NAME, GenSpec, enumerate_tables
from .oracle import OracleBounds, OracleOutcome, OracleStop, search_absorbing_term
from .version import VERSION

REPORT_FORMAT = "absorb-report/2"

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
    table_id: str
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
            if rejected(construct_witness(table, sub, k)):
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
        """Any violation, or an oracle hit against a conjectural negative
        verdict: a research finding, not an implementation bug."""
        return bool(self.violations) or (
            self.agreement is Agreement.DISAGREE
            and not self.verdict.absorbs
            and not self.verdict.proof_status.is_proved()
        )

    def to_record(self) -> dict:
        return {
            "type": "pair",
            "table_id": self.table_id,
            "arity": self.table.arity,
            "size": self.table.size,
            "table": list(self.table.entries),
            "sub": list(self.sub.elements),
            "sub_mask": self.sub.mask,
            "cond2": self.cond2,
            "cond3": self.cond3,
            "exponent_k": self.verdict.exponent_k,
            "verdict": verdict_record(self.verdict),
            "oracle": oracle_record(self.oracle),
            "agreement": self.agreement.value,
            "case": self.verdict.proof_status.value,
            "counterexample": self.counterexample,
            "fatal": bool(self.violations),
            "violations": list(self.violations),
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

    @property
    def status(self) -> str:
        """failed if any counterexample is fatal, else candidate if any."""
        if any(c["fatal"] for c in self.counterexamples):
            return STATUS_FAILED
        if self.counterexamples:
            return STATUS_CANDIDATE
        return STATUS_CONSISTENT

    def add_record(self, record: dict) -> None:
        self.pairs += 1
        self.agreements[record["agreement"]] += 1
        self.cases[record["case"]] += 1
        if record["counterexample"]:
            self.counterexamples.append(
                {
                    "table_id": record["table_id"],
                    "table": record["table"],
                    "sub": record["sub"],
                    "fatal": record["fatal"],
                }
            )

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
    """Run both routes on one valid (associative, closed, proper) pair."""
    facts = table_facts(table)
    table = facts.table
    verdict = decide_theorem(facts, sub)
    outcome = search_absorbing_term(table, sub, bounds)
    return PairReport(
        table=table,
        sub=sub,
        table_id=facts.digest,
        cond3=cond3_products(table, sub),
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


def _header_record(source_echo: dict, bounds: OracleBounds, meta: dict | None) -> dict:
    return {
        "type": "header",
        "format": REPORT_FORMAT,
        "version": VERSION,
        "source": source_echo,
        "bounds": asdict(bounds),
        "defaults": {
            **asdict(OracleBounds()),
            "proper_only": True,
            "generator": GENERATOR_NAME,
        },
        "meta": meta or {},
    }


def _table_records(f: BinaryIO, table: NaryTable) -> list[dict] | None:
    """The table's pair records, read from f; None when they are missing, cut
    short or end in a fatal record, so the run must redo the table."""
    entries = list(table.entries)
    records = []
    for sub in enumerate_subuniverses(table, proper_only=True):
        line = f.readline()
        record = json.loads(line) if line.endswith(b"\n") else {}
        if record.get("type") != "pair":  # cut short, or a shorter run's summary
            return None
        if (record["table"], record["sub"]) != (entries, list(sub.elements)):
            raise ValueError("report does not match this run's table stream")
        if record["fatal"]:
            return None
        records.append(record)
    return records


def _resume(
    path: str, header_bytes: bytes, tables: Iterator[NaryTable], report: CorpusReport
) -> Iterator[NaryTable] | None:
    """Tally the report at path table by table, cut it after the last table
    it holds complete, and return the tables still to run; None when it
    holds no complete header, so the run starts afresh.

    Raises ValueError, leaving the file as it is, unless the header is this
    run's and each record names the table and subset this stream puts there.
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
        for table in tables:
            records = _table_records(f, table)
            if records is None:
                tables = itertools.chain([table], tables)
                break
            for record in records:
                report.add_record(record)
            report.tables += 1
            kept = f.tell()
        else:
            line = f.readline()
            if line.endswith(b"\n") and json.loads(line)["type"] == "pair":
                raise ValueError("report holds more tables than this run's table stream")
        f.truncate(kept)
    return tables


def run_corpus(
    source: GenSpec | Iterable[NaryTable],
    bounds: OracleBounds,
    out_path: str,
    resume: bool = False,
    meta: dict | None = None,
) -> CorpusReport:
    """Check every (table, proper closed sub) pair of the corpus.

    Writes one pair record per line to out_path plus a final summary
    record.  With resume, a killed run continues from the report it left:
    the tables it holds complete are tallied, not redone, and the bytes
    come out as a fresh run's (see _resume).  Otherwise out_path is
    overwritten.  Proved-case inconsistencies abort the run as failed;
    conjectural oracle-vs-criterion conflicts are flagged as
    counterexample candidates and the run continues.
    """
    started = time.perf_counter()
    if isinstance(source, GenSpec):
        source_echo: dict = {"kind": "genspec", **source.to_dict()}
        tables: Iterator[NaryTable] = iter(enumerate_tables(source))
    else:
        source_echo = {"kind": "tables"}
        tables = iter(source)

    header_bytes = _dump(_header_record(source_echo, bounds, meta))
    report = CorpusReport()
    pending = _resume(out_path, header_bytes, tables, report) if resume else None
    aborted = False
    with open(out_path, "wb" if pending is None else "ab") as out:
        if pending is None:
            out.write(header_bytes)
            pending = tables
        for table in pending:
            facts = table_facts(table)
            for sub in enumerate_subuniverses(table, proper_only=True):
                pair = check_pair(facts, sub, bounds)
                record = pair.to_record()
                out.write(_dump(record))
                report.add_record(record)
                if pair.violations:
                    aborted = True
                    break
            report.tables += 1
            if aborted:
                break
        out.write(_dump(report.summary_record()))

    report.wall_time = time.perf_counter() - started
    return report
