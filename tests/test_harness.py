import collections
import dataclasses
import hashlib
import json
import os
import signal
import sys
import threading

import pytest

import absorb.core
import absorb.harness
from absorb import (
    Agreement,
    CaseTag,
    CorpusReport,
    GenSpec,
    NaryTable,
    NotAssociative,
    OracleBounds,
    OracleStop,
    PreconditionsUnmet,
    Subuniverse,
    TableFacts,
    check_pair,
    derive_power_algebra,
    derived_fact_probes,
    enumerate_subuniverses,
    enumerate_tables,
    run_corpus,
    table_digest,
    table_facts,
)
from absorb.cli import main
from absorb.fileio import save_algebra
from absorb.harness import table_record
from conftest import (
    LEFT_ZERO,
    MIN2,
    NULL2,
    SUB0,
    SUB01_OF3,
    TMIN2,
    TMIN3,
    TZ2,
    Z2,
    enumerate_pairs,
)
from test_core import ASSOC_SMALL
from test_criteria import PROJ_KILL_T

FACT_NAMES = ["abbab", "babba", "aab", "baa", "aabaa", "bab", "abb", "bba"]

# sha256 of each OracleBounds() report with its header line dropped, since
# the header carries the package version.  The ternary power corpus is the
# one whose oracle closes the most three-variable terms.
REPORT_BODY_SHA256 = {
    GenSpec(2, 2): "d19572c860915c6f231c4ed0212a727b2f72f0315b52aecad4afb04d809ec490",
    GenSpec(3, 2): "0256a791f6caf5a831682b228e970fd6986f5bb103816e823e077b7ddbcdea88",
    GenSpec(2, 3): "6262d9a64cedfdcc9aeb6ab0bb34a8ebd1e9539abae9a1034c17cd61a3e354bb",
    GenSpec(3, 3, mode="power"): "1d34810bc04bc35cb6130dd3492a1279af79d97aa7587bf2f40ee762491d6c94",
}
# The same bodies in absorb-report/2, where each pair record repeated its
# table and four fields derived from others; format2_body rebuilds them.
FORMAT2_BODY_SHA256 = {
    GenSpec(2, 2): "56bd9a942e6c6bbd0b51a956e05261ab953d10df260c2b40c706bc79b3f1aa36",
    GenSpec(3, 2): "ad284b5b1f4d7656fe4c6b07f7dd94149472f3ab2adeea5aa140fa32b63cacbc",
    GenSpec(2, 3): "2beae4b5fa53af490e3cba9edc4c422651537d99c47b93897d9ee6139ac90ac5",
    GenSpec(3, 3, mode="power"): "efc34874f4fb2aa75acf7af77d8e37483918758e05fa5cf36ad326348ef91cc9",
}
# Length and sha256 of the body of the benchmark's sweep-binary4 report:
# every binary size-4 table at OracleBounds(max_vars=2, max_len=2).
SWEEP_BINARY4_BODY = (10_206_294, "11a48e153fc46aa64585c8ddec2b1e8802c84b575010c4178348e959deb6dfba")
TABLE_KEYS = {"type", "table_id", "arity", "size", "table"}
PAIR_KEYS = {"type", "sub", "cond3", "verdict", "oracle", "agreement", "counterexample",
             "fatal", "violations"}

TABLE_FACT_FUNCTIONS = ("is_associative", "table_digest", "is_commutative", "is_idempotent")
# table_facts and the oracle each compute the exponent once per table
COUNTED_FUNCTIONS = TABLE_FACT_FUNCTIONS + ("compute_exponent",)


def read_report(path):
    with open(path, "rb") as f:
        return [json.loads(line) for line in f]


def with_tables(records):
    """(table record, record) for each pair record, its table the last before it."""
    table = None
    for record in records:
        if record["type"] == "table":
            table = record
        elif record["type"] == "pair":
            yield table, record


def format2_body(body):
    """The absorb-report/2 body of an absorb-report/3 body: table records
    dropped, and each pair record given back its table's fields, its subset's
    mask, and cond2, exponent_k and case as read from its verdict."""
    out = []
    for line in body.splitlines():
        record = json.loads(line)
        if record["type"] == "table":
            table = record
            continue
        if record["type"] == "pair":
            verdict = record["verdict"]
            record.update(
                {key: table[key] for key in ("table_id", "arity", "size", "table")},
                sub_mask=sum(1 << e for e in record["sub"]),
                cond2=verdict["failed_condition"] != "ProductsEscapeB",
                exponent_k=verdict["exponent_k"],
                case=verdict["proof_status"],
            )
        out.append(absorb.harness._dump(record))
    return b"".join(out)


@pytest.fixture(scope="module")
def counted_binary3_run(tmp_path_factory):
    """run_corpus over GenSpec(3, 2) with each table-fact function and
    compute_exponent counted at every absorb module that binds it; returns
    (report, bytes, counts)."""
    counts = dict.fromkeys(COUNTED_FUNCTIONS, 0)
    patched = []
    for name in COUNTED_FUNCTIONS:
        original = getattr(absorb.core, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "absorb":
                continue
            if vars(module).get(name) is original:
                setattr(module, name, counting)
                patched.append((module, name, original))
    path = tmp_path_factory.mktemp("binary3") / "report.jsonl"
    try:
        report = run_corpus(enumerate_tables(GenSpec(3, 2)), OracleBounds(), str(path))
    finally:
        for module, name, original in patched:
            setattr(module, name, original)
    return report, path.read_bytes(), counts


class TestCheckPair:
    def test_semilattice_end_to_end(self):
        r = check_pair(MIN2, SUB0, OracleBounds())
        assert r.cond2 and r.cond3
        assert r.verdict.exponent_k == 2
        assert r.verdict.absorbs
        assert r.oracle.found
        assert r.agreement is Agreement.AGREE
        assert r.verdict.proof_status is CaseTag.THEOREM_BINARY
        assert r.sub.mask == 1

    def test_left_zero(self):
        r = check_pair(LEFT_ZERO, SUB0, OracleBounds())
        assert not r.cond2
        assert not r.verdict.absorbs
        assert not r.oracle.found
        assert r.agreement is Agreement.AGREE

    def test_ternary_sum_commutative_completeness(self):
        r = check_pair(TZ2, SUB0, OracleBounds())
        assert not r.cond2
        assert not r.verdict.absorbs
        assert r.verdict.proof_status is CaseTag.THEOREM_COMMUTATIVE
        assert not r.oracle.found
        assert r.agreement is Agreement.AGREE

    def test_table_and_pair_record_keys(self):
        record = check_pair(MIN2, SUB0, OracleBounds()).to_record()
        assert set(record) == PAIR_KEYS
        assert record["type"] == "pair"
        assert record["sub"] == [0]
        assert record["verdict"]["witness"]["display"] == "xy"
        json.dumps(record)  # serializable
        table = table_record(MIN2)
        assert table == {"type": "table", "table_id": table_digest(MIN2), "arity": 2,
                         "size": 2, "table": list(MIN2.entries)}

    def test_absorbing_witness_verified_once(self, monkeypatch):
        import absorb.harness as harness

        report = check_pair(MIN2, SUB0, OracleBounds())
        assert report.verdict.absorbs and report.cond3
        calls = []
        real = harness.verify_witness

        def counting(table, sub, word):
            calls.append(word)
            return real(table, sub, word)

        monkeypatch.setattr(harness, "verify_witness", counting)
        assert report.violations == ()
        assert calls == [report.verdict.witness]

    def test_pair_checked_once(self, monkeypatch):
        # Given its table facts, a proper closed pair is checked for closure
        # once by the criterion and once by the oracle, through the kernel;
        # no public predicate runs and no table facts are computed.
        facts = table_facts(TMIN3)
        counts = count_checks(monkeypatch)
        report = check_pair(facts, SUB01_OF3, OracleBounds())
        assert report.verdict.absorbs and report.oracle.found
        assert counts == {"_closed": 2}

    def test_cond3_read_only_where_cond2_holds(self, monkeypatch):
        # cond2 gathers a prefix of cond3's list: a pair that fails cond2
        # fails cond3 without the gather, and one that holds gathers once
        facts = [table_facts(LEFT_ZERO), table_facts(MIN2)]
        counts = count_checks(monkeypatch, "_cond3")
        escaping = check_pair(facts[0], SUB0, OracleBounds())
        assert (escaping.cond2, escaping.cond3) == (False, False)
        assert counts == {"_closed": 2}
        counts.clear()
        holding = check_pair(facts[1], SUB0, OracleBounds())
        assert (holding.cond2, holding.cond3) == (True, True)
        assert counts == {"_closed": 2, "_cond3": 1}

    def test_no_proved_violations_on_small_corpus(self):
        for table, sub in enumerate_pairs(ASSOC_SMALL):
            report = check_pair(table, sub, OracleBounds())
            assert report.violations == ()


def count_checks(monkeypatch, *more):
    """Count the calls of the closure kernel, the public predicates, the
    TableFacts constructor and the names in more, at every absorb module
    that binds them."""
    counts = collections.Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "absorb"]
    for name in ("_closed", "is_closed", "cond2_products", "cond3_products", "detect_case", *more):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(TableFacts, "__init__", counting("TableFacts", TableFacts.__init__))
    return counts


class TestTableDigest:
    def test_isomorphic_tables_share_id(self):
        mx = NaryTable.from_function(2, 2, max)
        assert table_digest(MIN2) == table_digest(mx)

    def test_distinct_tables_differ(self):
        assert table_digest(MIN2) != table_digest(Z2)

    def test_canonical_prefix(self):
        assert table_digest(MIN2).startswith("c")


class TestDerivedFactProbes:
    def test_ternary_min_all_hold(self):
        probes = derived_fact_probes(TMIN2, SUB0)
        assert [name for name, _ in probes] == FACT_NAMES
        assert all(holds for _, holds in probes)

    def test_chain_pair_all_hold(self):
        assert all(holds for _, holds in derived_fact_probes(TMIN3, SUB01_OF3))

    def test_noncommutative_band_pair_all_hold(self):
        # left-zero on {1,2} with a zero element adjoined: {0} absorbs
        band = NaryTable.from_function(2, 3, lambda a, b: a if a and b else 0)
        derived = derive_power_algebra(band, 3)
        sub = Subuniverse(3, frozenset({0}))
        probes = derived_fact_probes(derived, sub)
        assert all(holds for _, holds in probes)

    def test_refuses_nonabsorbing_pair(self):
        with pytest.raises(PreconditionsUnmet):
            derived_fact_probes(TZ2, SUB0)

    def test_refuses_wrong_arity(self):
        with pytest.raises(PreconditionsUnmet):
            derived_fact_probes(MIN2, SUB0)

    def test_refuses_nonidempotent(self):
        with pytest.raises(PreconditionsUnmet):
            derived_fact_probes(PROJ_KILL_T, Subuniverse(4, frozenset({0, 2})))


class TestRunCorpus:
    def test_small_exhaustive_run(self, tmp_path):
        out = tmp_path / "report.jsonl"
        report = run_corpus(enumerate_tables(GenSpec(2, 2)), OracleBounds(), str(out))
        assert report.status == "consistent"
        assert report.tables == 8
        assert report.pairs == 12
        assert report.agreements["Disagree"] == 0
        assert report.counterexamples == []
        assert report.wall_time >= 0

        lines = read_report(out)
        assert lines[0]["type"] == "header"
        assert lines[0]["bounds"] == {"max_vars": 3, "max_len": None}
        assert "defaults" in lines[0]
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["status"] == "consistent"
        pair_lines = [l for l in lines if l["type"] == "pair"]
        assert len(pair_lines) == 12
        assert all(not l["counterexample"] for l in pair_lines)
        table_lines = [l for l in lines if l["type"] == "table"]
        assert [l["table"] for l in table_lines] == [
            list(t.entries) for t in enumerate_tables(GenSpec(2, 2))
        ]
        assert all(set(l) == TABLE_KEYS for l in table_lines)
        assert all(set(l) == PAIR_KEYS for l in pair_lines)
        assert [l["type"] for l in lines[1:-1]] == [
            kind
            for t in enumerate_tables(GenSpec(2, 2))
            for kind in ["table"] + ["pair"] * len(list(enumerate_subuniverses(t)))
        ]

    def test_a_table_without_pairs_has_its_table_record(self, tmp_path):
        assert list(enumerate_subuniverses(ODD_SUM3)) == []
        out = tmp_path / "report.jsonl"
        report = run_corpus([ODD_SUM3, MIN2, ODD_SUM3], OracleBounds(), str(out))
        assert (report.tables, report.pairs) == (3, 2)
        lines = read_report(out)
        assert [l["type"] for l in lines] == [
            "header", "table", "table", "pair", "pair", "table", "summary"
        ]
        assert lines[1] == table_record(ODD_SUM3) == lines[5]
        assert lines[-1]["tables"] == 3

    def test_explicit_table_list_source(self, tmp_path):
        out = tmp_path / "report.jsonl"
        report = run_corpus([MIN2, Z2], OracleBounds(), str(out), meta={"note": "x"})
        assert report.pairs == 3
        header = read_report(out)[0]
        assert header["source"] == {"kind": "tables"}
        assert header["meta"] == {"note": "x"}

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_corpus(enumerate_tables(GenSpec(2, 2)), OracleBounds(), str(a))
        run_corpus(enumerate_tables(GenSpec(2, 2)), OracleBounds(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_resume_rejects_mismatched_parameters(self, tmp_path, monkeypatch):
        out = tmp_path / "report.jsonl"
        calls = 0
        import absorb.harness as harness

        real = harness.check_pair

        def killer(table, sub, bounds):
            nonlocal calls
            calls += 1
            if calls > 4:
                raise KeyboardInterrupt
            return real(table, sub, bounds)

        monkeypatch.setattr(harness, "check_pair", killer)
        with pytest.raises(KeyboardInterrupt):
            run_corpus(enumerate_tables(GenSpec(2, 2)), OracleBounds(), str(out), resume=True)
        monkeypatch.setattr(harness, "check_pair", real)
        written = out.read_bytes()
        with pytest.raises(ValueError, match="parameters"):
            run_corpus(enumerate_tables(GenSpec(2, 2)), OracleBounds(max_vars=2), str(out), resume=True)
        assert out.read_bytes() == written

    def test_resume_rejects_a_different_table_stream(self, tmp_path, monkeypatch, binary2, binary3):
        import absorb.harness as harness

        out = tmp_path / "report.jsonl"
        real = harness.enumerate_subuniverses
        calls = 0

        def killer(table):
            nonlocal calls
            calls += 1
            if calls > 5:
                raise KeyboardInterrupt
            return real(table)

        monkeypatch.setattr(harness, "enumerate_subuniverses", killer)
        with pytest.raises(KeyboardInterrupt):
            run_corpus(binary3, OracleBounds(), str(out), resume=True)
        monkeypatch.setattr(harness, "enumerate_subuniverses", real)
        written = out.read_bytes()
        lines = read_report(out)
        done = {tuple(table["table"]) for table, _pair in with_tables(lines)}
        assert done == {t.entries for t in binary3[:5] if list(real(t))}
        # the sixth table's record is written before its subsets are listed
        assert [l["table"] for l in lines if l["type"] == "table"] == [
            list(t.entries) for t in binary3[:6]
        ]

        # The first table relabeled: same table_digest, different raw entries.
        swap = (1, 0, 2)
        relabeled = NaryTable.from_function(
            2, 3, lambda a, b: swap[binary3[0].apply(swap[a], swap[b])]
        )
        assert relabeled != binary3[0]
        assert table_digest(relabeled) == table_digest(binary3[0])
        for tables in (binary2, [relabeled] + binary3[1:], binary3[:3]):
            with pytest.raises(ValueError, match="table stream"):
                run_corpus(tables, OracleBounds(), str(out), resume=True)
            assert out.read_bytes() == written

        # A stream that starts with the same five tables still resumes.
        resumed = run_corpus(binary3[:8], OracleBounds(), str(out), resume=True)
        clean = tmp_path / "clean.jsonl"
        run_corpus(binary3[:8], OracleBounds(), str(clean))
        assert (resumed.status, resumed.tables) == ("consistent", 8)
        assert out.read_bytes() == clean.read_bytes()


QUICK = OracleBounds(max_vars=2, max_len=2)

# ternary a+b+c+1 mod 2: no proper closed subset, so no pair records
ODD_SUM3 = NaryTable.from_function(3, 2, lambda a, b, c: (a + b + c + 1) % 2)
# repeats a table back to back, then mixes in ternary tables of 1 and 2 pairs
RESUME_STREAM = [ODD_SUM3, MIN2, MIN2, LEFT_ZERO, TMIN2, TZ2, NaryTable(3, 2, (0,) * 8),
                 NaryTable.from_function(3, 2, lambda a, b, c: c)]


def cuts(body):
    """Each line's first, middle and last byte offset, and the end."""
    offsets = {len(body)}
    start = 0
    for line in body.splitlines(keepends=True):
        end = start + len(line)
        offsets |= {start, (start + end) // 2, end - 1}
        start = end
    return sorted(offsets)


def assert_resumes_anywhere(tmp_path, tables):
    """Cut a clean report at every offset of cuts(), resume, and compare."""
    clean = tmp_path / "clean.jsonl"
    expected = run_corpus(tables, QUICK, str(clean))
    body = clean.read_bytes()
    killed = tmp_path / "killed.jsonl"
    for cut in cuts(body):
        killed.write_bytes(body[:cut])
        resumed = run_corpus(tables, QUICK, str(killed), resume=True)
        assert killed.read_bytes() == body, cut
        assert resumed.summary_record() == expected.summary_record(), cut
    return expected


class TestResume:
    def test_kill_anywhere_resumes_byte_identically(self, tmp_path):
        assert list(enumerate_subuniverses(ODD_SUM3)) == []
        report = assert_resumes_anywhere(tmp_path, RESUME_STREAM)
        assert (report.status, report.tables, report.pairs) == ("consistent", 8, 13)

    def test_fatal_abort_on_a_tables_last_pair_resumes(self, tmp_path, monkeypatch, binary3):
        flip_to_disagree(monkeypatch, lambda r: r.sub.mask == 6)
        report = assert_resumes_anywhere(tmp_path, binary3[:14])
        assert (report.status, report.tables, report.pairs) == ("failed", 12, 47)
        last = read_report(tmp_path / "clean.jsonl")[-2]
        assert (last["sub"], last["fatal"]) == ([1, 2], True)

    def test_empty_report_or_half_written_header_starts_afresh(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        run_corpus(RESUME_STREAM, QUICK, str(clean))
        body = clean.read_bytes()
        header = body[: body.index(b"\n") + 1]
        out = tmp_path / "report.jsonl"
        for start in (b"", header[: len(header) // 2]):
            out.write_bytes(start)
            report = run_corpus(RESUME_STREAM, QUICK, str(out), resume=True)
            assert out.read_bytes() == body
            assert report.tables == len(RESUME_STREAM)

    def test_records_of_other_subsets_are_refused(self, tmp_path):
        out = tmp_path / "report.jsonl"
        run_corpus(RESUME_STREAM, QUICK, str(out))
        lines = out.read_bytes().splitlines(keepends=True)
        assert json.loads(lines[2])["table"] == list(MIN2.entries)
        assert [json.loads(l)["sub"] for l in lines[3:5]] == [[0], [1]]  # MIN2's pairs
        lines[3:5] = lines[4:2:-1]
        swapped = b"".join(lines)
        out.write_bytes(swapped)
        with pytest.raises(ValueError, match="table stream"):
            run_corpus(RESUME_STREAM, QUICK, str(out), resume=True)
        assert out.read_bytes() == swapped

    def test_table_records_of_other_tables_are_refused(self, tmp_path):
        # LEFT_ZERO has MIN2's subsets: only MIN2's table record tells them apart
        subsets = [s.elements for s in enumerate_subuniverses(MIN2)]
        assert [s.elements for s in enumerate_subuniverses(LEFT_ZERO)] == subsets
        other = [ODD_SUM3, LEFT_ZERO] + RESUME_STREAM[2:]
        out = tmp_path / "report.jsonl"
        run_corpus(RESUME_STREAM, QUICK, str(out))
        lines = out.read_bytes().splitlines(keepends=True)
        for kept in (lines, lines[:3]):  # whole, and cut right after MIN2's table record
            out.write_bytes(b"".join(kept))
            with pytest.raises(ValueError, match="line 3: not this run's table stream"):
                run_corpus(other, QUICK, str(out), resume=True)
            assert out.read_bytes() == b"".join(kept)

    def test_finished_report_continues_with_a_longer_stream(self, tmp_path, binary3):
        out = tmp_path / "report.jsonl"
        run_corpus(RESUME_STREAM, QUICK, str(out))
        longer = RESUME_STREAM + binary3[:3]
        report = run_corpus(longer, QUICK, str(out), resume=True)
        clean = tmp_path / "clean.jsonl"
        run_corpus(longer, QUICK, str(clean))
        assert out.read_bytes() == clean.read_bytes()
        assert report.tables == len(longer)

    def test_only_the_report_is_written(self, tmp_path, monkeypatch):
        import absorb.harness as harness

        out = tmp_path / "report.jsonl"
        run_corpus(RESUME_STREAM, QUICK, str(out))
        assert os.listdir(tmp_path) == ["report.jsonl"]

        real = harness.check_pair

        def killer(table, sub, bounds):
            if table.table.arity == 3:  # run_corpus passes TableFacts
                raise KeyboardInterrupt
            return real(table, sub, bounds)

        monkeypatch.setattr(harness, "check_pair", killer)
        with pytest.raises(KeyboardInterrupt):
            run_corpus(RESUME_STREAM, QUICK, str(out))
        assert os.listdir(tmp_path) == ["report.jsonl"]

        monkeypatch.setattr(harness, "check_pair", real)
        flip_to_disagree(monkeypatch, lambda r: r.table == TZ2)
        report = run_corpus(RESUME_STREAM, QUICK, str(out), resume=True)
        assert report.status == "failed"
        assert os.listdir(tmp_path) == ["report.jsonl"]


def flip_to_disagree(monkeypatch, flips):
    """Make check_pair report Disagree on every pair for which flips(report)
    holds, as an oracle contradicting the criterion there would."""
    import absorb.harness as harness

    real = harness.check_pair

    def flipping(table, sub, bounds):
        report = real(table, sub, bounds)
        if flips(report):
            return dataclasses.replace(report, agreement=Agreement.DISAGREE)
        return report

    monkeypatch.setattr(harness, "check_pair", flipping)


class TestRunStatus:
    def test_conjectural_disagree_is_candidate(self, tmp_path, capsys, monkeypatch):
        flip_to_disagree(monkeypatch, lambda r: r.verdict.proof_status is CaseTag.CONJECTURAL)
        out = tmp_path / "report.jsonl"
        report = run_corpus([PROJ_KILL_T, MIN2, Z2], OracleBounds(), str(out))
        assert report.status == "counterexample-candidate"
        assert (report.tables, report.pairs) == (3, 10)
        assert report.agreements["Disagree"] == 5
        assert [c["fatal"] for c in report.counterexamples] == [False] * 5
        # the summary names each flagged pair's table, taken from its table record
        assert all(
            (c["table_id"], c["table"]) == (table_digest(PROJ_KILL_T), list(PROJ_KILL_T.entries))
            for c in report.counterexamples
        )

        lines = read_report(out)
        assert lines[-1]["status"] == "counterexample-candidate"
        flagged = [l for l in lines if l["type"] == "pair" and l["counterexample"]]
        assert len(flagged) == 5
        assert all(l["verdict"]["proof_status"] == "Conjectural" for l in flagged)
        assert all(not l["fatal"] and l["violations"] == [] for l in flagged)

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, table in (("a", PROJ_KILL_T), ("b", MIN2), ("c", Z2)):
            save_algebra(str(corpus / f"{name}.json"), table)
        capsys.readouterr()
        code = main(
            ["verify-conjecture", "--corpus", str(corpus), "--report", str(tmp_path / "cli.jsonl")]
        )
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "counterexample-candidate"
        assert doc["tables"] == 3

    def test_contradicted_absorbing_verdict_fails_and_aborts(self, tmp_path, monkeypatch):
        flip_to_disagree(monkeypatch, lambda r: r.verdict.absorbs)
        out = tmp_path / "report.jsonl"
        report = run_corpus([Z2, MIN2, PROJ_KILL_T], OracleBounds(), str(out))
        assert report.status == "failed"
        assert (report.tables, report.pairs) == (2, 2)
        assert report.counterexamples == [
            {"table_id": table_digest(MIN2), "table": list(MIN2.entries), "sub": [0], "fatal": True}
        ]

        lines = read_report(out)
        assert [l["type"] for l in lines] == [
            "header", "table", "pair", "table", "pair", "summary"
        ]
        table, fatal = lines[3:5]
        assert table["table"] == list(MIN2.entries) and fatal["sub"] == [0]
        assert fatal["counterexample"] and fatal["fatal"]
        assert fatal["violations"] == [
            "criterion absorbs but oracle found nothing within adequate bounds"
        ]
        assert lines[-1]["status"] == "failed"


# binary a-b mod 3, not associative
NONASSOC3 = NaryTable.from_function(2, 3, lambda a, b: (a - b) % 3)


class TestHelpers:
    """A stream longer than two chunks runs in forked helpers; the run must
    write what a serial run writes, also when cut short."""

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        """The pids of the helpers forked in a test; the run that forked
        them must have reaped them all."""
        pids = []
        fork = os.fork

        def recorded_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded_fork)
        yield pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.fixture
    def stream(self, binary3):
        tables = binary3 * 3
        # more than two chunks are left also when a run resumes after table 40
        assert len(tables) > 41 + 2 * absorb.harness.CORPUS_CHUNK_TABLES
        return tables

    def run(self, monkeypatch, forks, helpers, tables, path, **kwargs):
        """run_corpus with helpers forced on or off; returns (report or the
        exception it raised, report bytes, [helpers it forked])."""
        monkeypatch.setattr(absorb.harness, "_helper_count", lambda: helpers)
        before = len(forks)
        try:
            result = run_corpus(tables, QUICK, str(path), **kwargs)
        except Exception as exc:
            result = exc
        return result, path.read_bytes(), [len(forks) - before]

    def both(self, monkeypatch, forks, tmp_path, tables):
        serial = self.run(monkeypatch, forks, 0, tables, tmp_path / "serial.jsonl")
        forked = self.run(monkeypatch, forks, 2, tables, tmp_path / "forked.jsonl")
        assert serial[1] == forked[1]
        assert (serial[2], forked[2]) == ([0], [2])
        return serial[0], forked[0]

    def test_same_report_as_serial(self, tmp_path, monkeypatch, forks, stream):
        serial, forked = self.both(monkeypatch, forks, tmp_path, stream)
        assert (forked.status, forked.tables, forked.pairs) == ("consistent", 339, 3 * 465)
        serial.wall_time = forked.wall_time = 0.0
        assert forked == serial

    def test_fatal_pair_in_a_helper_chunk(self, tmp_path, monkeypatch, forks, stream):
        # MIN2, a table of no other chunk, absorbs on {0}
        flip_to_disagree(monkeypatch, lambda r: r.table == MIN2 and r.verdict.absorbs)
        tables = stream[:310] + [MIN2] + stream[310:]
        serial, forked = self.both(monkeypatch, forks, tmp_path, tables)
        assert (forked.status, forked.tables, forked.counterexamples[0]["sub"]) == ("failed", 311, [0])
        serial.wall_time = forked.wall_time = 0.0
        assert forked == serial

    def test_exception_in_a_helper_chunk(self, tmp_path, monkeypatch, forks, stream):
        # a non-associative table in a chunk raises after the lines before it
        tables = stream[:310] + [NONASSOC3] + stream[310:]
        serial, forked = self.both(monkeypatch, forks, tmp_path, tables)
        assert type(serial) is type(forked) is NotAssociative
        assert str(forked) == str(serial)
        assert (tmp_path / "forked.jsonl").read_bytes().count(b'"type":"table"') == 310

    @pytest.mark.parametrize("resume", [False, True])
    def test_a_stream_that_raises_leaves_the_report_as_it_was(
        self, tmp_path, monkeypatch, forks, stream, resume
    ):
        def broken():
            yield from stream[:310]
            raise ValueError("the stream broke")

        monkeypatch.setattr(absorb.harness, "_helper_count", lambda: 2)
        out = tmp_path / "report.jsonl"
        with pytest.raises(ValueError, match="the stream broke"):
            run_corpus(broken(), QUICK, str(out), resume=resume)
        assert not out.exists()
        run_corpus(stream[:200], QUICK, str(out))
        old = out.read_bytes()
        with pytest.raises(ValueError, match="the stream broke"):
            run_corpus(broken(), QUICK, str(out), resume=resume)
        assert out.read_bytes() == old
        assert len(forks) == 2  # by the run of 200 tables only

    def test_resume_of_a_report_cut_in_a_helper_chunk(self, tmp_path, monkeypatch, forks, stream):
        full, body, _ = self.run(monkeypatch, forks, 2, stream, tmp_path / "clean.jsonl")
        lines = body.splitlines(keepends=True)
        table_lines = [i for i, line in enumerate(lines) if line.startswith(b'{"arity"')]
        cut = len(b"".join(lines[: table_lines[40] + 1])) - 10  # inside table 40's record
        out = tmp_path / "cut.jsonl"
        out.write_bytes(body[:cut])
        resumed, data, seen = self.run(monkeypatch, forks, 2, stream, out, resume=True)
        assert data == body and seen == [2]
        assert resumed.summary_record() == full.summary_record()

    def test_a_helper_that_dies(self, tmp_path, monkeypatch, forks, stream):
        # the helper handed the fourth chunk exits without sending it
        import absorb.helpers

        chunk = absorb.harness.CORPUS_CHUNK_TABLES
        doomed = stream[3 * chunk]
        assert all(stream[i * chunk] != doomed for i in (0, 1, 2, 4, 5))
        real = absorb.helpers._run_chunk

        def dying(tables, bounds, write):
            if tables[0] == doomed:
                os._exit(1)
            return real(tables, bounds, write)

        monkeypatch.setattr(absorb.helpers, "_run_chunk", dying)
        forked, body, _ = self.run(monkeypatch, forks, 2, stream, tmp_path / "forked.jsonl")
        assert type(forked) is RuntimeError
        assert str(forked) == "a corpus helper exited before sending its chunk"
        assert body.count(b'"type":"table"') == 3 * chunk
        _, serial, _ = self.run(monkeypatch, forks, 0, stream, tmp_path / "serial.jsonl")
        assert serial.startswith(body)

    def test_a_helper_whose_exception_does_not_pickle(self, tmp_path, monkeypatch, forks, stream):
        # the fourth chunk's exception holds a lock, which pickle refuses
        # after it has sent the chunk's lines: the message is cut off there
        import absorb.helpers

        chunk = absorb.harness.CORPUS_CHUNK_TABLES
        doomed = stream[3 * chunk]
        real = absorb.helpers._run_chunk

        def raising(tables, bounds, write):
            tally = real(tables, bounds, write)
            if tables[0] == doomed:
                raise ValueError(threading.Lock())
            return tally

        monkeypatch.setattr(absorb.helpers, "_run_chunk", raising)
        forked, body, _ = self.run(monkeypatch, forks, 2, stream, tmp_path / "forked.jsonl")
        assert type(forked) is RuntimeError
        assert str(forked) == "a corpus helper exited before sending its chunk"
        assert body.count(b'"type":"table"') == 3 * chunk
        _, serial, _ = self.run(monkeypatch, forks, 0, stream, tmp_path / "serial.jsonl")
        assert serial.startswith(body)

    def test_no_more_helpers_than_chunks(self, tmp_path, monkeypatch, forks, binary3):
        # 226 tables are four chunks: eight usable CPUs fork four helpers
        monkeypatch.setattr(absorb.harness, "_helper_count", lambda: 8)
        report = run_corpus(binary3 * 2, QUICK, str(tmp_path / "report.jsonl"))
        assert (len(forks), report.tables) == (4, 226)

    def test_no_helpers_on_one_cpu_without_fork_or_beside_other_threads(self, monkeypatch):
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert absorb.harness._helper_count() == (cpus if cpus > 1 else 0)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert absorb.harness._helper_count() == 0
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert absorb.harness._helper_count() == 0

    def test_interrupt_in_the_parent_stops_the_helpers(self, tmp_path, monkeypatch, forks, stream):
        # Ctrl-C reaches the parent once it has merged the third chunk
        monkeypatch.setattr(absorb.harness, "_helper_count", lambda: 2)
        merge = CorpusReport.merge
        merged = []

        def interrupting(report, other):
            merge(report, other)
            merged.append(other)
            if len(merged) == 3:
                os.kill(os.getpid(), signal.SIGINT)

        monkeypatch.setattr(CorpusReport, "merge", interrupting)
        out = tmp_path / "report.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_corpus(stream, QUICK, str(out))
        assert len(forks) == 2
        # what was written is a prefix of the full report, so it resumes
        monkeypatch.setattr(absorb.harness, "_helper_count", lambda: 0)
        clean = tmp_path / "clean.jsonl"
        run_corpus(stream, QUICK, str(clean))
        assert clean.read_bytes().startswith(out.read_bytes())


def assert_lines_from_builder(path, bounds):
    """Each pair line of the report at path is to_record of check_pair on
    its table and subset, encoded whole; returns the number of pair lines."""
    pairs = 0
    for line in path.read_bytes().splitlines(keepends=True):
        record = json.loads(line)
        if record["type"] == "table":
            table = NaryTable(record["arity"], record["size"], tuple(record["table"]))
        elif record["type"] == "pair":
            sub = Subuniverse(table.size, frozenset(record["sub"]))
            pair = absorb.harness.check_pair(table, sub, bounds)
            assert line == absorb.harness._dump(pair.to_record()), (table, sub)
            pairs += 1
    return pairs


class TestPairRecordMemo:
    @pytest.mark.parametrize("memo_max", [absorb.harness.PAIR_RECORD_MEMO_MAX, 1])
    @pytest.mark.parametrize("spec", list(REPORT_BODY_SHA256))
    def test_pair_lines_are_the_builders(self, tmp_path, monkeypatch, spec, memo_max):
        monkeypatch.setattr(absorb.harness, "PAIR_RECORD_MEMO_MAX", memo_max)
        path = tmp_path / "report.jsonl"
        report = run_corpus(enumerate_tables(spec), OracleBounds(), str(path))
        assert assert_lines_from_builder(path, OracleBounds()) == report.pairs > 0

    @pytest.mark.parametrize("memo_max", [absorb.harness.PAIR_RECORD_MEMO_MAX, 1])
    def test_flagged_pair_lines_are_the_builders(self, tmp_path, monkeypatch, binary3, memo_max):
        # conjectural pairs flipped to Disagree are candidates; the first
        # binary pair on {1, 2} flipped to Disagree is fatal and ends the run
        monkeypatch.setattr(absorb.harness, "PAIR_RECORD_MEMO_MAX", memo_max)
        flip_to_disagree(
            monkeypatch,
            lambda r: r.verdict.proof_status is CaseTag.CONJECTURAL
            or (r.table.arity == 2 and r.sub.mask == 6),
        )
        path = tmp_path / "report.jsonl"
        report = run_corpus([PROJ_KILL_T] + binary3[:14], QUICK, str(path))
        assert report.status == "failed"
        assert [c["fatal"] for c in report.counterexamples] == [False] * 5 + [True]
        assert assert_lines_from_builder(path, QUICK) == report.pairs == 7 + 47

    def test_memo_stays_within_its_cap(self, monkeypatch, binary3):
        monkeypatch.setattr(absorb.harness, "PAIR_RECORD_MEMO_MAX", 3)
        monkeypatch.setattr(absorb.harness, "_pair_lines", {})
        memo = absorb.harness._pair_lines
        sizes = [len(memo) for _ in absorb.harness._records(binary3, QUICK)]
        assert max(sizes) == 3
        assert 1 in sizes[sizes.index(3) :]  # full, then emptied

    def test_memo_serves_the_next_run(self, tmp_path, monkeypatch, binary3):
        # binary3 is two chunks, so both runs are in-process: the second
        # encodes no pair record, and writes the first run's bytes
        monkeypatch.setattr(absorb.harness, "_pair_lines", {})
        dump = absorb.harness._dump
        encoded = collections.Counter()

        def counting(record):
            encoded[record["type"]] += 1
            return dump(record)

        monkeypatch.setattr(absorb.harness, "_dump", counting)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        report = run_corpus(binary3, QUICK, str(first))
        assert report.status == "consistent" and encoded["pair"] > 0
        encoded.clear()
        run_corpus(binary3, QUICK, str(second))
        assert (encoded["table"], encoded["pair"]) == (len(binary3), 0)
        assert second.read_bytes() == first.read_bytes()


class TestReportPins:
    def test_dump_is_json_dumps(self):
        # _dump reuses one encoder; its bytes must stay those of json.dumps
        pairs = [
            check_pair(MIN2, SUB0),
            check_pair(NULL2, SUB0),
            check_pair(Z2, SUB0),
            check_pair(Z2, SUB0, OracleBounds(max_len=2)),
        ]
        assert {p.oracle.stop for p in pairs} == set(OracleStop)
        report = CorpusReport()
        records = [
            record
            for p in pairs
            for record in (table_record(p.table), p.to_record())
        ]
        for record in records:
            report.add_record(record)
        assert (report.tables, report.pairs) == (4, 4)
        records.append(absorb.harness._header_record(OracleBounds(), {"note": "r\u00e9sum\u00e9"}))
        records.append(report.summary_record())
        for record in records:
            expected = json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            assert absorb.harness._dump(record) == expected

    def test_report_bytes_pinned(self, tmp_path, counted_binary3_run):
        reports = {GenSpec(3, 2): counted_binary3_run[1]}
        for i, spec in enumerate(REPORT_BODY_SHA256):
            if spec not in reports:
                path = tmp_path / f"report_{i}.jsonl"
                run_corpus(enumerate_tables(spec), OracleBounds(), str(path))
                reports[spec] = path.read_bytes()
        power = [json.loads(line) for line in reports[GenSpec(3, 3, mode="power")].splitlines()]
        pairs = [r for r in power if r["type"] == "pair"]
        assert sum(r["oracle"]["words_examined"] for r in pairs) == 10_833
        assert sum(r["oracle"]["found"] for r in pairs) == 57
        stops = collections.Counter(r["oracle"]["stop"] for r in pairs)
        assert stops == {"Found": 57, "NoIdempotentTerm": 243, "ClosureExhausted": 207}
        # every conjectural pair is settled by the missing exponent
        conjectural = [r for r in pairs if r["verdict"]["proof_status"] == "Conjectural"]
        assert len(conjectural) == 48
        assert all(r["oracle"]["stop"] == "NoIdempotentTerm" for r in conjectural)
        assert all(r["agreement"] == "Agree" for r in pairs)
        for key, data in reports.items():
            header, body = data.split(b"\n", 1)
            assert json.loads(header)["format"] == "absorb-report/3"
            assert json.loads(header)["defaults"] == {
                "max_vars": 3,
                "max_len": None,
                "proper_only": True,
                "generator": "mt19937",
            }
            assert hashlib.sha256(body).hexdigest() == REPORT_BODY_SHA256[key], key
            # nothing the format-2 records held is lost
            assert hashlib.sha256(format2_body(body)).hexdigest() == FORMAT2_BODY_SHA256[key], key

    def test_sweep_binary4_report_pinned(self, tmp_path, binary4):
        path = tmp_path / "report.jsonl"
        run_corpus(binary4, QUICK, str(path))
        body = path.read_bytes().split(b"\n", 1)[1]
        assert (len(body), hashlib.sha256(body).hexdigest()) == SWEEP_BINARY4_BODY

    def test_table_facts_computed_once_per_table(self, counted_binary3_run):
        report, _data, counts = counted_binary3_run
        assert (report.tables, report.pairs) == (113, 465)
        assert counts == {**dict.fromkeys(TABLE_FACT_FUNCTIONS, 113), "compute_exponent": 226}
