import collections
import dataclasses
import hashlib
import json
import os
import sys
import time

import pytest

import absorb.core
import absorb.harness
from absorb import (
    Agreement,
    CaseTag,
    CorpusReport,
    GenSpec,
    NaryTable,
    OracleBounds,
    OracleStop,
    PreconditionsUnmet,
    Subuniverse,
    check_pair,
    derive_power_algebra,
    derived_fact_probes,
    enumerate_pairs,
    run_corpus,
    table_digest,
)
from absorb.cli import main
from absorb.fileio import save_algebra
from conftest import LEFT_ZERO, MIN2, NULL2, SUB0, SUB01_OF3, TMIN2, TMIN3, TZ2, Z2
from test_core import ASSOC_SMALL
from test_criteria import PROJ_KILL_T

FACT_NAMES = ["abbab", "babba", "aab", "baa", "aabaa", "bab", "abb", "bba"]

# sha256 of each OracleBounds() report with its header line dropped, since
# the header carries the package version.  The ternary power corpus is the
# one whose oracle closes the most three-variable terms.
REPORT_BODY_SHA256 = {
    GenSpec(2, 2): "56bd9a942e6c6bbd0b51a956e05261ab953d10df260c2b40c706bc79b3f1aa36",
    GenSpec(3, 2): "ad284b5b1f4d7656fe4c6b07f7dd94149472f3ab2adeea5aa140fa32b63cacbc",
    GenSpec(2, 3): "2beae4b5fa53af490e3cba9edc4c422651537d99c47b93897d9ee6139ac90ac5",
    GenSpec(3, 3, mode="power"): "efc34874f4fb2aa75acf7af77d8e37483918758e05fa5cf36ad326348ef91cc9",
}

TABLE_FACT_FUNCTIONS = ("is_associative", "table_digest", "is_commutative", "is_idempotent")
# table_facts and the oracle each compute the exponent once per table
COUNTED_FUNCTIONS = TABLE_FACT_FUNCTIONS + ("compute_exponent",)


def read_report(path):
    with open(path, "rb") as f:
        return [json.loads(line) for line in f]


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
        report = run_corpus(GenSpec(3, 2), OracleBounds(), str(path))
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

    def test_record_is_self_contained(self):
        record = check_pair(MIN2, SUB0, OracleBounds()).to_record()
        assert record["table"] == list(MIN2.entries)
        assert record["sub"] == [0]
        assert record["verdict"]["witness"]["display"] == "xy"
        json.dumps(record)  # serializable

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

    def test_no_proved_violations_on_small_corpus(self):
        for table, sub in enumerate_pairs(ASSOC_SMALL):
            report = check_pair(table, sub, OracleBounds())
            assert report.violations == ()


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
        report = run_corpus(GenSpec(2, 2), OracleBounds(), str(out))
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
        run_corpus(GenSpec(2, 2), OracleBounds(), str(a))
        run_corpus(GenSpec(2, 2), OracleBounds(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_removed_after_completion(self, tmp_path):
        out = tmp_path / "report.jsonl"
        run_corpus(GenSpec(2, 2), OracleBounds(), str(out))
        assert not (tmp_path / "report.jsonl.ckpt").exists()

    def test_resume_rejects_mismatched_parameters(self, tmp_path, monkeypatch):
        out = tmp_path / "report.jsonl"
        ckpt = tmp_path / "run.ckpt"
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
            run_corpus(GenSpec(2, 2), OracleBounds(), str(out), resume=str(ckpt))
        monkeypatch.setattr(harness, "check_pair", real)
        assert ckpt.exists()
        with pytest.raises(ValueError):
            run_corpus(GenSpec(2, 2), OracleBounds(max_vars=2), str(out), resume=str(ckpt))


    def test_resume_rejects_a_different_table_stream(self, tmp_path, monkeypatch, binary2, binary3):
        import absorb.harness as harness

        out = tmp_path / "report.jsonl"
        ckpt = tmp_path / "run.ckpt"
        real = harness.enumerate_subuniverses
        calls = 0

        def killer(table, proper_only):
            nonlocal calls
            calls += 1
            if calls > 5:
                raise KeyboardInterrupt
            return real(table, proper_only)

        monkeypatch.setattr(harness, "enumerate_subuniverses", killer)
        with pytest.raises(KeyboardInterrupt):
            run_corpus(binary3, OracleBounds(), str(out), resume=str(ckpt))
        monkeypatch.setattr(harness, "enumerate_subuniverses", real)
        state = json.loads(ckpt.read_bytes())
        assert state["tables_done"] == 5
        written = out.read_bytes()

        # The first table relabeled: same table_digest, different raw entries.
        swap = (1, 0, 2)
        relabeled = NaryTable.from_function(
            2, 3, lambda a, b: swap[binary3[0].apply(swap[a], swap[b])]
        )
        assert relabeled != binary3[0]
        assert table_digest(relabeled) == table_digest(binary3[0])
        for tables in (binary2, [relabeled] + binary3[1:]):
            with pytest.raises(ValueError, match="table stream"):
                run_corpus(tables, OracleBounds(), str(out), resume=str(ckpt))
        del state["tables_sha256"]
        old_ckpt = tmp_path / "old.ckpt"
        old_ckpt.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="table stream"):
            run_corpus(binary3, OracleBounds(), str(out), resume=str(old_ckpt))
        assert out.read_bytes() == written

        # A stream that starts with the same five tables still resumes.
        resumed = run_corpus(binary3[:8], OracleBounds(), str(out), resume=str(ckpt))
        clean = tmp_path / "clean.jsonl"
        run_corpus(binary3[:8], OracleBounds(), str(clean))
        assert (resumed.status, resumed.tables) == ("consistent", 8)
        assert out.read_bytes() == clean.read_bytes()


QUICK = OracleBounds(max_vars=2, max_len=2)


def record_checkpoints(monkeypatch, step, report):
    """Advance time.perf_counter by step on each call and record every
    checkpoint state run_corpus writes, with the report's size on disk then."""
    import absorb.harness as harness

    clock = {"now": 0.0}

    def fake_perf_counter():
        clock["now"] += step
        return clock["now"]

    written = []
    real = harness._write_checkpoint

    def recording(path, out, state):
        real(path, out, state)
        written.append((dict(state), os.path.getsize(report)))

    monkeypatch.setattr(time, "perf_counter", fake_perf_counter)
    monkeypatch.setattr(harness, "_write_checkpoint", recording)
    return written


class TestCheckpointThrottle:
    def test_fewer_checkpoints_than_tables(self, tmp_path, monkeypatch, binary3):
        out = tmp_path / "report.jsonl"
        written = record_checkpoints(monkeypatch, step=0.3, report=out)
        report = run_corpus(binary3, QUICK, str(out))
        assert report.tables == len(binary3) == 113
        assert 0 < len(written) < report.tables
        done = [state["tables_done"] for state, _ in written]
        assert done == sorted(set(done))
        body = out.read_bytes()
        for state, on_disk in written:
            assert body[state["report_bytes"] - 1 : state["report_bytes"]] == b"\n"
            assert on_disk >= state["report_bytes"]  # flushed with the checkpoint

    def test_exception_in_table_6_checkpoints_table_5(self, tmp_path, monkeypatch, binary3):
        import absorb.harness as harness

        out = tmp_path / "report.jsonl"
        ckpt = tmp_path / "run.ckpt"
        written = record_checkpoints(monkeypatch, step=0.0, report=out)
        real = harness.enumerate_subuniverses
        calls = 0

        def killer(table, proper_only):
            nonlocal calls
            calls += 1
            if calls == 6:
                raise RuntimeError("table 6")
            return real(table, proper_only)

        monkeypatch.setattr(harness, "enumerate_subuniverses", killer)
        with pytest.raises(RuntimeError, match="table 6"):
            run_corpus(binary3, QUICK, str(out), resume=str(ckpt))
        assert [state["tables_done"] for state, _ in written] == [5]
        state = json.loads(ckpt.read_bytes())
        assert state["tables_done"] == 5
        assert state["report_bytes"] == len(out.read_bytes())

    def test_hard_kill_resumes_byte_identically(self, tmp_path, monkeypatch, binary3):
        """A SIGKILL leaves a checkpoint older than the report's end and the
        report cut inside a record of a later table."""
        clean = tmp_path / "clean.jsonl"
        written = record_checkpoints(monkeypatch, step=0.3, report=clean)
        run_corpus(binary3, QUICK, str(clean))
        monkeypatch.undo()
        body = clean.read_bytes()
        (state, _), (later, _) = written[1], written[3]
        cut = later["report_bytes"] + 40
        assert body[later["report_bytes"] : cut].count(b"\n") == 0
        assert state["report_bytes"] < later["report_bytes"] < cut

        killed = tmp_path / "killed.jsonl"
        ckpt = tmp_path / "killed.ckpt"
        killed.write_bytes(body[:cut])
        ckpt.write_text(json.dumps(state))
        resumed = run_corpus(binary3, QUICK, str(killed), resume=str(ckpt))
        assert (resumed.status, resumed.tables) == ("consistent", len(binary3))
        assert killed.read_bytes() == body
        assert not ckpt.exists()


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

        lines = read_report(out)
        assert lines[-1]["status"] == "counterexample-candidate"
        flagged = [l for l in lines if l["type"] == "pair" and l["counterexample"]]
        assert len(flagged) == 5
        assert all(l["case"] == "Conjectural" for l in flagged)
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
        assert [c["fatal"] for c in report.counterexamples] == [True]

        lines = read_report(out)
        assert [l["type"] for l in lines] == ["header", "pair", "pair", "summary"]
        fatal = lines[2]
        assert fatal["table"] == list(MIN2.entries) and fatal["sub"] == [0]
        assert fatal["counterexample"] and fatal["fatal"]
        assert fatal["violations"] == [
            "criterion absorbs but oracle found nothing within adequate bounds"
        ]
        assert lines[-1]["status"] == "failed"
        assert not (tmp_path / "report.jsonl.ckpt").exists()


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
        report = CorpusReport(tables=4)
        records = [p.to_record() for p in pairs]
        for record in records:
            report.add_record(record)
        source = {"kind": "genspec", **GenSpec(2, 2).to_dict()}
        records.append(absorb.harness._header_record(source, OracleBounds(), {"note": "r\u00e9sum\u00e9"}))
        records.append(report.summary_record())
        for record in records:
            expected = json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            assert absorb.harness._dump(record) == expected

    def test_report_bytes_pinned(self, tmp_path, counted_binary3_run):
        reports = {GenSpec(3, 2): counted_binary3_run[1]}
        for i, spec in enumerate(REPORT_BODY_SHA256):
            if spec not in reports:
                path = tmp_path / f"report_{i}.jsonl"
                run_corpus(spec, OracleBounds(), str(path))
                reports[spec] = path.read_bytes()
        power = [json.loads(line) for line in reports[GenSpec(3, 3, mode="power")].splitlines()]
        pairs = [r for r in power if r["type"] == "pair"]
        assert sum(r["oracle"]["words_examined"] for r in pairs) == 10_833
        assert sum(r["oracle"]["found"] for r in pairs) == 57
        stops = collections.Counter(r["oracle"]["stop"] for r in pairs)
        assert stops == {"Found": 57, "NoIdempotentTerm": 243, "ClosureExhausted": 207}
        # every conjectural pair is settled by the missing exponent
        conjectural = [r for r in pairs if r["case"] == "Conjectural"]
        assert len(conjectural) == 48
        assert all(r["oracle"]["stop"] == "NoIdempotentTerm" for r in conjectural)
        assert all(r["agreement"] == "Agree" for r in pairs)
        for key, data in reports.items():
            header, body = data.split(b"\n", 1)
            assert json.loads(header)["format"] == "absorb-report/2"
            assert json.loads(header)["defaults"] == {
                "max_vars": 3,
                "max_len": None,
                "proper_only": True,
                "generator": "mt19937",
            }
            assert hashlib.sha256(body).hexdigest() == REPORT_BODY_SHA256[key], key

    def test_table_facts_computed_once_per_table(self, counted_binary3_run):
        report, _data, counts = counted_binary3_run
        assert (report.tables, report.pairs) == (113, 465)
        assert counts == {**dict.fromkeys(TABLE_FACT_FUNCTIONS, 113), "compute_exponent": 226}
