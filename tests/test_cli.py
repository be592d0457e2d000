import json
import os

import pytest

import absorb.cli
import absorb.generate
from absorb.cli import main
from absorb.fileio import (
    load_algebra,
    load_subuniverse,
    read_corpus_dir,
    save_algebra,
    save_subuniverse,
    write_corpus_dir,
)
from absorb import GenSpec, NaryTable, Subuniverse, check_pair
from conftest import MIN2, SUB0, TZ2, Z2


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, table in (("min", MIN2), ("z2", Z2)):
        p = tmp_path / f"{name}.json"
        save_algebra(str(p), table)
        paths[name] = str(p)
    sub = tmp_path / "sub0.json"
    save_subuniverse(str(sub), Subuniverse(2, frozenset({0})))
    paths["sub0"] = str(sub)
    full = tmp_path / "full.json"
    save_subuniverse(str(full), Subuniverse(2, frozenset({0, 1})))
    paths["full"] = str(full)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestFileFormats:
    def test_algebra_roundtrip(self, tmp_path):
        p = tmp_path / "t.json"
        save_algebra(str(p), TZ2, labels=["e", "a"])
        table, labels = load_algebra(str(p))
        assert table == TZ2
        assert labels == ["e", "a"]

    def test_algebra_validation(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"arity": 2, "size": 2, "table": [0, 0, 0]}')
        with pytest.raises(ValueError):
            load_algebra(str(p))
        p.write_text('{"arity": 2, "size": 2}')
        with pytest.raises(ValueError):
            load_algebra(str(p))
        for shape in ('"arity": 2, "size": true', '"arity": "2", "size": 1'):
            p.write_text('{%s, "table": [0]}' % shape)
            with pytest.raises(ValueError, match="must be an int"):
                load_algebra(str(p))

    def test_subuniverse_roundtrip(self, tmp_path):
        p = tmp_path / "s.json"
        save_subuniverse(str(p), Subuniverse(3, frozenset({2, 0})))
        assert load_subuniverse(str(p), 3).elements == (0, 2)

    def test_files_hold_the_bytes_of_json_dump(self, tmp_path):
        # each file is written in one piece, as json.dump would stream it
        def dumped(doc):
            p = tmp_path / "dumped.json"
            with open(p, "w", encoding="utf-8") as f:
                json.dump(doc, f, sort_keys=True)
                f.write("\n")
            return p.read_bytes()

        p = tmp_path / "t.json"
        save_algebra(str(p), TZ2, labels=["e", "a"])
        doc = {"arity": 3, "size": 2, "table": list(TZ2.entries), "labels": ["e", "a"]}
        assert p.read_bytes() == dumped(doc)
        save_algebra(str(p), MIN2)
        assert p.read_bytes() == dumped({"arity": 2, "size": 2, "table": [0, 0, 0, 1]})
        save_subuniverse(str(p), Subuniverse(3, frozenset({2, 0})))
        assert p.read_bytes() == dumped({"elements": [0, 2]})

    def test_corpus_dir_roundtrip(self, tmp_path):
        spec = GenSpec(2, 2)
        meta = write_corpus_dir(str(tmp_path / "c"), spec, [MIN2, Z2])
        assert meta["count"] == 2
        tables, read_meta = read_corpus_dir(str(tmp_path / "c"))
        assert [t.entries for t in tables] == [MIN2.entries, Z2.entries]
        assert read_meta["genspec"]["size"] == 2

    def test_corpus_dir_without_meta_reads_sorted_json_files(self, tmp_path):
        corpus = tmp_path / "c"
        write_corpus_dir(str(corpus), GenSpec(2, 2), [MIN2, Z2])
        (corpus / "corpus.json").unlink()
        save_algebra(str(corpus / "a.json"), TZ2)
        (corpus / "notes.txt").write_text("not a table")
        tables, meta = read_corpus_dir(str(corpus))
        assert [t.entries for t in tables] == [TZ2.entries, MIN2.entries, Z2.entries]
        assert meta == {}

    @pytest.mark.parametrize("files", [[1], "ab", None, ["../c/table_000000.json"]])
    def test_corpus_files_must_be_a_list_of_names(self, capsys, tmp_path, files):
        corpus = tmp_path / "c"
        write_corpus_dir(str(corpus), GenSpec(2, 2), [MIN2])
        # "ab" would otherwise name the files "a" and "b", and a name with a
        # directory part could reach files outside the corpus
        for name in ("a", "b"):
            save_algebra(str(corpus / name), MIN2)
        meta = json.loads((corpus / "corpus.json").read_text())
        meta["files"] = files
        (corpus / "corpus.json").write_text(json.dumps(meta))
        message = f"{corpus / 'corpus.json'}: 'files' must be a list of file names"
        with pytest.raises(ValueError, match="'files' must be a list of file names"):
            read_corpus_dir(str(corpus))
        capsys.readouterr()
        code = main(["verify-conjecture", "--corpus", str(corpus), "--report", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCheck:
    def test_both_methods_agree(self, capsys, files):
        code, doc = run(capsys, ["check", "--algebra", files["min"], "--sub", files["sub0"]])
        assert code == 0
        assert doc["theorem"]["absorbs"] is True
        assert doc["oracle"]["found"] is True
        assert doc["agreement"] == "Agree"

    def test_records_match_check_pair(self, capsys, files):
        for name, table in (("min", MIN2), ("z2", Z2)):
            _code, doc = run(capsys, ["check", "--algebra", files[name], "--sub", files["sub0"]])
            record = check_pair(table, SUB0).to_record()
            assert doc["theorem"] == record["verdict"]
            assert doc["oracle"] == record["oracle"]

    def test_theorem_only(self, capsys, files):
        code, doc = run(
            capsys,
            ["check", "--algebra", files["z2"], "--sub", files["sub0"], "--method", "theorem"],
        )
        assert code == 0
        assert doc["theorem"]["absorbs"] is False
        assert doc["theorem"]["failed_condition"] == "ProductsEscapeB"
        assert "oracle" not in doc

    def test_oracle_only_with_bounds(self, capsys, files):
        code, doc = run(
            capsys,
            [
                "check",
                "--algebra", files["min"],
                "--sub", files["sub0"],
                "--method", "oracle",
                "--max-vars", "2",
                "--max-len", "4",
            ],
        )
        assert code == 0
        assert doc["oracle"]["witness"]["display"] == "xy"
        assert "theorem" not in doc

    def test_full_carrier_is_trivially_absorbing(self, capsys, files):
        code, doc = run(capsys, ["check", "--algebra", files["min"], "--sub", files["full"]])
        assert code == 0
        assert doc["absorbs"] is True
        assert doc["trivial"] is True

    @pytest.mark.parametrize("method", ["theorem", "oracle", "both"])
    def test_nonassociative_table_rejected(self, capsys, files, tmp_path, method):
        bad = tmp_path / "bad.json"
        save_algebra(str(bad), NaryTable(2, 2, (0, 0, 1, 0)))
        for sub in (files["sub0"], files["full"]):
            capsys.readouterr()
            assert main(["check", "--algebra", str(bad), "--sub", sub, "--method", method]) == 1
            assert capsys.readouterr() == ("", "error: table is not associative\n")

    def test_counterexample_exits_2(self, capsys, files, monkeypatch):
        # a rejected witness makes the pair fatal, though both routes agree
        import absorb.harness

        monkeypatch.setattr(absorb.harness, "verify_witness", lambda *_: False)
        assert main(["check", "--algebra", files["min"], "--sub", files["sub0"]]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["agreement"] == "Agree"
        assert err == (
            "violation: cond3 with exponent but constructed witness rejected\n"
            "violation: absorbing verdict carries a rejected witness\n"
        )

    def test_oracle_over_budget_exits_1(self, capsys, files):
        argv = ["check", "--algebra", files["min"], "--sub", files["sub0"]]
        assert main(argv + ["--method", "oracle", "--max-vars", str(10**9)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "closure-plan offsets exceed the cap of 4194304" in err

    def test_missing_file_is_operational_error(self, capsys, files):
        code = main(["check", "--algebra", "nope.json", "--sub", files["sub0"]])
        assert code == 1

    @pytest.mark.parametrize("document", ['"arity size table"', '["elements"]', "3"])
    def test_non_object_document_is_rejected(self, capsys, files, tmp_path, document):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        for argv in (
            ["check", "--algebra", str(bad), "--sub", files["sub0"]],
            ["check", "--algebra", files["min"], "--sub", str(bad)],
        ):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {bad}: the document must be a JSON object\n"
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_algebra(str(bad))
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_subuniverse(str(bad), 2)
        corpus = tmp_path / "corpus"
        write_corpus_dir(str(corpus), GenSpec(2, 2), [MIN2])
        (corpus / "corpus.json").write_text(document)
        with pytest.raises(ValueError, match="must be a JSON object"):
            read_corpus_dir(str(corpus))
        code = main(["verify-conjecture", "--corpus", str(corpus), "--report", str(tmp_path / "r")])
        assert code == 1


class TestExponent:
    def test_z2(self, capsys, files):
        code, doc = run(capsys, ["exponent", "--algebra", files["z2"]])
        assert code == 0
        assert doc["exponent"] == 3
        assert {"element": 1, "tail": 0, "period": 2} in doc["profiles"]


class TestEnumerateAndVerify:
    def test_exhaustive_then_verify(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus")
        code, doc = run(
            capsys, ["enumerate", "--size", "2", "--arity", "2", "--out", corpus]
        )
        assert code == 0
        assert doc["count"] == 8
        assert os.path.exists(os.path.join(corpus, "corpus.json"))

        report = str(tmp_path / "report.jsonl")
        code, doc = run(
            capsys, ["verify-conjecture", "--corpus", corpus, "--report", report]
        )
        assert code == 0
        assert doc["status"] == "consistent"
        assert doc["pairs"] == 12
        assert doc["agreements"]["Disagree"] == 0
        with open(report) as f:
            header = json.loads(f.readline())
        assert header["meta"]["corpus"]["count"] == 8

    def test_resume_a_report_cut_in_half(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus")
        assert main(["enumerate", "--size", "2", "--arity", "3", "--out", corpus]) == 0
        report = tmp_path / "report.jsonl"
        argv = ["verify-conjecture", "--corpus", corpus, "--report", str(report)]
        capsys.readouterr()
        clean = (main(argv), capsys.readouterr().out, report.read_bytes())
        report.write_bytes(clean[2][: len(clean[2]) // 2])
        resumed = (main(argv + ["--resume"]), capsys.readouterr().out, report.read_bytes())
        assert resumed == clean

    @pytest.mark.parametrize(
        "edit, number",
        [
            (lambda lines: lines.__setitem__(1, b"[]\n"), 2),
            (lambda lines: lines.__setitem__(1, b'{"type": "pair"}\n'), 2),
            (lambda lines: lines.__setitem__(1, b"xx\n"), 2),
            (lambda lines: lines.insert(-1, b"7\n"), 22),  # after the last pair
            (lambda lines: lines.__setitem__(2, lines[2].replace(b'"agreement"', b'"agreed"')), 3),
        ],
        ids=["array", "bare-pair", "not-json", "trailing-number", "no-agreement"],
    )
    def test_resume_refuses_a_malformed_line(self, capsys, tmp_path, edit, number):
        corpus = str(tmp_path / "corpus")
        assert main(["enumerate", "--size", "2", "--arity", "3", "--out", corpus]) == 0
        report = tmp_path / "report.jsonl"
        argv = ["verify-conjecture", "--corpus", corpus, "--report", str(report)]
        assert main(argv) == 0
        lines = report.read_bytes().splitlines(keepends=True)
        assert len(lines) == 22 and b'"agreement"' in lines[2]
        edit(lines)
        report.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: report {report} line {number}: ")
        assert report.read_bytes() == b"".join(lines)

    def test_short_random_corpus_is_an_error(self, capsys, tmp_path, monkeypatch):
        # each 4-ary draw of size 3 reads 3**7 tuples: 5 draws, none associative
        monkeypatch.setattr(absorb.generate, "MAX_SAMPLE_TUPLES", 6 * 3**7 - 1)
        out = tmp_path / "short"
        argv = ["enumerate", "--size", "3", "--arity", "4", "--mode", "random",
                "--count", "30", "--seed", "4", "--dedup", "--out", str(out)]
        assert main(argv) == 1
        stdout, stderr = capsys.readouterr()
        assert json.loads(stdout) == {"count": 0, "out": str(out)}
        assert stderr == (
            "error: sampling budget of 13121 tuples exhausted after 5 draws and 0 of 30 tables\n"
        )
        tables, meta = read_corpus_dir(str(out))  # the corpus is still written
        assert (tables, meta["count"]) == ([], 0)

    def test_random_mode_reproducible(self, capsys, tmp_path):
        argv = ["enumerate", "--size", "3", "--arity", "3", "--commutative",
                "--mode", "random", "--count", "5", "--seed", "11"]
        code, doc = run(capsys, argv + ["--out", str(tmp_path / "a")])
        assert code == 0 and doc["count"] == 5
        code, doc = run(capsys, argv + ["--out", str(tmp_path / "b")])
        assert code == 0
        for i in range(5):
            name = f"table_{i:06d}.json"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_power_mode(self, capsys, tmp_path):
        code, doc = run(
            capsys,
            ["enumerate", "--size", "2", "--arity", "3", "--mode", "power",
             "--out", str(tmp_path / "p")],
        )
        assert code == 0
        assert doc["count"] == 8

    def test_defaults_come_from_genspec(self, capsys, monkeypatch):
        specs = []

        def capture(out, spec, tables):
            specs.append(spec)
            return {"count": 0}

        monkeypatch.setattr(absorb.cli, "write_corpus_dir", capture)
        code, _doc = run(capsys, ["enumerate", "--size", "2", "--arity", "2", "--out", "X"])
        assert code == 0
        assert specs == [GenSpec(2, 2)]

    def test_budget_error_exit(self, capsys, tmp_path):
        code = main(["enumerate", "--size", "3", "--arity", "3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr() == ("", "error: 27 free cells exceed the cap of 16\n")
        assert not (tmp_path / "x").exists()  # the stream failed before its first table

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_huge_arity_exits_1_at_once(self, capsys, tmp_path, mode):
        out = tmp_path / "x"
        shape = ["--size", "3", "--arity", "100000000", "--mode", mode, "--count", "1"]
        assert main(["enumerate", *shape, "--out", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.count("\n") == 1 and len(stderr) < 200
        assert stderr.startswith("error: 3^") and " exceed the cap of " in stderr
        assert not out.exists()

    def test_power_mode_refuses_tables_check_would_refuse(self, capsys, tmp_path):
        # each 13-ary power algebra of a 2-element table has 2^25 tuples per
        # associativity check, past the cap verify-conjecture would stop at
        out = tmp_path / "x"
        argv = ["enumerate", "--size", "2", "--arity", "13", "--mode", "power", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: 2^25 tuples per associativity check exceed the cap of 4194304\n"
        )
        assert not out.exists()


class TestPowerAlgebra:
    def test_derive_and_save(self, capsys, files, tmp_path):
        out = str(tmp_path / "cube.json")
        code, doc = run(
            capsys, ["power-algebra", "--algebra", files["z2"], "--k", "3", "--out", out]
        )
        assert code == 0
        table, _ = load_algebra(out)
        assert table.entries == TZ2.entries

    def test_invalid_target_arity(self, files, tmp_path):
        code = main(
            ["power-algebra", "--algebra", files["z2"], "--k", "1",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_target_arity_not_1_mod_n_minus_1(self, capsys, tmp_path):
        # --k 4 passes the k > 1 check and stops at the length rule
        ternary = tmp_path / "tz2.json"
        save_algebra(str(ternary), TZ2)
        out = tmp_path / "x.json"
        code = main(["power-algebra", "--algebra", str(ternary), "--k", "4", "--out", str(out)])
        assert code == 1
        assert "length 4 is not 1 mod 2" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_exits_1(self, capsys, tmp_path):
        min3 = tmp_path / "min3.json"
        save_algebra(str(min3), NaryTable.from_function(2, 3, min))
        out = tmp_path / "x.json"
        code = main(["power-algebra", "--algebra", str(min3), "--k", "17", "--out", str(out)])
        assert code == 1
        assert "exceed the cap" in capsys.readouterr().err
        assert not out.exists()

    def test_refuses_a_table_check_would_refuse(self, capsys, files, tmp_path):
        out = tmp_path / "x.json"
        code = main(["power-algebra", "--algebra", files["min"], "--k", "13", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: 2^25 tuples per associativity check exceed the cap of 4194304\n"
        )
        assert not out.exists()

    def test_nonassociative_input_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        save_algebra(str(bad), NaryTable(2, 2, (0, 1, 0, 0)))
        code = main(
            ["power-algebra", "--algebra", str(bad), "--k", "3",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 1
