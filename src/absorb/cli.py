"""Command-line interface.

Exit codes across subcommands: 0 = done / corpus consistent,
2 = disagreement or counterexample candidate found, 1 = operational error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from .core import compute_exponent, is_associative, power_profile, table_facts
from .criteria import decide_theorem, derive_power_algebra
from .errors import AbsorbError
from .fileio import load_algebra, load_subuniverse, read_corpus_dir, save_algebra, write_corpus_dir
from .generate import MODES, GenSpec, enumerate_tables
from .harness import (
    STATUS_CONSISTENT,
    Agreement,
    check_pair,
    oracle_record,
    run_corpus,
    verdict_record,
)
from .oracle import OracleBounds, search_absorbing_term
from .version import VERSION


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


def _cmd_check(args) -> int:
    table, _labels = load_algebra(args.algebra)
    sub = load_subuniverse(args.sub, table.size)
    facts = table_facts(table)
    doc: dict = {
        "algebra": {"arity": table.arity, "size": table.size, "id": facts.digest},
        "sub": list(sub.elements),
        "method": args.method,
    }
    if not sub.is_proper():
        # B = A absorbs via the one-letter term; the criterion is reserved
        # for proper subuniverses.
        doc["absorbs"] = True
        doc["trivial"] = True
        _emit(doc)
        return 0
    bounds = OracleBounds(max_vars=args.max_vars, max_len=args.max_len)
    code = 0
    if args.method == "theorem":
        doc["theorem"] = verdict_record(decide_theorem(facts, sub))
    elif args.method == "oracle":
        doc["oracle"] = oracle_record(search_absorbing_term(table, sub, bounds))
    else:
        pair = check_pair(facts, sub, bounds)
        doc["theorem"] = verdict_record(pair.verdict)
        doc["oracle"] = oracle_record(pair.oracle)
        doc["agreement"] = pair.agreement.value
        if pair.agreement is Agreement.DISAGREE:
            code = 2
    _emit(doc)
    return code


def _cmd_exponent(args) -> int:
    table, _labels = load_algebra(args.algebra)
    profiles = [power_profile(table, a) for a in range(table.size)]
    _emit(
        {
            "exponent": compute_exponent(table),
            "profiles": [asdict(p) for p in profiles],
        }
    )
    return 0


def _cmd_enumerate(args) -> int:
    spec = GenSpec(**{f.name: getattr(args, f.name) for f in fields(GenSpec)})
    meta = write_corpus_dir(args.out, spec, enumerate_tables(spec))
    _emit({"count": meta["count"], "out": args.out})
    return 0


def _cmd_verify_conjecture(args) -> int:
    tables, corpus_meta = read_corpus_dir(args.corpus)
    bounds = OracleBounds(max_vars=args.max_vars, max_len=args.max_len)
    meta = {
        "corpus": {
            key: corpus_meta[key]
            for key in ("format", "genspec", "generator", "count")
            if key in corpus_meta
        }
    }
    report = run_corpus(tables, bounds, args.report, resume=args.resume, meta=meta)
    _emit(
        {
            "status": report.status,
            "tables": report.tables,
            "pairs": report.pairs,
            "agreements": report.agreements,
            "counterexamples": report.counterexamples,
            "report": args.report,
        }
    )
    print(f"wall time: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.status == STATUS_CONSISTENT else 2


def _cmd_power_algebra(args) -> int:
    table, _labels = load_algebra(args.algebra)
    if not is_associative(table):
        raise AbsorbError("input table is not associative")
    derived = derive_power_algebra(table, args.k)
    save_algebra(args.out, derived)
    _emit({"arity": derived.arity, "size": derived.size, "out": args.out})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorb",
        description="Absorption in finite semigroups and n-ary semigroups: "
        "criterion, term oracle, enumeration, verification harness.",
    )
    parser.add_argument("--version", action="version", version=f"absorb {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide absorption for one algebra/subset pair")
    p.add_argument("--algebra", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--method", choices=("theorem", "oracle", "both"), default="both")
    p.add_argument("--max-vars", type=int, default=OracleBounds.max_vars)
    p.add_argument("--max-len", type=int, default=OracleBounds.max_len)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("exponent", help="minimal exponent k with a^k = a for all a")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("enumerate", help="generate a corpus directory of associative tables")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--idempotent", action="store_true")
    p.add_argument("--commutative", action="store_true")
    p.add_argument("--mode", choices=MODES, default=GenSpec.mode)
    p.add_argument("--count", type=int, default=GenSpec.count)
    p.add_argument("--seed", type=int, default=GenSpec.seed)
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-conjecture", help="run the equivalence harness over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--max-vars", type=int, default=OracleBounds.max_vars)
    p.add_argument("--max-len", type=int, default=OracleBounds.max_len)
    p.set_defaults(func=_cmd_verify_conjecture)

    p = sub.add_parser("power-algebra", help="derive the k-ary table of k-fold products")
    p.add_argument("--algebra", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_power_algebra)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AbsorbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
