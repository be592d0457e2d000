"""Benchmark of the absorb package: corpus cross-checks and enumeration.

Run from the repository root:

    python3 bench/run.py --workload corpus-ternary3 --seed 0 --seconds 35 --trace 0

Workloads, metrics and the layer each metric watches are described in
bench/README.md.  The script imports absorb from ``src/`` of the checkout it
sits in, sets up the workload several times, repeats the timed pass while a
further pass still fits in ``--seconds`` (at least one pass), checks every
pass, and prints a readable table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (untraced, traced, traced, untraced) and reports
the per-layer metrics of the first traced pass, with the tracing overhead.
The exit code is 0 when every gate passed, 1 when one failed, and 2 when the
program cannot be imported (nothing is printed on standard output then).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

clock = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 7
SETUP_REPEATS = 9
PERCENTILES = (99.9, 99, 90, 50)


def import_program() -> float:
    """Import absorb from the checkout's src/ several times and return the
    median seconds.  Each import starts with absorb dropped from
    ``sys.modules``; the benchmark uses the modules of the last one."""
    sys.path.insert(0, str(SRC))
    samples = []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "absorb" or n.startswith("absorb.")]:
            del sys.modules[name]
        start = clock()
        try:
            import absorb
            import absorb.cli  # noqa: F401
        except ImportError as exc:
            print(f"bench: cannot import absorb from {SRC}: {exc}", file=sys.stderr)
            sys.exit(2)
        samples.append(clock() - start)
    if Path(absorb.__file__).resolve().parent.parent != SRC:
        print(f"bench: absorb was imported from {absorb.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return statistics.median(samples)


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of a sorted list; 0 for an empty one."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def describe(samples: list[float], scale: float = 1.0, unit: str = "") -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    if not samples:
        return "no samples"
    ordered = sorted(x * scale for x in samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4g}{unit}"
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            if p != 50:
                text += f", p{p:g} {percentile(ordered, p):.4g}{unit}"
            break
    else:
        text += f", max {ordered[-1]:.4g}{unit}"
    return f"{text} (n={n})"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes, setups, import_s) -> dict:
    ops = passes[0].ops
    rates = [p.tables / p.seconds for p in passes]
    latencies = [b - a for p in passes for a, b in zip(p.table_starts, p.table_starts[1:])]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tables_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "decided_share": (1 - passes[0].unresolved / ops, "share"),
    }
    print(f"setup_s        {describe(setups, unit=' s')}, median import {import_s:.4g} s included")
    print(f"tables_per_s   {describe(rates, unit='/s')} over passes")
    if passes[0].tables != ops:  # a corpus pass: its operations are pairs
        pair_rates = [p.ops / p.seconds for p in passes]
        print(f"pairs_per_s    {describe(pair_rates, unit='/s')} over passes")
    if latencies:
        print(f"table latency  {describe(latencies, 1000, ' ms')}")
    print(f"unresolved     {passes[0].unresolved} of {ops}")
    return metrics


def per_layer(untraced: list, traced: list, tracer) -> dict:
    """Layer metrics of the first traced pass; rates and overhead over all."""
    t = tracer
    pairs = t.calls("harness.check_pair")
    tables = len(t.table_starts) - 1 if t.table_starts else 0
    latencies_ms = sorted(x * 1000 for x in t.table_latencies())
    untraced_rates = [p.ops / p.seconds for p in untraced]
    traced_rates = [p.ops / p.seconds for p in traced]
    overheads = [1 - t_rate / u_rate for u_rate, t_rate in zip(untraced_rates, traced_rates)]
    print(f"trace overhead per round: {', '.join(f'{x:.2%}' for x in overheads)}")
    problems = any(p.problems for p in untraced + traced)
    first = traced[0]
    aco = "criteria.absorption_conditions_hold"
    return {
        "core.is_associative.calls": (t.calls("core.is_associative"), "count"),
        "core.is_associative.s": (t.seconds("core.is_associative"), "s"),
        "core.compute_exponent.calls": (t.calls("core.compute_exponent"), "count"),
        "core.compute_exponent.s": (t.seconds("core.compute_exponent"), "s"),
        "core.compute_exponent.calls_per_pair": (ratio(t.calls("core.compute_exponent"), pairs), "count"),
        "core.enumerate_subuniverses.s": (t.seconds("core.enumerate_subuniverses"), "s"),
        "core.is_closed.calls": (t.calls("core.is_closed"), "count"),
        "criteria.decide_theorem.self_s": (t.self_seconds("criteria.decide_theorem"), "s"),
        "criteria.absorption_conditions_hold.calls": (t.calls(aco), "count"),
        "criteria.absorption_conditions_hold.s": (t.seconds(aco), "s"),
        "criteria.absorption_conditions_hold.hit_ratio": (ratio(t.hits(aco), t.calls(aco)), "share"),
        "criteria.verify_witness.calls": (t.calls("criteria.verify_witness"), "count"),
        "oracle.search_absorbing_term.calls": (t.calls("oracle.search_absorbing_term"), "count"),
        "oracle.search_absorbing_term.self_s": (t.self_seconds("oracle.search_absorbing_term"), "s"),
        "oracle.words_examined": (first.words_examined, "count"),
        "oracle.words_per_s": (ratio(first.words_examined, t.seconds("oracle.search_absorbing_term")), "1/s"),
        "oracle.found_ratio": (ratio(first.found, t.calls("oracle.search_absorbing_term")), "share"),
        "oracle.unresolved_share": (ratio(first.unresolved, pairs), "share"),
        "generate.enumerate_tables.s": (t.seconds("generate.enumerate_tables"), "s"),
        "generate.canonical_form.calls": (t.calls("generate.canonical_form"), "count"),
        "generate.canonical_form.s": (t.seconds("generate.canonical_form"), "s"),
        "generate.canonical_form.calls_per_table": (ratio(t.calls("generate.canonical_form"), tables), "count"),
        "generate.tables": (tables, "count"),
        "harness.check_pair.calls": (pairs, "count"),
        "harness.check_pair.s": (t.seconds("harness.check_pair"), "s"),
        "harness.table_digest.s": (t.seconds("harness.table_digest"), "s"),
        "harness.run_corpus.self_s": (t.self_seconds("harness.run_corpus"), "s"),
        "harness.report_bytes": (first.report_bytes, "bytes"),
        "harness.table_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "harness.table_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "harness.failed_share": (float(problems), "share"),
        "fileio.write_corpus_dir.self_s": (t.self_seconds("fileio.write_corpus_dir"), "s"),
        "fileio.save_algebra.calls": (t.calls("fileio.save_algebra"), "count"),
        "cli.main.s": (t.seconds("cli.main"), "s"),
        "trace.untraced_ops_per_s": (statistics.median(untraced_rates), "1/s"),
        "trace.traced_ops_per_s": (statistics.median(traced_rates), "1/s"),
        "trace.overhead_share": (statistics.median(overheads), "share"),
    }


def install(tracer) -> None:
    for module, func in (
        ("absorb.core", "is_associative"),
        ("absorb.core", "compute_exponent"),
        ("absorb.core", "enumerate_subuniverses"),
        ("absorb.criteria", "decide_theorem"),
        ("absorb.criteria", "verify_witness"),
        ("absorb.oracle", "search_absorbing_term"),
        ("absorb.generate", "canonical_form"),
        ("absorb.harness", "check_pair"),
        ("absorb.harness", "table_digest"),
        ("absorb.harness", "run_corpus"),
        ("absorb.fileio", "write_corpus_dir"),
        ("absorb.fileio", "save_algebra"),
        ("absorb.cli", "main"),
    ):
        tracer.wrap(module, func)
    tracer.wrap("absorb.core", "is_closed", leaf=True)
    tracer.wrap("absorb.criteria", "absorption_conditions_hold", leaf=True)
    tracer.wrap("absorb.generate", "enumerate_tables", stream=True)


def measure(args, wl, tmp: str, import_s: float):
    """Set up, run the passes; returns (passes, metrics)."""
    setups = []

    def set_up():
        start = clock()
        inputs = wl.set_up(args.seed, tmp)
        setups.append(import_s + clock() - start)
        return inputs

    inputs = set_up()
    if not args.trace:
        # Half the set-ups run before the passes and half after, so their
        # median sees the machine at the same times as the passes do.
        for _ in range(SETUP_REPEATS // 2):
            set_up()
        passes = []
        started = clock()
        while True:
            pass_started = clock()
            passes.append(wl.run_pass(inputs, tmp))
            last = clock() - pass_started
            if passes[-1].problems or clock() - started + last > args.seconds:
                break
        while len(setups) < SETUP_REPEATS:
            set_up()
        return passes, end_to_end(passes, setups, import_s)

    from tracing import Tracer

    # Untraced, traced, traced, untraced: the two rounds run in opposite
    # orders, so a drift in machine speed weighs on both sides alike.
    tracer = Tracer()
    untraced, traced = [], []
    for is_traced in (False, True, True, False):
        if not is_traced:
            untraced.append(wl.run_pass(inputs, tmp))
            continue
        t = Tracer() if traced else tracer
        install(t)
        try:
            traced.append(wl.run_pass(inputs, tmp, t))
        finally:
            t.unwrap()
    print(f"trace: {len(tracer.spans)} spans in the first traced pass;"
          f" untraced {', '.join(f'{p.seconds:.3f}' for p in untraced)} s,"
          f" traced {', '.join(f'{p.seconds:.3f}' for p in traced)} s")
    return untraced + traced, per_layer(untraced, traced, tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_s = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        passes, metrics = measure(args, wl, tmp, import_s)
        problems = [msg for p in passes for msg in p.problems]
        attempted = sum(p.ops for p in passes)
    except Exception:
        traceback.print_exc()
        problems, metrics, attempted = ["exception"], {}, wl.ops_per_pass
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for msg in problems[:20]:
        print(f"gate failed: {msg}")
    correct = not problems
    print(f"gate {'passed' if correct else 'FAILED'}; attempted {attempted}, failed {0 if correct else attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
