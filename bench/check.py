"""Run every workload over several seeds and report the spread of each metric.

Run from the repository root:

    python3 bench/check.py --seeds 10 [--first-seed 0] [--trace] [--out FILE]

Each run is a separate ``bench/run.py`` process, started only after the one
before it has ended.  For every end-to-end metric the table shows, over the
runs whose gates passed, the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json; ``!`` marks a spread above a
third of the bound, the target for a steady benchmark.  ``--trace`` adds
one traced run with seed 0 per workload.  ``--out`` writes all of it as
JSON, with the number of runs per workload whose gates passed.  The exit
code is 1 when a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "system": platform.platform()}


def commit() -> str | None:
    """The git commit of the checkout, when it is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    doc: dict = {
        "command": " ".join(["python3", "bench/check.py", *sys.argv[1:]]),
        "run_seconds": spec["run_seconds"],
        "commit": commit(),
        "machine": machine(),
        "seeds": list(seeds),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(spec, workload, seed, 0) for seed in seeds]
        passed = [r for r in results if r["correct"]]
        ok &= len(passed) == len(results)
        summary = {}
        print(f"{workload}: {len(passed)}/{len(results)} runs correct")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in passed]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "!" if spread > bound / 3 else " "
            print(f"  {name:16} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:7.2%} {flag} bound {bound:.0%}")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
        entry = {"runs": len(results), "runs_correct": len(passed), "end_to_end": summary}
        if args.trace:
            traced = run(spec, workload, 0, 1)
            ok &= traced["correct"]
            entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
