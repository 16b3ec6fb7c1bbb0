#!/usr/bin/env python3
"""Run e23 repeatedly and summarise the run-to-run spread.

    python3 bench/e23/repeat.py [--runs 10] [--seconds 25] [--trace 0]
                                [--first-seed 1] [--workloads W ...]
                                [--baseline-dir DIR]

Each run gets its own seed (first-seed, first-seed + 1, ...).  Runs go
round-robin over the workloads, so slow drift on the host spreads over all
of them.  For every metric the script prints the median of the per-run
values, the quartiles as statistics.quantiles(values, n=4) gives them, the
spread (q3 - q1) / median, min, max, and the bound the spread suggests:
max(0.10, 2 * (max - min) / median, 3 * spread), rounded up to a hundredth
and capped at 0.25.  With --baseline-dir it also writes one
<workload>.json (<workload>.trace.json with --trace 1) per workload there:
the per-metric medians and quartiles plus the host facts the runs
reported.  Run it from the repository root.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["ecp-steady", "ecp-churn", "consensus-crash", "consensus-calm"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "bench/e23/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, {last}")
    with open(f"BENCH_e23_{workload}.json") as f:
        host = json.load(f)["host"]
    return result, host


def bound_for(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    width = (max(values) - min(values)) / med if med else 0.0
    bound = min(0.25, math.ceil(100 * max(0.10, 2 * width, 3 * spread)) / 100)
    return med, q1, q3, spread, bound


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS)
    ap.add_argument("--baseline-dir")
    args = ap.parse_args()

    values = {w: {} for w in args.workloads}
    units = {}
    hosts = {}
    for r in range(args.runs):
        seed = args.first_seed + r
        for w in args.workloads:
            result, hosts[w] = run_once(w, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"run {r + 1}/{args.runs} {w} seed {seed}: {result['attempted']} ops",
                  file=sys.stderr)

    print("| workload | metric | unit | median | q1 | q3 | spread | min | max | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in args.workloads:
        summary = {}
        for name, vs in values[w].items():
            med, q1, q3, spread, bound = bound_for(vs)
            summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                             "min": min(vs), "max": max(vs), "runs": len(vs)}
            print(f"| {w} | {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f} | {min(vs):.4g} | {max(vs):.4g} | {bound:.2f} |")
        if args.baseline_dir:
            os.makedirs(args.baseline_dir, exist_ok=True)
            doc = {
                "bench": "e23",
                "workload": w,
                "trace": bool(args.trace),
                "runs": args.runs,
                "seconds": args.seconds,
                "seeds": [args.first_seed + r for r in range(args.runs)],
                "host": dict(hosts[w], machine=platform.machine(), nproc=os.cpu_count()),
                "metrics": summary,
            }
            name = f"{w}.trace.json" if args.trace else f"{w}.json"
            with open(os.path.join(args.baseline_dir, name), "w") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
