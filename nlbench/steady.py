#!/usr/bin/env python3
"""Steadiness report: repeat one workload and summarise each metric.

    python3 nlbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                              [--seconds 10] [--trace 0|1]

Runs nlbench/run.py once per seed (first-seed, first-seed+1, ...) from the
checkout root and prints, for every metric, the median, the first and third
quartiles (statistics.quantiles(values, n=4)), and the spread: the distance
between the quartiles as a share of the median. For end-to-end metrics it
also prints the bound from BENCHMARK.json and whether the spread is within
a third of it, which is the margin the bounds were set with. Exits 1 if any
run fails or reports correct: false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}

    values = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit code %d" % (seed, proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("\n%-32s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        print("%-32s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            name, med, q1, q3, spread,
            "" if bound is None else "%.2f" % bound, verdict))
        print("    runs: " + " ".join("%.4g" % v for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
