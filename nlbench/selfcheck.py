#!/usr/bin/env python3
"""Output self-check of the benchmark.

    python3 nlbench/selfcheck.py [--workload NAME ...]

From the checkout root:
  1. validates BENCHMARK.json against the benchmark contract (keys, name
     and unit syntax, counts, bounds, the setup_s metric);
  2. runs a tiny version of each workload (run.py --tiny, 2 s) with
     --trace 0 and --trace 1 and checks the last stdout line: exactly the
     keys correct/attempted/failed/metrics, correct true, attempted >= 1,
     failed == 0, and every metric of the matching BENCHMARK.json list
     exactly once with its unit and a finite, non-negative value;
  3. copies only BENCHMARK.json and the benchmark's paths into a scratch
     directory and checks that run.py exits non-zero there without
     printing a result.
Exits 0 when everything holds; prints each problem otherwise.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

problems = []


def expect(cond, message):
    if not cond:
        problems.append(message)
    return cond


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    expect(len(keys) == len(set(keys)), "duplicate keys %s" % keys)
    return dict(pairs)


def check_contract(c):
    expect(set(c) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"},
           "BENCHMARK.json keys: %s" % sorted(c))
    expect(1 <= len(c["paths"]) <= 16, "1..16 paths")
    for p in c["paths"]:
        expect(PATH.match(p) and not p.startswith("/") and ".." not in p,
               "bad path %r" % p)
    expect(1 <= len(c["command"]) <= 32 and
           all(len(a) <= 200 and not a.startswith("/") and ".." not in a
               for a in c["command"]), "bad command")
    expect(isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60,
           "run_seconds must be a whole number 1..60")
    expect(2 <= len(c["workloads"]) <= 8, "2..8 workloads")
    for w in c["workloads"]:
        expect(set(w) == {"name", "why"}, "workload keys %s" % sorted(w))
        expect(len(w["why"]) <= 200 and "\n" not in w["why"],
               "why of %s too long" % w["name"])
    expect(1 <= len(c["end_to_end"]) <= 16, "1..16 end-to-end metrics")
    expect(1 <= len(c["per_layer"]) <= 128, "1..128 per-layer metrics")
    for m in c["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"},
               "end_to_end keys %s" % sorted(m))
        expect(0 < m["bound"] <= 0.25, "bound of %s" % m["name"])
    for m in c["per_layer"]:
        expect(set(m) == {"name", "unit", "better"},
               "per_layer keys %s" % sorted(m))
    names = [x["name"] for x in c["workloads"] + c["end_to_end"] +
             c["per_layer"]]
    expect(len(names) == len(set(names)), "names must be unique")
    for m in c["end_to_end"] + c["per_layer"]:
        expect(NAME.match(m["name"]), "bad name %r" % m["name"])
        expect(UNIT.match(m["unit"]), "bad unit %r" % m["unit"])
        expect(m["better"] in ("lower", "higher"), "better of %s" % m["name"])
    setup = [m for m in c["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower", "setup_s (s, lower) required")
    if setup:
        expect(setup[0]["bound"] == max(m["bound"] for m in c["end_to_end"]),
               "setup_s should carry the largest bound")
    expect(len(json.dumps(c)) <= 64 * 1024, "BENCHMARK.json over 64 KiB")


def check_run(c, workload, trace):
    label = "%s --trace %d" % (workload, trace)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not expect(proc.returncode == 0 and lines,
                  "%s: exit %d\n%s" % (label, proc.returncode,
                                       proc.stderr[-2000:])):
        return
    out = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    expect(list(out) == ["correct", "attempted", "failed", "metrics"],
           "%s: result keys %s" % (label, list(out)))
    expect(out.get("correct") is True, "%s: correct is not true" % label)
    expect(isinstance(out.get("attempted"), int) and out["attempted"] >= 1,
           "%s: attempted" % label)
    expect(out.get("failed") == 0, "%s: failed %s" % (label, out.get("failed")))
    wanted = c["per_layer" if trace else "end_to_end"]
    metrics = out.get("metrics", {})
    expect(set(metrics) == {m["name"] for m in wanted},
           "%s: metric names differ: missing %s, extra %s" % (
               label, sorted({m["name"] for m in wanted} - set(metrics)),
               sorted(set(metrics) - {m["name"] for m in wanted})))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        expect(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
               "%s: %s unit/keys %s" % (label, m["name"], got))
        v = got.get("value")
        expect(isinstance(v, (int, float)) and not isinstance(v, bool) and
               math.isfinite(v) and v >= 0,
               "%s: %s value %r" % (label, m["name"], v))
    print("%s: %d metrics ok" % (label, len(metrics)), flush=True)


def check_bare(c):
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in c["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        c["command"] + ["--workload", c["workloads"][0]["name"], "--seed",
                        "1", "--seconds", str(c["run_seconds"]), "--trace",
                        "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "bare directory: exit %d, stdout %r" % (proc.returncode,
                                                   proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: exit %d, no result" % proc.returncode)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        c = json.load(f, object_pairs_hook=no_duplicates)
    check_contract(c)
    for w in args.workload or [w["name"] for w in c["workloads"]]:
        for trace in (0, 1):
            check_run(c, w, trace)
    check_bare(c)
    for p in problems:
        print("PROBLEM:", p)
    print("self-check %s" % ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
