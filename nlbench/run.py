#!/usr/bin/env python3
"""NewsLink socket-level benchmark.

    python3 nlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script

  1. builds the shipped library, `newslink_cli` and the benchmark's own
     `nlbench` tool from source (CMake, into .bench_build/);
  2. generates the workload's inputs from the seed (`nlbench gen`; not timed);
  3. sets the server up several times -- `newslink_cli build-index` then
     `serve --snapshot`, or for a sharded workload one build-index per shard
     slice, the shard servers, and a `serve --shards` coordinator -- timing
     each from launch until /healthz answers 200 (setup_s is the median);
  4. drives the last set-up over loopback HTTP with `nlbench load`, which
     checks every answer and prints its measurements;
  5. reads the servers' peak RSS, stops every process it started, and prints
     one JSON line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. Workload shapes live in
workloads.json next to this file; README.md explains them.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # set-ups per run; setup_s is their median


START = time.monotonic()


def log(*parts):
    print("[%6.1fs]" % (time.monotonic() - START), *parts, file=sys.stderr,
          flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "nlbench")


def build(out):
    """Configure and build; returns the binary directory."""
    tmp = os.path.join(out, "tmp")  # keep the compiler's scratch files here
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmake = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    subprocess.run(cmake, check=True, stdout=subprocess.DEVNULL,
                   stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=subprocess.DEVNULL, stderr=sys.stderr, env=env)
    return out


class Servers:
    """Every server process this run started, stopped on exit."""

    def __init__(self):
        self.procs = []

    def start(self, argv, port_file):
        if os.path.exists(port_file):
            os.remove(port_file)
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        self.procs.append(proc)
        return proc

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


def wait_ready(proc, port_file, deadline):
    """Wait for the port file, then for /healthz 200; returns the port."""
    port = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError("server exited with code %d" % proc.returncode)
        if port is None and os.path.exists(port_file):
            text = open(port_file).read().strip()
            port = int(text) if text else None
        if port is not None:
            try:
                with urllib.request.urlopen(
                        "http://127.0.0.1:%d/healthz" % port, timeout=2) as r:
                    if r.status == 200:
                        return port
            except OSError:
                pass
        time.sleep(0.005)
    raise RuntimeError("server not ready in time")


def set_up(cli, work, spec, servers):
    """One timed set-up. Returns (timings, front port, shard ports)."""
    kg = os.path.join(work, "kg")
    corpus = os.path.join(work, "corpus.tsv")
    shards = spec["shards"]
    deadline = time.monotonic() + 120
    t0 = time.monotonic()
    if shards == 1:
        subprocess.run([cli, "build-index", kg, corpus,
                        os.path.join(work, "main.snap")],
                       check=True, stdout=subprocess.DEVNULL)
    else:
        builds = [subprocess.Popen(
            [cli, "build-index", kg, os.path.join(work, "shard%d.tsv" % i),
             os.path.join(work, "shard%d.snap" % i)],
            stdout=subprocess.DEVNULL) for i in range(shards)]
        try:
            codes = [b.wait() for b in builds]
        finally:
            for b in builds:
                if b.poll() is None:
                    b.kill()
                    b.wait()
        if any(codes):
            raise RuntimeError("shard build-index failed")
    t1 = time.monotonic()
    shard_ports = []
    if shards == 1:
        pf = os.path.join(work, "port")
        proc = servers.start([cli, "serve", kg, corpus, "--snapshot",
                              os.path.join(work, "main.snap"), "--port", "0",
                              "--port-file", pf], pf)
        port = wait_ready(proc, pf, deadline)
    else:
        started = []
        for i in range(shards):
            pf = os.path.join(work, "port%d" % i)
            started.append((servers.start(
                [cli, "serve", kg, corpus, "--shard-index", str(i),
                 "--shard-count", str(shards), "--snapshot",
                 os.path.join(work, "shard%d.snap" % i), "--port", "0",
                 "--port-file", pf], pf), pf))
        shard_ports = [wait_ready(p, pf, deadline) for p, pf in started]
        pf = os.path.join(work, "port")
        proc = servers.start(
            [cli, "serve", kg, "--shards",
             ",".join("127.0.0.1:%d" % p for p in shard_ports),
             "--port", "0", "--port-file", pf], pf)
        port = wait_ready(proc, pf, deadline)
    t2 = time.monotonic()
    return {"setup_s": t2 - t0, "setup.build_index_s": t1 - t0,
            "setup.serve_ready_s": t2 - t1}, port, shard_ports


def peak_rss_mib(procs):
    total_kib = 0
    for proc in procs:
        with open("/proc/%d/status" % proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def scrape_counter(port, name):
    with urllib.request.urlopen("http://127.0.0.1:%d/metrics" % port,
                                timeout=5) as r:
        for line in r.read().decode().splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
    return 0.0


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a small version of the workload (for selfcheck.py)")
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        log("unknown workload %s (have %s)" % (args.workload,
                                               ", ".join(workloads)))
        return 2
    spec = workloads[args.workload]
    setups = SETUPS
    if args.tiny:
        spec = dict(spec, countries=min(spec["countries"], 12),
                    stories=max(spec["stories"] // 20, 30),
                    heldout_stories=min(spec["heldout_stories"], 20),
                    pool=min(spec["pool"], 300),
                    rate=min(spec["rate"], 100))
        setups = 1
    wanted = contract()["per_layer" if args.trace else "end_to_end"]

    bins = build(build_dir())
    log("built")
    cli = os.path.join(bins, "newslink_cli")
    tool = os.path.join(bins, "nlbench")
    work = os.path.join(os.path.dirname(bins), "work",
                        "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    subprocess.run([tool, "gen", "--out", work, "--seed", str(args.seed),
                    "--countries", str(spec["countries"]),
                    "--stories", str(spec["stories"]),
                    "--heldout-stories", str(spec["heldout_stories"]),
                    "--shards", str(spec["shards"])],
                   check=True, stdout=subprocess.DEVNULL)
    log("inputs generated")

    servers = Servers()
    try:
        timings = []
        for i in range(setups):
            if i > 0:
                servers.stop()
            timing, port, shard_ports = set_up(cli, work, spec, servers)
            timings.append(timing)
        measured = {k: statistics.median(t[k] for t in timings)
                    for k in timings[0]}
        log("setup: %s s (median of %d)" % (
            ", ".join("%.3f" % t["setup_s"] for t in timings), setups))

        oracle = os.path.join(work, "main.snap")
        if spec["shards"] > 1:
            oracle = ",".join(os.path.join(work, "shard%d.snap" % i)
                              for i in range(spec["shards"]))

        load = [tool, "load", "--dir", work, "--oracle", oracle,
                "--port", str(port), "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--rate", str(spec["rate"]),
                "--queries", spec["queries"], "--pool", str(spec["pool"]),
                "--zipf", str(spec["zipf"]),
                "--window-share", str(spec["window_share"]),
                "--recency-share", str(spec["recency_share"]),
                "--explore-share", str(spec["explore_share"]),
                "--ingest-share", str(spec["ingest_share"]),
                "--spans-out", os.path.join(work, "spans.jsonl")]
        if shard_ports:
            load += ["--shard-ports", ",".join(map(str, shard_ports))]
        out = subprocess.run(load, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=150).stdout
        result = json.loads(out.strip().splitlines()[-1])
        log("load finished")

        measured.update(result["metrics"])
        measured["rss_mb"] = peak_rss_mib(servers.procs)
        measured["net.rejected_total"] = scrape_counter(
            port, "search_requests_rejected_total")
    finally:
        servers.stop()

    attempted, failed = result["attempted"], result["failed"]
    log("%s: closed loop, 4 clients; open loop at %s arrivals/s; "
        "attempted %d, failed %d (fail_ratio %.6f)" % (
            args.workload, spec["rate"], attempted, failed,
            failed / max(attempted, 1)))
    for name, value in sorted(measured.items()):
        log("  %-34s %.6g" % (name, value))

    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value) or value < 0:
            log("metric %s was not measured" % m["name"])
            return 3
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        spans = os.path.join(os.path.dirname(bins), "nlbench-spans")
        os.makedirs(spans, exist_ok=True)
        shutil.move(os.path.join(work, "spans.jsonl"), os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def on_signal(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Servers.stop()


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError) as e:
        log("benchmark failed: %s" % e)
        sys.exit(2)
