#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload suite_steady --seed 1 --seconds 30 --trace 0

Run from the repository root. The driver is configured and built into
.bench_build/ (CMake, Release); result records, traces and scratch files also
go there. The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured with
tracing off; with --trace 1 they are its per_layer list, from a run with
benchmark-side spans on. Every run also writes its full record (both metric
sets, the per-layer self-time table of a traced run, errors) under
.bench_build/results/ or --results-dir, which perfbench/compare.py reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Traced runs: the driver operations' spans must add up to the time the
# driver's own clock measured for them within this share.
PATH_TOLERANCE = 0.05


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(bench_dir):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "nsf_perfbench", "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=max(left, 1))
        if proc.returncode != 0:
            return False
    return True


def self_times(trace_path, op_names):
    """Per-name self time inside the driver operations' span trees.

    Spans nest by time containment on their thread. A span's self time is its
    duration minus its direct children's. Returns (ops_total_s, table) where
    table maps span name -> {"count", "total_ms", "self_ms"}.
    """
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    eps = 0.002  # us; ts and dur are printed with 3 decimals
    table = {}
    ops_total = 0.0
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            while stack and e["ts"] + e["dur"] > stack[-1]["ts"] + stack[-1]["dur"] + eps:
                stack.pop()
            e["_child"] = 0.0
            e["_op"] = None
            if stack:
                stack[-1]["_child"] += e["dur"]
                e["_op"] = stack[-1]["_op"]
            if e["name"] in op_names and e["_op"] is None:
                e["_op"] = e["name"]
                ops_total += e["dur"]
            stack.append(e)
        for e in spans:
            if e["_op"] is None:
                continue
            row = table.setdefault(e["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += e["dur"] / 1e3
            row["self_ms"] += (e["dur"] - e["_child"]) / 1e3
    return ops_total / 1e6, table


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=os.path.join(BUILD_DIR, "results"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    if not build(bench_dir):
        log("build failed")
        return 1

    os.makedirs(args.results_dir, exist_ok=True)
    stem = "%s.seed%d.trace%d.%d" % (args.workload, args.seed, args.trace, os.getpid())
    out_path = os.path.join(BUILD_DIR, stem + ".json")
    trace_path = os.path.join(BUILD_DIR, stem + ".trace.json")
    work_dir = os.path.join(BUILD_DIR, "work", str(os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "nsf_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_path, "--trace-out", trace_path,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("driver exited with", proc.returncode)
        return 1
    with open(out_path) as f:
        record = json.load(f)
    os.remove(out_path)

    correct = record["failed"] == 0 and not record["errors"]
    if args.trace:
        ops_s, table = self_times(trace_path, set(record["trace_ops"]))
        os.replace(trace_path, os.path.join(args.results_dir, stem + ".trace.json"))
        blocking = record["blocking_seconds"]
        op_self = sum(row["self_ms"] for name, row in table.items() if name in record["trace_ops"])
        record["self_times"] = table
        record["path_gap_frac"] = abs(ops_s - blocking) / blocking if blocking > 0 else 1.0
        record["path_ok"] = record["path_gap_frac"] <= PATH_TOLERANCE
        record["layer"]["trace.path_gap_frac"] = record["path_gap_frac"]
        record["layer"]["trace.attributed_frac"] = 1 - op_self / (ops_s * 1e3) if ops_s else 0
        if not record["path_ok"]:
            log("traced spans cover %.4f s of the %.4f s blocking path" % (ops_s, blocking))
            correct = False
    with open(os.path.join(args.results_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for error in record["errors"]:
        log("FAIL", error)

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["layer"] if args.trace else record["e2e"]
    metrics = {}
    for m in chosen:
        if m["name"] not in source:
            if not args.trace:
                log("metric", m["name"], "was not measured")
                return 1
            value = 0.0  # a layer this workload does not exercise
        else:
            value = source[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
