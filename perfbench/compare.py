#!/usr/bin/env python3
"""Compares two sets of repo-benchmark result records (an A/A or A/B check).

    python3 perfbench/compare.py SET_A_DIR SET_B_DIR [--layers]

Each directory holds the records perfbench/run.py writes (one JSON file per
run; pass --results-dir to run.py to choose it). For every workload and
end-to-end metric it prints both sets' medians and quartile spreads (the
distance between the first and third quartile as a share of the median), how
much worse B's median is than A's (negative: better), and whether B agrees
with A: B's median is not worse than A's by more than the
metric's bound in BENCHMARK.json, and each set's spread is within the bound
(setup_s is exempt from the spread rule). Where a set holds traced runs it
also prints the tracing overhead: the traced median against the untraced one.
--layers adds the per-layer medians of the traced runs.

Exit status: 0 when every metric agrees, 1 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            record = json.load(f)
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    a, b = load(args.set_a), load(args.set_b)

    agree = True
    header = "%-16s %-15s %4s %12s %7s %12s %7s %8s %9s  %s"
    print(header % ("workload", "metric", "runs", "A median", "A iqr", "B median", "B iqr",
                    "B worse", "trace ovh", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            va = [r["e2e"][m["name"]] for r in a.get((name, 0), [])]
            vb = [r["e2e"][m["name"]] for r in b.get((name, 0), [])]
            if not va or not vb:
                print("%-16s %-15s missing runs" % (name, m["name"]))
                agree = False
                continue
            ma, sa = summary(va)
            mb, sb = summary(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            if m["name"] != "setup_s":
                ok = ok and sa <= m["bound"] and sb <= m["bound"]
            traced = [r["e2e"][m["name"]] for r in a.get((name, 1), []) + b.get((name, 1), [])]
            overhead = "%+8.1f%%" % (100 * (statistics.median(traced) - ma) / ma) if traced else ""
            agree = agree and ok
            print(header % (name, m["name"], "%d/%d" % (len(va), len(vb)), "%.4g" % ma,
                            "%.3f" % sa, "%.4g" % mb, "%.3f" % sb, "%+.1f%%" % (100 * worse),
                            overhead, ("ok" if ok else "DIFFERS") + " (bound %.2f)" % m["bound"]))
        failed = sum(r["failed"] for s in (a, b) for k, rs in s.items() if k[0] == name
                     for r in rs)
        if failed:
            print("%-16s %d failed operations across both sets" % (name, failed))
            agree = False

    if args.layers:
        print("\nper-layer medians of traced runs (A / B)")
        for w in spec["workloads"]:
            ta, tb = a.get((w["name"], 1), []), b.get((w["name"], 1), [])
            if not ta and not tb:
                continue
            for m in spec["per_layer"]:
                va = [r["layer"].get(m["name"], 0.0) for r in ta]
                vb = [r["layer"].get(m["name"], 0.0) for r in tb]
                if not any(va) and not any(vb):
                    continue
                print("%-16s %-34s %14s %14s %s" % (
                    w["name"], m["name"], "%.6g" % statistics.median(va) if va else "-",
                    "%.6g" % statistics.median(vb) if vb else "-", m["unit"]))
    print("\nverdict:", "sets agree" if agree else "sets DIFFER")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
