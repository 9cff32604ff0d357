#!/usr/bin/env python3
"""Compares two perfbench result sets under the benchmark's bounds.

usage: python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are directories of result records (perfbench writes one per
run to .bench_out/results/; copy them aside between the two commits).
Untraced runs are compared on every end-to-end metric of BENCHMARK.json;
traced runs are ignored.

One row per workload gives its verdict, then one line per metric with each
side's first quartile, median and third quartile, the change of the median
and the metric's verdict:

  improved    NEW wins at least 9 of 10 seed-paired runs (ties count for
              neither side) and the medians differ by more than BASE's own
              quartile spread;
  regressed   NEW's median is worse than BASE's by more than the bound, and
              either both spreads are within the bound or every NEW run is
              worse than every BASE run;
  unresolved  a spread is wider than the bound and no claim holds;
  unchanged   within the bound and not an improvement.

A workload is regressed if any metric is, else unresolved if any is, else
improved if any is, else unchanged.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    """Returns {workload: [record]} of untraced results under `path`."""
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as f:
            record = json.load(f)
        if not record["trace"]:
            out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, base, new):
    """Verdict and relative change (positive = worse) for one metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    a = [r["metrics"][metric["name"]]["value"] for r in base]
    b = [r["metrics"][metric["name"]]["value"] for r in new]
    qa, qb = quartiles(a), quartiles(b)
    worse = (qb[1] - qa[1]) / qa[1] if lower else (qa[1] - qb[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])

    def better(x, y):
        return x < y if lower else x > y

    seeds_a = {r["seed"]: r["metrics"][metric["name"]]["value"] for r in base}
    pairs = [(seeds_a[r["seed"]], r["metrics"][metric["name"]]["value"])
             for r in new if r["seed"] in seeds_a]
    wins = sum(1 for x, y in pairs if better(y, x))
    if worse > bound:
        if spread <= bound or all(better(x, y) for x in a for y in b):
            return "regressed", worse, qa, qb
        return "unresolved", worse, qa, qb
    if (pairs and wins >= 0.9 * len(pairs) and
            abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        return "improved", worse, qa, qb
    if spread > bound:
        return "unresolved", worse, qa, qb
    return "unchanged", worse, qa, qb


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(args.base), load(args.new)

    rank = {"regressed": 3, "unresolved": 2, "improved": 1, "unchanged": 0}
    any_regressed = False
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print("%-8s missing from %s" %
                  (workload, "BASE" if workload not in base else "NEW"))
            continue
        rows = [(m, verdict(m, base[workload], new[workload]))
                for m in metrics]
        overall = max((v[0] for _, v in rows), key=lambda v: rank[v])
        any_regressed |= overall == "regressed"
        print("%-8s %-10s  (runs: base %d, new %d)" %
              (workload, overall, len(base[workload]), len(new[workload])))
        for m, (v, worse, qa, qb) in rows:
            print("  %-24s base %s  new %s  worse %+7.2f%% (bound %g%%)  %s" %
                  (m["name"], "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
                   "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]),
                   100 * worse, 100 * m["bound"], v))
    return 1 if any_regressed else 0


if __name__ == "__main__":
    sys.exit(main())
