#!/usr/bin/env python3
"""Compares two result sets of the whole-solve benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by `run.py --save FILE` (trace-0 runs are
compared; traced runs are ignored). For every workload x end-to-end metric of
BENCHMARK.json it prints both medians and quartiles, the fraction of pairs
NEW wins (runs paired by seed, ties count for neither) and a verdict:

  gain         NEW wins >= 9/10 of pairs and the medians differ by more than
               BASE's own quartile spread
  regression   NEW's median is worse than BASE's by more than the bound
  unresolved   BASE's quartile spread is wider than the bound, and not every
               NEW run beats every BASE run
  within bound otherwise

Exits 1 when any metric regresses.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """Returns {workload: {seed: {metric: value}}} for trace-0 records."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry["trace"] != 0:
                continue
            metrics = {k: v["value"]
                       for k, v in entry["record"]["metrics"].items()}
            runs.setdefault(entry["workload"], {})[entry["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """base/new: lists of values paired by index. Returns (verdict, won)."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for b, n in zip(base, new) if sign * (b - n) > 0)
    won_frac = won / len(base)
    b1, b2, b3 = quartiles(base)
    _, n2, _ = quartiles(new)
    improved = sign * (b2 - n2) > 0
    worse_by = sign * (n2 - b2) / abs(b2) if b2 else 0.0
    if won_frac >= 0.9 and improved and abs(n2 - b2) > b3 - b1:
        return "gain", won_frac
    if worse_by > bound:
        return "regression", won_frac
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if b2 and (b3 - b1) / abs(b2) > bound and not all_better:
        return "unresolved", won_frac
    return "within bound", won_frac


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(argv[1]), load(argv[2])
    regressions = 0
    header = "%-13s %-14s %12s %25s %12s %25s %5s  %s" % (
        "workload", "metric", "base p50", "base [q1, q3]", "new p50",
        "new [q1, q3]", "won", "verdict")
    print(header)
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print("%-13s only in one result set" % workload)
            continue
        seeds = sorted(set(base[workload]) & set(new[workload]))
        if seeds:
            pairs = [(base[workload][s], new[workload][s]) for s in seeds]
        else:  # no common seeds: pair runs in file order
            pairs = list(zip(base[workload].values(), new[workload].values()))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [p[0][name] for p in pairs if name in p[0] and name in p[1]]
            n = [p[1][name] for p in pairs if name in p[0] and name in p[1]]
            if not b:
                continue
            result, won = verdict(b, n, metric["better"], metric["bound"])
            regressions += result == "regression"
            bq1, bq2, bq3 = quartiles(b)
            nq1, nq2, nq3 = quartiles(n)
            print("%-13s %-14s %12.6g %25s %12.6g %25s %5.2f  %s" % (
                workload, name, bq2, "[%.6g, %.6g]" % (bq1, bq3), nq2,
                "[%.6g, %.6g]" % (nq1, nq3), won, result))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
