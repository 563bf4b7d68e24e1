#!/usr/bin/env python3
"""Whole-solve benchmark of the C-Extension solver.

Builds solve_bench from the library sources beside this directory (Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and prints the
result record; its last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload good_250k --seed 1 --seconds 30 \
        --trace 0 [--save results.jsonl]
    python3 perfbench/run.py --self-test

--save appends the record to a JSON-lines file; --self-test runs every
workload at a tenth of its size and plants a wrong output.

Compare two saved result sets with perfbench/compare.py. Metrics, workloads
and known gaps are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("good_250k", "bad_1001cc", "durable_250k")
BUILD_JOBS = 4


def die(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds solve_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "solver.h")):
        die("library sources not found: expected src/ beside perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(BUILD_JOBS)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "solve_bench")


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (record, stdout lines before it)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die("solve_bench exited with %d" % proc.returncode, 1)
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("solve_bench printed no result record", 1)
    return record, lines[:-1]


def check_record(record, expected):
    """Schema check: exact keys, and exactly the metrics named in
    BENCHMARK.json with their units. Returns a list of problems."""
    problems = []
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("record keys %s" % sorted(record))
        return problems
    if not isinstance(record["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(record[key], int):
            problems.append("%s is not an integer" % key)
    if record["attempted"] < 1:
        problems.append("attempted < 1")
    names = {m["name"]: m["unit"] for m in expected}
    got = record["metrics"]
    if set(got) != set(names):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    for name, metric in got.items():
        if set(metric) != {"value", "unit"}:
            problems.append("%s has keys %s" % (name, sorted(metric)))
        elif not isinstance(metric["value"], (int, float)):
            problems.append("%s value is not a number" % name)
        elif name in names and metric["unit"] != names[name]:
            problems.append("%s unit %s != %s" % (
                name, metric["unit"], names[name]))
    return problems


def self_test():
    """Tiny-scale smoke run of every workload at both trace levels, checked
    against BENCHMARK.json, plus a planted wrong output that must be caught.
    """
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    binary = build()
    failures = []
    tiny = ("--scale-mult", "0.1")

    def expect(condition, message):
        print(("ok    " if condition else "FAIL  ") + message)
        if not condition:
            failures.append(message)

    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            record, _ = run_bench(binary, workload, 1, 1, trace, tiny)
            label = "%s trace=%d" % (workload, trace)
            problems = check_record(record, expected)
            expect(not problems, "%s schema %s" % (label, problems or ""))
            expect(record["correct"] and record["failed"] == 0,
                   "%s output checks pass" % label)
            if trace == 0 or problems:
                continue
            m = {k: v["value"] for k, v in record["metrics"].items()}
            expect(m["durable.manifest_commits"] == m["plan.shards"] + 3,
                   "%s manifest commits = shards + 3" % label)
            if workload == "good_250k":
                expect(m["phase1.ilp_s"] == 0, "%s ILP never runs" % label)
            if workload == "bad_1001cc":
                expect(m["phase1.ilp_s"] > 0, "%s ILP runs" % label)
            expect(m["executor.speedup_4t"] > 0, "%s speedup reported" % label)

    record, _ = run_bench(binary, "good_250k", 1, 1, 0,
                          tiny + ("--plant-fault",))
    expect(not record["correct"] and record["failed"] == 1,
           "planted wrong FK is caught and counted (failed=%d)"
           % record["failed"])

    # compare.py on synthetic result sets: a planted 30% slowdown is a
    # regression, an identical set is within bound.
    sys.path.insert(0, HERE)
    import compare
    base_path = os.path.join(OUT_DIR, "selftest-base.jsonl")
    new_path = os.path.join(OUT_DIR, "selftest-new.jsonl")
    for path, slowdown in ((base_path, 1.0), (new_path, 1.3)):
        with open(path, "w") as f:
            for seed in range(10):
                metrics = {m["name"]: {"value": 1.0 + 0.001 * seed,
                                       "unit": m["unit"]}
                           for m in spec["end_to_end"]}
                metrics["solve_s_p50"]["value"] *= slowdown
                f.write(json.dumps({"workload": "good_250k", "seed": seed,
                                    "trace": 0, "record": {
                                        "metrics": metrics}}) + "\n")
    expect(compare.main(["compare.py", base_path, new_path]) == 1,
           "compare flags a planted 30% slowdown")
    expect(compare.main(["compare.py", base_path, base_path]) == 0,
           "compare passes identical result sets")

    if failures:
        print("self-test: %d failure(s)" % len(failures))
        return 1
    print("self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="FILE",
                        help="also append the record to this JSON-lines "
                             "file (input of compare.py)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    binary = build()
    record, notes = run_bench(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "notes": notes,
                                "record": record}) + "\n")
    for line in notes:
        print(line)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
