#!/usr/bin/env python3
"""Build and run the Citadel benchmark, or compare two sets of its results.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload mc_paper --seed 1 --seconds 28 --trace 0

The first run configures and builds perfbench/ (the library sources in
src/ plus the benchmark binary) in Release under .bench_build/perfbench;
later runs only rebuild what changed. Every metric is printed by name with
its unit, then the output checks and the digest of the simulated outputs,
and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 its per_layer list, and the recorded spans are written to
.bench_build/perfbench/traces/. --record FILE appends the full result
(context, digest, every metric) to FILE as one JSON line.

Compare two result sets written by --record (one set summarises itself):

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

The exit status is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "citadel_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure once, then rebuild the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources missing under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "citadel_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def run_workload(args, spec):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail(f"unreadable result line: {lines[-1]!r}")

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[kind]]
    got = [m["name"] for m in record["metrics"] if m["kind"] == kind]
    if sorted(wanted) != sorted(got):
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"{kind} metrics differ from BENCHMARK.json: "
             f"missing {missing}, not listed {extra}")
    units = {m["name"]: m["unit"] for m in spec[kind]}
    for m in record["metrics"]:
        if m["kind"] == kind and m["unit"] != units[m["name"]]:
            fail(f"unit of {m['name']} is {m['unit']}, "
                 f"BENCHMARK.json says {units[m['name']]}")
    record["context"]["commit"] = commit()
    return record, kind


def print_record(record, kind):
    ctx = " ".join(f"{k}={v}" for k, v in record["context"].items())
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['units']} units of "
          f"{record['work_unit']}, threads {record['threads']}")
    print(f"context: {ctx}")
    width = max(len(m["name"]) for m in record["metrics"])
    for m in record["metrics"]:
        tag = "" if m["kind"] == kind else f"  ({m['kind']})"
        print(f"  {m['name']:<{width}}  {m['value']:.6g} {m['unit']}{tag}")
    print(f"digest {record['digest']}")
    print(f"checks: attempted {record['attempted']}, failed {record['failed']}, "
          + ("all outputs correct" if record["correct"] else "FAILED"))
    for p in record["problems"]:
        print(f"  FAIL {p}")
    for m in record["metrics"]:
        if m["name"] == "trace.accounted_share" and m["value"] < 0.95:
            print(f"WARN: spans cover only {m['value']:.1%} of the traced "
                  "wall time; the per-layer split misses a layer")


# ---- compare mode ----------------------------------------------------------

def load_records(path):
    records = []
    try:
        with open(path) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    if r["trace"] == 0:
                        records.append(r)
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read result set {path}: {e}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """better / worse / unchanged / unresolved for one (metric, workload).

    better: the change wins at least 9 in 10 pairs (ties count for neither)
    and the medians differ by more than the parent's quartile spread.
    worse: the change's median is worse than the parent's by more than the
    metric's bound, and the parent's spread is within the bound (or every
    change run is worse than every parent run). unresolved: the parent's
    spread is wider than the bound and neither of the above holds.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better"
    bound = metric["bound"]
    spread_ok = pm != 0 and (p3 - p1) / abs(pm) <= bound
    all_worse = all(sign * (c - p) < 0 for p in parent for c in change)
    if (spread_ok and pm != 0 and -gain / abs(pm) > bound) or all_worse:
        return "worse"
    return "unchanged" if spread_ok else "unresolved"


def by_seed(records):
    return sorted(records, key=lambda r: r["seed"])


def values_of(records, name):
    out = []
    for r in records:
        for m in r["metrics"]:
            if m["name"] == name and m["kind"] == "end_to_end":
                out.append(m["value"])
    return out


def compare(paths, spec):
    sets = [load_records(p) for p in paths]
    workloads = [w["name"] for w in spec["workloads"]]
    header = f"{'workload':<13} {'metric':<12}"
    for i, _ in enumerate(sets):
        header += f" | set{i + 1}: n {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if len(sets) == 2:
        header += " | verdict"
    print(header)
    for w in workloads:
        runs = [by_seed([r for r in s if r["workload"] == w]) for s in sets]
        if not all(runs):
            continue
        if len(sets) == 2 and [r["seed"] for r in runs[0]] != \
                [r["seed"] for r in runs[1]]:
            print(f"note: {w}: seeds differ between sets; "
                  "pairing runs in seed order", file=sys.stderr)
        for metric in spec["end_to_end"]:
            row = f"{w:<13} {metric['name']:<12}"
            vals = [values_of(rs, metric["name"]) for rs in runs]
            for v in vals:
                q1, q2, q3 = quartiles(v)
                spread = (q3 - q1) / abs(q2) if q2 else 0.0
                row += (f" | {len(v):>6} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                        f" {spread:>7.1%}")
            if len(sets) == 2:
                row += f" | {verdict(metric, *vals)}"
            print(row)
    digests = {}
    for s in sets:
        for r in s:
            digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    for (w, seed), ds in sorted(digests.items()):
        if len(ds) > 1:
            print(f"note: {w} seed {seed}: simulated outputs differ "
                  f"between runs (digests {sorted(ds)})")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this file")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS",
                        help="summarise one result set or compare two")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        if len(args.compare) > 2:
            fail("--compare takes one or two result sets")
        compare(args.compare, spec)
        return 0
    if not args.workload:
        fail("--workload is required")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    record, kind = run_workload(args, spec)
    print_record(record, kind)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in record["metrics"] if m["kind"] == kind}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
