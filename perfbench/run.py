#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload datapath-1cpu --seed 1 --seconds 10 --trace 0

Workloads: datapath-1cpu, datapath-smp, admit-mixed (see perfbench/README.md).
The first run in a checkout builds perfbench and the libraries under src/
with CMake into $CARGO_TARGET_DIR (default .bench_build, relative to the
repository root); later runs rebuild only what changed.

The last line of standard output is the result object: correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end-to-end metrics, with --trace 1 its per-layer ones, each with the unit
BENCHMARK.json gives it. Exit status: 0 when every check held, 1 when a
check failed, 2 when the benchmark could not be built or run.

Every result is also appended, with the host and build fingerprint, to
results.jsonl in the build directory; a result whose fingerprint differs
from the previous one of the same workload is flagged as not comparable.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("datapath-1cpu", "datapath-smp", "admit-mixed")
# A traced datapath-smp run takes about 1.7 x --seconds (warm-up, the run,
# then a 1-CPU reference); set-up and checks add a few seconds.
RUN_TIMEOUT_MARGIN_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    binary_dir = os.path.join(out_dir, "perfbench")
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(binary_dir, ignore_errors=True)
            fail("configuring the build failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", binary_dir, "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building perfbench failed")
    return os.path.join(binary_dir, "perfbench")


def note_comparability(out_dir, record):
    """Appends `record` to the results log; says so when the previous
    result of the same workload came from another host or build."""
    log = os.path.join(out_dir, "results.jsonl")
    previous = None
    if os.path.exists(log):
        with open(log) as f:
            for line in f:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if entry.get("workload") == record["workload"]:
                    previous = entry
    if previous is not None and \
            previous.get("fingerprint") != record["fingerprint"]:
        differing = sorted(
            key for key in set(previous["fingerprint"]) |
            set(record["fingerprint"])
            if previous["fingerprint"].get(key) !=
            record["fingerprint"].get(key))
        print("NOT COMPARABLE with the previous %s result: fingerprint "
              "differs in %s" % (record["workload"], ", ".join(differing)))
    with open(log, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", default="",
                        help="FaultRegistry defect to inject (self-test)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    binary = build(out_dir)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", trace_dir]
    if args.inject_fault:
        command += ["--inject-fault", args.inject_fault]
    timeout = 2 * args.seconds + RUN_TIMEOUT_MARGIN_S
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("the run did not finish in %.0f s" % timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("the run ended with status %d and no result" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("the run's last line is not a result: %r" % lines[-1][:200])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        fail("metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
    metrics = {}
    for metric in wanted:
        value = raw["metrics"].get(metric["name"])
        if value is None:
            if not args.trace:
                fail("the run did not measure %s" % metric["name"])
            value = 0.0  # a layer this workload does not exercise
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    failed = int(raw["failed"])
    result = {
        "correct": bool(raw["correct"]),
        "attempted": max(int(raw["attempted"]), failed, 1),
        "failed": failed,
        "metrics": metrics,
    }
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(raw["fingerprint"], sort_keys=True))
    note_comparability(out_dir, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": raw["fingerprint"], "result": result})
    for name, metric in metrics.items():
        print("%s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
