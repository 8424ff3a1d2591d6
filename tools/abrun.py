#!/usr/bin/env python3
"""A/B runner: builds two git revisions and runs one command on each in
alternating (ABBA) pairs, then reports every metric side by side.

    python3 tools/abrun.py --a HEAD~1 --b HEAD --pairs 10 \\
        --build 'python3 perfbench/run.py --workload admit-mixed --seconds 1' \\
        -- python3 perfbench/run.py --workload admit-mixed \\
        --seed '{pair}' --seconds 10

Each revision is exported with `git archive` into WORKDIR/a and WORKDIR/b
(no worktree is registered in the repository); neither may exist yet. With
no --workdir, WORKDIR is a temporary directory that is removed at exit.
The --build command runs once in each export (default: a RelWithDebInfo
CMake build into ./build). The command then runs with each export as its
working directory: pair i runs A then B when i is even and B then A when
it is odd, so A B B A A B ...; a slow drift of the host hits both sides
alike. A `{pair}` in the command is
replaced by the pair's number (1, 2, ...), so `--seed {pair}` gives each
pair its own seed and both sides of a pair the same one. A `{json}` is
replaced by a fresh file path and the metrics are read from that file (the
bench harness's --json schema: each case's min_ns and median_ns, each
gate's value); otherwise they are read from the last line of standard
output (perfbench's result line: its "metrics"). A run that exits nonzero
stops the runner.

For each metric the report gives each side's median and interquartile
range, the pairs B won (ties count for neither side) and the exact
two-sided sign-test p-value over the pairs that were not ties. Whether
higher is better is read from the inputs: a perfbench metric's "better"
field in BENCHMARK.json (A's export), lower for a bench case's ns stats,
and for a gate the side of its bound on which it passes. A gate that sat
on its bound in every run has no known side and gets no win count (its
pairs all tie).

Each run is logged with its wall time and the host's steal time over the
run, read from the first line of /proc/stat (the hypervisor taking CPU time
from this VM). A pair in which either run's steal share of the host's CPU
time exceeds 2% is flagged with `*`; its metrics are still counted.

Exit status: 0 when every run succeeded, 1 when a run failed, 2 when a
revision could not be exported or built.
"""

import argparse
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

DEFAULT_BUILD = ("cmake -S . -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo "
                 "&& cmake --build build -j 2")
# Steal share of the host's CPU time above which a pair is flagged.
STEAL_SPELL = 0.02


def abba_order(pairs):
    """The side ("a" or "b") of each run, in run order: A B, B A, A B, ..."""
    order = []
    for i in range(pairs):
        order += ["a", "b"] if i % 2 == 0 else ["b", "a"]
    return order


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value for `wins` against `losses`."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def median_iqr(values):
    """Median and interquartile range (inclusive quartiles)."""
    if len(values) < 2:
        return (values[0] if values else float("nan")), 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def pairs_won(a_values, b_values, higher_is_better):
    """(pairs B won, pairs A won); equal values count for neither."""
    b_wins = a_wins = 0
    for a, b in zip(a_values, b_values):
        if a == b:
            continue
        if (b > a) == higher_is_better:
            b_wins += 1
        else:
            a_wins += 1
    return b_wins, a_wins


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def extract_metrics(result, higher):
    """The named numbers of one run's result: perfbench's "metrics", or a
    bench file's cases and gates. Sets `higher[name]` (True where higher is
    better) for each metric whose direction the result itself shows: a
    case's ns stats, and a gate that is off its bound."""
    metrics = {}
    if isinstance(result.get("metrics"), dict):
        for name, value in result["metrics"].items():
            if isinstance(value, dict):
                value = value.get("value")
            if is_number(value):
                metrics[name] = float(value)
    elif isinstance(result.get("cases"), list):
        for case in result["cases"]:
            for stat in ("min_ns", "median_ns"):
                if is_number(case.get(stat)):
                    name = "%s.%s" % (case["name"], stat)
                    metrics[name] = float(case[stat])
                    higher[name] = False
        for gate in result.get("gates", []):
            if not is_number(gate.get("value")):
                continue
            name = "gate." + gate["name"]
            metrics[name] = float(gate["value"])
            bound = gate.get("bound")
            if is_number(bound) and gate["value"] != bound and \
                    isinstance(gate.get("pass"), bool):
                higher[name] = (gate["value"] > bound) == gate["pass"]
    return metrics


def read_steal_jiffies():
    """Host-wide steal jiffies so far, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields and fields[0] == "cpu" and \
        len(fields) > 8 else None


def run_once(command, cwd, pair, json_path, higher):
    """Runs `command` in `cwd` for pair number `pair`; returns (metrics,
    wall_s, steal_jiffies) and notes directions in `higher` as
    extract_metrics does."""
    argv = [json_path if word == "{json}" else
            word.replace("{pair}", str(pair)) for word in command]
    steal_before = read_steal_jiffies()
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall_s = time.monotonic() - start
    steal_after = read_steal_jiffies()
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-10:]
        raise RuntimeError("exit %d in %s:\n  %s" % (
            proc.returncode, cwd, "\n  ".join(tail)))
    if "{json}" in command:
        with open(json_path) as f:
            result = json.load(f)
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise RuntimeError("the last line of output in %s is not JSON"
                               % cwd)
    steal = None if steal_before is None or steal_after is None else \
        steal_after - steal_before
    return extract_metrics(result, higher), wall_s, steal


def export_revision(repo, revision, dest):
    """Writes the tree of `revision` into `dest`, which must not exist yet,
    with git archive."""
    os.makedirs(dest)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "-C", repo, "archive", "--format=tar",
                        revision], stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extraction_filter = tarfile.data_filter
            tar.extractall(dest)


def benchmark_directions(checkout):
    """Metric name -> True where higher is better, per the "better" fields
    of the checkout's BENCHMARK.json (empty when it has none)."""
    higher = {}
    path = os.path.join(checkout, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as f:
            spec = json.load(f)
        for metric in spec.get("end_to_end", []) + spec.get("per_layer", []):
            if metric.get("better") in ("higher", "lower"):
                higher[metric["name"]] = metric["better"] == "higher"
    return higher


def report(runs, order, higher, out=sys.stdout):
    """Prints the run log and the per-metric table; `runs` is in run order,
    each (metrics, wall_s, steal_share or None); `higher` maps a metric
    name to True where higher is better (a name it lacks gets no win
    count)."""
    pairs = len(order) // 2
    spells = []
    for i in range(pairs):
        shares = [runs[2 * i + j][2] for j in range(2)]
        spells.append(any(s is not None and s > STEAL_SPELL for s in shares))
    print("run log (steal = share of host CPU time the hypervisor took):",
          file=out)
    for index, (side, (_, wall_s, share)) in enumerate(zip(order, runs)):
        steal = "n/a" if share is None else "%.2f%%" % (100 * share)
        print("  pair %2d %s  %7.2f s  steal %s%s" % (
            index // 2 + 1, side.upper(), wall_s, steal,
            "  *" if spells[index // 2] else ""), file=out)
    flagged = sum(spells)
    if flagged:
        print("  * %d of %d pairs ran during a steal spell (> %.1f%%)" % (
            flagged, pairs, 100 * STEAL_SPELL), file=out)

    by_side = {"a": [], "b": []}
    for side, (metrics, _, _) in zip(order, runs):
        by_side[side].append(metrics)
    names = sorted(set().union(*by_side["a"], *by_side["b"]))
    print("%-44s %12s %10s %12s %10s %7s %7s %8s" % (
        "metric", "A median", "A IQR", "B median", "B IQR", "B/A",
        "B won", "p"), file=out)
    for name in names:
        a = [m[name] for m in by_side["a"] if name in m]
        b = [m[name] for m in by_side["b"] if name in m]
        if len(a) != pairs or len(b) != pairs:
            continue
        a_med, a_iqr = median_iqr(a)
        b_med, b_iqr = median_iqr(b)
        ratio = b_med / a_med if a_med else float("nan")
        if name in higher:
            b_wins, a_wins = pairs_won(a, b, higher[name])
            won = "%3d/%-3d %8.4f" % (b_wins, pairs,
                                       sign_test_p(b_wins, a_wins))
        else:
            won = "%7s %8s" % ("-", "-")
        print("%-44s %12.6g %10.4g %12.6g %10.4g %7.3f %s" % (
            name + (" (+)" if higher.get(name) else ""), a_med, a_iqr,
            b_med, b_iqr, ratio, won), file=out)
    print("(+) higher is better; B won counts the pairs B did better in; "
          "- where the direction is unknown", file=out)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--a", required=True, help="baseline revision")
    parser.add_argument("--b", required=True, help="candidate revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workdir", help="where the exports go, kept "
                        "after the run (default: a temporary directory, "
                        "removed at exit)")
    parser.add_argument("--build", default=DEFAULT_BUILD,
                        help="shell command run once in each export; "
                        "'' skips the build")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- COMMAND ARGS...")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else \
        args.command
    if not command or args.pairs < 1:
        parser.error("a command after -- and --pairs >= 1 are required")

    repo = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    if args.workdir:
        return ab_run(args, command, repo, args.workdir)
    with tempfile.TemporaryDirectory(prefix="abrun-") as workdir:
        return ab_run(args, command, repo, workdir)


def ab_run(args, command, repo, workdir):
    """Exports and builds both revisions under `workdir`, runs the pairs
    and prints the report; returns the exit status."""
    checkouts = {}
    for side, revision in (("a", args.a), ("b", args.b)):
        dest = os.path.join(workdir, side)
        try:
            export_revision(repo, revision, dest)
            if args.build:
                subprocess.run(args.build, shell=True, cwd=dest,
                               stdout=sys.stderr, check=True)
        except (subprocess.CalledProcessError, OSError) as error:
            print("abrun: %s (%s): %s" % (side.upper(), revision, error),
                  file=sys.stderr)
            return 2
        checkouts[side] = dest
    print("abrun: A = %s, B = %s, %d pairs of: %s" % (
        args.a, args.b, args.pairs, shlex.join(command)))

    order = abba_order(args.pairs)
    hz = os.sysconf("SC_CLK_TCK")
    ncpu = os.cpu_count() or 1
    higher = benchmark_directions(checkouts["a"])
    runs = []
    for index, side in enumerate(order):
        json_path = os.path.join(workdir, "run-%d-%s.json" % (index, side))
        try:
            metrics, wall_s, steal = run_once(command, checkouts[side],
                                              index // 2 + 1, json_path,
                                              higher)
        except RuntimeError as error:
            print("abrun: run %d (%s) failed: %s" % (
                index + 1, side.upper(), error), file=sys.stderr)
            return 1
        share = None if steal is None else steal / (wall_s * hz * ncpu)
        runs.append((metrics, wall_s, share))
    report(runs, order, higher)
    return 0

if __name__ == "__main__":
    sys.exit(main())
