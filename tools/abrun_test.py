#!/usr/bin/env python3
"""Self-test of tools/abrun.py: its statistics, its ABBA order, and a whole
A/B run over a throwaway git repository whose two commits hold a fake
command (no build).

The fake command appends its side and its `{pair}` number to a log, so the
log must read the ABBA order back; side B is better on every metric, so B must win every pair
with the sign-test p-value of that many pairs. One batch reads the result
from the last line of output, whose metrics' directions come from the
fake repository's BENCHMARK.json, one from a `{json}` file in the bench
harness's schema, whose gates show their direction by the side of the bound
they pass on. The first batch runs in a temporary directory that must be
gone afterwards; the second exports into --workdir, and a third batch into
the same --workdir is refused.

Usage: python3 tools/abrun_test.py
"""

import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import abrun  # noqa: E402

FAKE = """import json, sys
SIDE, LATENCY, THROUGHPUT = %r, %r, %r
with open(sys.argv[1], "a") as log:
    log.write(SIDE + sys.argv[-1][-1])
if len(sys.argv) > 3:
    with open(sys.argv[2], "w") as out:
        json.dump({"cases": [{"name": "op", "min_ns": LATENCY,
                              "median_ns": LATENCY + 1}],
                   "gates": [
                       {"name": "ratio", "value": LATENCY / 10, "bound": 4,
                        "pass": LATENCY / 10 <= 4},
                       {"name": "speedup", "value": THROUGHPUT / 100,
                        "bound": 0.5, "pass": THROUGHPUT / 100 >= 0.5},
                       {"name": "failures", "value": 0, "bound": 0,
                        "pass": True}]},
                  out)
    print("table")
else:
    print(json.dumps({"metrics": {
        "latency_us": {"value": LATENCY, "unit": "us"},
        "throughput_per_s": {"value": THROUGHPUT, "unit": "1/s"}}}))
"""

failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print("FAIL: " + what)


def test_statistics():
    check(abrun.abba_order(3) == list("abbaab"), "abba_order(3)")
    check(abrun.sign_test_p(6, 0) == 2 / 64, "p of 6/6")
    check(abrun.sign_test_p(0, 6) == 2 / 64, "p of 0/6")
    check(abrun.sign_test_p(5, 1) == 2 * 7 / 64, "p of 5/6")
    check(abrun.sign_test_p(3, 3) == 1.0, "p of 3/6 is capped at 1")
    check(abrun.sign_test_p(0, 0) == 1.0, "p of no pairs")
    check(abrun.median_iqr([5, 1, 4, 2, 3]) == (3, 2), "median/IQR of 1..5")
    check(abrun.median_iqr([7]) == (7, 0.0), "median/IQR of one value")
    check(abrun.pairs_won([1, 2, 3], [0, 2, 4], False) == (1, 1),
          "a tie counts for neither side")
    check(abrun.pairs_won([1, 2, 3], [0, 2, 4], True) == (1, 1),
          "higher-is-better flips each win")
    higher = {}
    check(abrun.extract_metrics({"metrics": {"x": {"value": 2}, "ok": True}},
                                higher) == {"x": 2.0} and higher == {},
          "perfbench result metrics carry no direction")
    bench = {"cases": [{"name": "c", "min_ns": 5, "median_ns": 6}],
             "gates": [{"name": "ceiling", "value": 3, "bound": 4,
                        "pass": True},
                       {"name": "floor", "value": 3, "bound": 4,
                        "pass": False},
                       {"name": "over", "value": 5, "bound": 4,
                        "pass": False},
                       {"name": "at", "value": 0, "bound": 0, "pass": True}]}
    higher = {}
    abrun.extract_metrics(bench, higher)
    check(higher == {"c.min_ns": False, "c.median_ns": False,
                     "gate.ceiling": False, "gate.floor": True,
                     "gate.over": False},
          "case ns stats are lower-is-better and a gate's direction is the "
          "side of its bound it passes on: %r" % higher)


def test_report_flags_steal_spells():
    out = io.StringIO()
    runs = [({"m": 1.0}, 1.0, 0.0), ({"m": 2.0}, 1.0, 0.0),
            ({"m": 2.0}, 1.0, 0.5), ({"m": 1.0}, 1.0, None)]
    abrun.report(runs, abrun.abba_order(2), {"m": False}, out)
    text = out.getvalue()
    check("1 of 2 pairs ran during a steal spell" in text,
          "a pair with a 50% steal run is flagged:\n" + text)
    marked = [line for line in text.splitlines() if line.endswith("  *")]
    check(len(marked) == 2 and all(line.split()[:2] == ["pair", "2"]
                                   for line in marked),
          "both runs of the flagged pair are marked:\n" + text)


def git(repo, *args):
    subprocess.run(["git", "-C", repo, "-c", "user.name=abrun",
                    "-c", "user.email=abrun@localhost", *args], check=True,
                   stdout=subprocess.DEVNULL)


def test_whole_run():
    with tempfile.TemporaryDirectory() as tmp:
        repo = os.path.join(tmp, "repo")
        os.makedirs(repo)
        git(repo, "init", "-q")
        pathlib.Path(repo, "BENCHMARK.json").write_text(json.dumps({
            "end_to_end": [{"name": "latency_us", "better": "lower"},
                           {"name": "throughput_per_s", "better": "higher"}]}))
        for side, latency, throughput in (("a", 10, 100), ("b", 5, 200)):
            pathlib.Path(repo, "fake.py").write_text(
                FAKE % (side, latency, throughput))
            git(repo, "add", "fake.py", "BENCHMARK.json")
            git(repo, "commit", "-q", "-m", side)
            git(repo, "tag", side)
        scratch = os.path.join(tmp, "tmpdir")
        os.makedirs(scratch)
        workdir = os.path.join(tmp, "work")
        for pairs, json_arg, where in ((4, [], []),
                                       (3, ["{json}"], ["--workdir", workdir])):
            log = os.path.join(tmp, "order-%d.log" % pairs)
            built = os.path.join(tmp, "built-%d.log" % pairs)
            proc = subprocess.run(
                [sys.executable, str(TOOLS / "abrun.py"), "--a", "a",
                 "--b", "b", "--pairs", str(pairs), *where,
                 "--build", "pwd >> " + built, "--",
                 sys.executable, "fake.py", log, *json_arg, "pair{pair}"],
                cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=dict(os.environ, TMPDIR=scratch))
            check(proc.returncode == 0, "abrun exit %d: %s" % (
                proc.returncode, proc.stderr))
            with open(log) as f:
                order = f.read()
            want = "".join(side + str(i // 2 + 1) for i, side in
                           enumerate(abrun.abba_order(pairs)))
            check(order == want, "runs in ABBA order with their pair "
                  "numbers: want %r, got %r" % (want, order))
            with open(built) as f:
                dirs = [os.path.basename(d) for d in f.read().split()]
            check(dirs == ["a", "b"], "the build ran once in each export: "
                  "%r" % dirs)
            p = "%.4f" % (2 / 2 ** pairs)
            rows = [line.split() for line in proc.stdout.splitlines()]
            names = ["latency_us", "throughput_per_s"] if not json_arg else \
                ["op.min_ns", "op.median_ns", "gate.ratio", "gate.speedup"]
            for name in names:
                row = next((r for r in rows if r and r[0] == name), None)
                check(row is not None and row[-2] == "%d/%d" % (pairs, pairs)
                      and row[-1] == p,
                      "B wins %s in every pair with p %s: %r\n%s" % (
                          name, p, row, proc.stdout))
            if json_arg:
                row = next((r for r in rows if r and r[0] == "gate.failures"),
                           None)
                check(row is not None and row[-2:] == ["-", "-"],
                      "a gate on its bound gets no win count: %r" % row)
        check(os.listdir(scratch) == [],
              "the temporary workdir is removed: %r" % os.listdir(scratch))
        check(os.path.isdir(os.path.join(workdir, "b")),
              "an export into --workdir is kept")
        again = subprocess.run(
            [sys.executable, str(TOOLS / "abrun.py"), "--a", "a", "--b", "b",
             "--workdir", workdir, "--build", "", "--", "true"], cwd=repo,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        check(again.returncode == 2 and "exists" in again.stderr,
              "an export into a used --workdir is refused: %d %s" % (
                  again.returncode, again.stderr))

def main():
    test_statistics()
    test_report_flags_steal_spells()
    test_whole_run()
    if failures:
        print("abrun_test: %d checks failed" % len(failures))
        return 1
    print("abrun_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
