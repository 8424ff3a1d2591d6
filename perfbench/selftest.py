#!/usr/bin/env python3
"""Self-test of the benchmark: its checks pass on the code as it is, and
they are not vacuous.

    python3 perfbench/selftest.py

Runs every workload briefly through run.py, untraced and traced, and
expects each to pass with every metric BENCHMARK.json names. Then runs
admit-mixed with the verifier defect verifier.jgt_refine_off_by_one
injected through the FaultRegistry: the defect admits exploits the clean
verifier rejects, so that run must fail its verdict check and exit 1.
Takes about half a minute once perfbench is built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("datapath-1cpu", "datapath-smp", "admit-mixed")


def run(workload, trace=0, seconds=1, extra=()):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_passes(self, workload, trace):
        proc, result = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_short_runs_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_passes(workload, trace=0)

    def test_traced_runs_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_passes(workload, trace=1)

    def test_injected_verifier_defect_fails_the_verdict_check(self):
        proc, result = run("admit-mixed", extra=(
            "--inject-fault", "verifier.jgt_refine_off_by_one"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("expected reject, got admitted", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
