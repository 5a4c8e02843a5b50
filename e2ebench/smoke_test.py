#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark itself, at a tiny scale factor.

    python3 e2ebench/smoke_test.py

Runs every workload of BENCHMARK.json through e2ebench/run.py at SF 0.002 with
a handful of queries, untraced and traced, and asserts that every metric the
benchmark declares is emitted, finite and carries its declared unit, and that
every check passed. Then it corrupts reference results on purpose -- one
for each of the row-count, ORDER BY and value comparisons -- and asserts that
each comparison reports its failure, that the failures are counted (failed,
failed_frac) and that the command exits non-zero. Takes about a minute after the build.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = ["--sf", "0.002", "--max-queries", "14"]
# --corrupt-reference breaks one reference per kind of result check; each
# must be reported on its own.
WRONG_RESULTS = {
    "row count": r"CHECK FAILED \S+ result pass: \d+ rows, reference has \d+",
    "ORDER BY sequence": r"CHECK FAILED \S+ result pass: row \d+ out of order",
    "value": r"CHECK FAILED \S+ result pass: row \(.*\) vs reference \(",
}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + TINY + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace):
        code, result, stderr = run(workload, trace)
        self.assertEqual(code, 0, stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_result(w["name"], trace)

    def test_wrong_reference_is_counted_as_failed(self):
        workload = SPEC["workloads"][0]["name"]
        for trace in (1, 0):
            code, result, stderr = run(workload, trace, "--corrupt-reference")
            self.assertNotEqual(code, 0)
            self.assertFalse(result["correct"])
            self.assertGreaterEqual(result["failed"], len(WRONG_RESULTS))
            if trace:
                self.assertGreater(result["metrics"]["failed_frac"]["value"], 0)
            for check, pattern in WRONG_RESULTS.items():
                self.assertRegex(stderr, pattern, f"{check} check did not fail")


if __name__ == "__main__":
    unittest.main()
