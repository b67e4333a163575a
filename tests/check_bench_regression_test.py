#!/usr/bin/env python3
"""Unit tests for bench/check_bench_regression.py.

Covers the comparison logic and — the regression this file exists for —
the malformed-input handling: a bad JSON file must produce exit status 2
and a message naming the file and offending record, never a raw
KeyError/TypeError traceback.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
    "check_bench_regression.py",
)


def record(bench="gemm", shape="64x64", isa="avx2", value=10.0,
           metric="gflops"):
    return {"bench": bench, "shape": shape, "isa": isa, "value": value,
            "metric": metric}


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_check(self, current, baseline, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, current, baseline, *extra],
            capture_output=True, text=True,
        )

    # ------------------------------------------------ comparison logic

    def test_within_tolerance_passes(self):
        cur = self.write("cur.json", [record(value=8.0)])
        base = self.write("base.json", [record(value=10.0)])
        proc = self.run_check(cur, base, "--tolerance", "0.30")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("ok", proc.stdout)

    def test_regression_fails_with_status_one(self):
        cur = self.write("cur.json", [record(value=5.0)])
        base = self.write("base.json", [record(value=10.0)])
        proc = self.run_check(cur, base, "--tolerance", "0.30")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)

    def test_one_sided_records_never_fail(self):
        cur = self.write("cur.json", [record(bench="only_current")])
        base = self.write("base.json", [record(bench="only_baseline")])
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("in baseline only", proc.stdout)
        self.assertIn("new record, no baseline", proc.stdout)

    def test_non_gflops_records_ignored_even_if_malformed(self):
        cur = self.write(
            "cur.json",
            [record(value=10.0), {"metric": "seconds", "weird": True}],
        )
        base = self.write("base.json", [record(value=10.0)])
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    # ------------------------------------------- metric allowlist logic

    def test_scale_graph_throughput_metrics_are_gated(self):
        cur = self.write(
            "cur.json",
            [record(bench="scale_graph_build", shape="1e6 edges", isa="any",
                    metric="medges_per_s", value=2.0)],
        )
        base = self.write(
            "base.json",
            [record(bench="scale_graph_build", shape="1e6 edges", isa="any",
                    metric="medges_per_s", value=10.0)],
        )
        proc = self.run_check(cur, base, "--tolerance", "0.30")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("medges_per_s", proc.stdout)

    def test_rss_records_are_informational_only(self):
        # Memory records are lower-is-better and host-dependent; the gate
        # must ignore them no matter how wildly they differ.
        cur = self.write(
            "cur.json",
            [record(value=10.0),
             record(metric="rss_mb", value=9999.0)],
        )
        base = self.write(
            "base.json",
            [record(value=10.0),
             record(metric="rss_mb", value=1.0)],
        )
        proc = self.run_check(cur, base)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_metrics_keyed_independently_per_record(self):
        # The same (bench, shape, isa) can carry several metrics; each is
        # matched to its own baseline, not the last one parsed.
        cur = self.write(
            "cur.json",
            [record(metric="medges_per_s", value=10.0),
             record(metric="kwalks_per_s", value=2.0)],
        )
        base = self.write(
            "base.json",
            [record(metric="medges_per_s", value=10.0),
             record(metric="kwalks_per_s", value=10.0)],
        )
        proc = self.run_check(cur, base, "--tolerance", "0.30")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("kwalks_per_s", proc.stdout)

    def test_lower_is_better_metrics_gate_as_ceilings(self):
        # Refresh latency and serving-matrix bytes fail when they grow more
        # than the tolerance above baseline, and pass when they shrink.
        for metric in ("refresh_p50_ms", "refresh_p95_ms", "fp32_matrix_mb",
                       "int8_matrix_mb", "bf16_matrix_mb"):
            with self.subTest(metric=metric):
                base = self.write(
                    "base.json", [record(metric=metric, value=10.0)])
                worse = self.write(
                    "worse.json", [record(metric=metric, value=13.5)])
                proc = self.run_check(worse, base, "--tolerance", "0.30")
                self.assertEqual(proc.returncode, 1,
                                 proc.stdout + proc.stderr)
                self.assertIn("REGRESSION", proc.stdout)
                self.assertIn("ceiling 13.00", proc.stdout)
                for value in (12.5, 1.0):
                    better = self.write(
                        "better.json",
                        [record(metric=metric, value=value)])
                    proc = self.run_check(better, base, "--tolerance", "0.30")
                    self.assertEqual(proc.returncode, 0,
                                     proc.stdout + proc.stderr)

    def test_throughput_far_above_baseline_still_passes(self):
        cur = self.write("cur.json", [record(value=100.0)])
        base = self.write("base.json", [record(value=10.0)])
        proc = self.run_check(cur, base, "--tolerance", "0.30")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("floor 7.00", proc.stdout)

    def test_directions_mixed_in_one_file(self):
        # A latency drop must not mask a throughput drop in the same run.
        cur = self.write(
            "cur.json",
            [record(metric="refresh_p50_ms", value=1.0),
             record(metric="serve_keps", value=1.0)],
        )
        base = self.write(
            "base.json",
            [record(metric="refresh_p50_ms", value=10.0),
             record(metric="serve_keps", value=10.0)],
        )
        proc = self.run_check(cur, base, "--tolerance", "0.30")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("1 record(s) regressed", proc.stdout)

    # ------------------------------------------- malformed-input paths

    def assert_clean_failure(self, proc, *needles):
        """Exit status 2, no traceback, stderr names the problem."""
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertNotIn("Traceback", proc.stdout)
        for needle in needles:
            self.assertIn(needle, proc.stderr, proc.stderr)

    def test_missing_file(self):
        base = self.write("base.json", [record()])
        missing = os.path.join(self.dir.name, "nope.json")
        self.assert_clean_failure(
            self.run_check(missing, base), "ERROR", "nope.json",
            "cannot read")

    def test_invalid_json(self):
        cur = self.write("cur.json", "{not json")
        base = self.write("base.json", [record()])
        self.assert_clean_failure(
            self.run_check(cur, base), "ERROR", "cur.json", "invalid JSON")

    def test_top_level_not_a_list(self):
        cur = self.write("cur.json", {"bench": "gemm"})
        base = self.write("base.json", [record()])
        self.assert_clean_failure(
            self.run_check(cur, base), "ERROR", "cur.json",
            "must be a JSON array")

    def test_record_not_an_object(self):
        cur = self.write("cur.json", [record(), "gemm"])
        base = self.write("base.json", [record()])
        self.assert_clean_failure(
            self.run_check(cur, base), "ERROR", "record #1",
            "not a JSON object")

    def test_record_missing_field(self):
        bad = record()
        del bad["shape"]
        cur = self.write("cur.json", [bad])
        base = self.write("base.json", [record()])
        self.assert_clean_failure(
            self.run_check(cur, base), "ERROR", "record #0", "'shape'")

    def test_record_field_wrong_type(self):
        cur = self.write("cur.json", [record(value="fast")])
        base = self.write("base.json", [record()])
        self.assert_clean_failure(
            self.run_check(cur, base), "ERROR", "record #0", "'value'")

    def test_malformed_baseline_also_caught(self):
        cur = self.write("cur.json", [record()])
        base = self.write("base.json", [{"metric": "gflops"}])
        self.assert_clean_failure(
            self.run_check(cur, base), "ERROR", "base.json", "record #0")


if __name__ == "__main__":
    unittest.main()
