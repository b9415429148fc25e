#!/usr/bin/env python3
"""Tests for tools/promcheck.py: sample/TYPE grammar, histogram
cumulativity and +Inf closure, the must-stay-zero invariants, required
metrics (a required histogram must be populated), and the CLI exit-code
contract. Run directly or via ctest; CI runs promcheck itself
over the example's real dump.
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import promcheck  # noqa: E402

GOOD = """\
# TYPE countlib_pipeline_events_submitted_total counter
countlib_pipeline_events_submitted_total 1000
# TYPE countlib_pipeline_events_dropped_total counter
countlib_pipeline_events_dropped_total 0
# TYPE countlib_pipeline_queue_depth gauge
countlib_pipeline_queue_depth 12
# TYPE countlib_pipeline_submit_apply_latency_ns histogram
countlib_pipeline_submit_apply_latency_ns_bucket{le="1023"} 2
countlib_pipeline_submit_apply_latency_ns_bucket{le="2047"} 3
countlib_pipeline_submit_apply_latency_ns_bucket{le="+Inf"} 3
countlib_pipeline_submit_apply_latency_ns_sum 3500
countlib_pipeline_submit_apply_latency_ns_count 3
"""


class CheckTest(unittest.TestCase):
    def test_valid_dump_has_no_violations(self):
        self.assertEqual(promcheck.check(GOOD), [])

    def test_sample_without_type_is_flagged(self):
        errors = promcheck.check("countlib_orphan_total 5\n")
        self.assertTrue(any("no preceding # TYPE" in e for e in errors))

    def test_histogram_series_resolve_to_their_family_type(self):
        # _bucket/_sum/_count need the base name's TYPE, not their own.
        self.assertEqual(promcheck.check(GOOD), [])
        errors = promcheck.check(
            "countlib_lat_ns_bucket{le=\"+Inf\"} 1\ncountlib_lat_ns_sum 5\n"
            "countlib_lat_ns_count 1\n")
        self.assertTrue(any("no preceding # TYPE countlib_lat_ns" in e
                            for e in errors))

    def test_unparseable_line_is_flagged(self):
        errors = promcheck.check("!!not prometheus!!\n")
        self.assertTrue(any("unparseable" in e for e in errors))

    def test_non_numeric_value_is_flagged(self):
        errors = promcheck.check(
            "# TYPE m counter\nm twelve\n")
        self.assertTrue(any("non-numeric" in e for e in errors))

    def test_duplicate_type_is_flagged(self):
        errors = promcheck.check(
            "# TYPE m counter\n# TYPE m gauge\nm 1\n")
        self.assertTrue(any("duplicate # TYPE" in e for e in errors))

    def test_noncumulative_histogram_is_flagged(self):
        bad = GOOD.replace('le="2047"} 3', 'le="2047"} 1')
        errors = promcheck.check(bad)
        self.assertTrue(any("not cumulative" in e for e in errors))

    def test_missing_inf_bucket_is_flagged(self):
        bad = "\n".join(l for l in GOOD.splitlines() if "+Inf" not in l)
        errors = promcheck.check(bad)
        self.assertTrue(any("+Inf" in e for e in errors))

    def test_inf_bucket_disagreeing_with_count_is_flagged(self):
        bad = GOOD.replace("_count 3", "_count 7")
        errors = promcheck.check(bad)
        self.assertTrue(any("!= _count" in e for e in errors))

    def test_must_stay_zero_violation_is_flagged(self):
        bad = GOOD.replace("countlib_pipeline_events_dropped_total 0",
                           "countlib_pipeline_events_dropped_total 4")
        errors = promcheck.check(bad)
        self.assertTrue(any("must stay zero" in e for e in errors))

    def test_net_decode_errors_must_stay_zero(self):
        dump = ("# TYPE countlib_net_decode_errors_total counter\n"
                "countlib_net_decode_errors_total {}\n")
        self.assertEqual(promcheck.check(dump.format(0)), [])
        errors = promcheck.check(dump.format(3))
        self.assertTrue(any("countlib_net_decode_errors_total: must stay zero"
                            in e for e in errors))

    def test_pipeline_backstop_rescues_must_stay_zero(self):
        dump = ("# TYPE countlib_pipeline_backstop_rescues_total counter\n"
                "countlib_pipeline_backstop_rescues_total {}\n")
        self.assertEqual(promcheck.check(dump.format(0)), [])
        errors = promcheck.check(dump.format(2))
        self.assertTrue(any("countlib_pipeline_backstop_rescues_total: must "
                            "stay zero" in e for e in errors))

    def test_loadgen_lost_events_must_stay_zero(self):
        dump = ("# TYPE countlib_loadgen_events_lost_total counter\n"
                "countlib_loadgen_events_lost_total {}\n")
        self.assertEqual(promcheck.check(dump.format(0)), [])
        errors = promcheck.check(dump.format(5))
        self.assertTrue(any("countlib_loadgen_events_lost_total: must stay "
                            "zero" in e for e in errors))

    def test_required_metric_missing_is_flagged(self):
        errors = promcheck.check(GOOD, require=["countlib_store_keys"])
        self.assertTrue(any("missing" in e for e in errors))

    def test_required_metric_present_passes(self):
        # A required counter or gauge only has to be present; it may read 0.
        self.assertEqual(
            promcheck.check(
                GOOD, require=["countlib_pipeline_events_submitted_total",
                               "countlib_pipeline_events_dropped_total"]),
            [])

    def test_required_empty_histogram_is_flagged(self):
        # What the exporter writes for a histogram nothing has recorded
        # into: valid on its own, but not as a required metric.
        empty = (
            "# TYPE countlib_pipeline_submit_apply_latency_ns histogram\n"
            "countlib_pipeline_submit_apply_latency_ns_bucket{le=\"+Inf\"} 0\n"
            "countlib_pipeline_submit_apply_latency_ns_sum 0\n"
            "countlib_pipeline_submit_apply_latency_ns_count 0\n")
        self.assertEqual(promcheck.check(empty), [])
        errors = promcheck.check(
            empty, require=["countlib_pipeline_submit_apply_latency_ns"])
        self.assertTrue(any("is empty" in e for e in errors))

    def test_required_populated_histogram_passes(self):
        self.assertEqual(
            promcheck.check(
                GOOD, require=["countlib_pipeline_submit_apply_latency_ns"]),
            [])


class CliTest(unittest.TestCase):
    TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "promcheck.py")

    def run_cli(self, text, *extra):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "metrics.prom")
            with open(path, "w") as f:
                f.write(text)
            return subprocess.run(
                [sys.executable, self.TOOL, path, *extra],
                capture_output=True, text=True).returncode

    def test_valid_dump_exits_zero(self):
        self.assertEqual(self.run_cli(GOOD), 0)

    def test_violation_exits_one(self):
        self.assertEqual(self.run_cli("garbage here\n"), 1)

    def test_empty_file_exits_two(self):
        self.assertEqual(self.run_cli(""), 2)

    def test_missing_file_exits_two(self):
        rc = subprocess.run(
            [sys.executable, self.TOOL, "/nonexistent.prom"],
            capture_output=True, text=True).returncode
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
