#!/usr/bin/env python3
"""Tests for tools/bench_diff.py: direction-awareness (rates down = bad,
costs up = bad), the absolute floors that keep timer noise out of cost
verdicts, the must-stay-zero invariants, configs[] entry matching, new and
missing sections, and the CLI exit codes. Run directly (python3 tools/bench_diff_test.py) or via
ctest; CI runs it as its own step.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def judge(baseline, current, threshold=0.10):
    """Run bench_diff's walk over two documents, returning its judged rows."""
    bench_diff.ARGS = argparse.Namespace(threshold=threshold)
    rows = []
    bench_diff.walk(baseline, current, "$", rows)
    return rows


def verdicts(rows):
    return {path: verdict for path, _, _, verdict, _ in rows}


class WalkAndJudgeTest(unittest.TestCase):
    def test_rate_drop_beyond_threshold_is_regression(self):
        rows = judge({"events_per_sec": 1000.0}, {"events_per_sec": 800.0})
        self.assertEqual(verdicts(rows)["$.events_per_sec"], "REGRESSION")

    def test_rate_drop_within_threshold_is_ok(self):
        rows = judge({"events_per_sec": 1000.0}, {"events_per_sec": 950.0})
        self.assertEqual(verdicts(rows)["$.events_per_sec"], "ok")

    def test_rate_rise_is_never_a_regression(self):
        # Direction-awareness: higher is better for rates, even +1000%.
        rows = judge({"events_per_sec": 100.0}, {"events_per_sec": 1100.0})
        self.assertEqual(verdicts(rows)["$.events_per_sec"], "ok")

    def test_zero_baseline_rate_is_skipped_not_crashed(self):
        rows = judge({"events_per_sec": 0}, {"events_per_sec": 100.0})
        self.assertEqual(verdicts(rows)["$.events_per_sec"], "skip")

    def test_cost_rise_beyond_threshold_and_floor_is_regression(self):
        # +100% and +0.1s: clears both the relative threshold and the 3ms
        # absolute floor.
        rows = judge({"cpu_seconds": 0.1}, {"cpu_seconds": 0.2})
        self.assertEqual(verdicts(rows)["$.cpu_seconds"], "REGRESSION")

    def test_cost_drop_is_never_a_regression(self):
        # Direction-awareness: lower is better for costs.
        rows = judge({"cpu_seconds": 0.2}, {"cpu_seconds": 0.01})
        self.assertEqual(verdicts(rows)["$.cpu_seconds"], "ok")

    def test_cost_rise_under_absolute_floor_is_ok(self):
        # +50% relative but only +0.5ms absolute: timer noise, not a
        # regression (the floor for cpu_seconds is 3ms).
        rows = judge({"cpu_seconds": 0.001}, {"cpu_seconds": 0.0015})
        self.assertEqual(verdicts(rows)["$.cpu_seconds"], "ok")

    def test_free_baseline_cost_above_floor_is_regression(self):
        # Baseline measured 0: any above-floor cost is new, with no
        # relative change to divide by.
        rows = judge({"cpu_seconds": 0.0}, {"cpu_seconds": 0.05})
        self.assertEqual(verdicts(rows)["$.cpu_seconds"], "REGRESSION")

    def test_zero_invariant_violation_regresses_regardless_of_threshold(self):
        rows = judge({"lost_events": 0}, {"lost_events": 1}, threshold=1e9)
        self.assertEqual(verdicts(rows)["$.lost_events"], "REGRESSION")

    def test_zero_invariant_holds(self):
        for key in ("lost_events", "reject_allocs", "invalid_slot_allocs",
                    "busy_passes", "unaccounted_events", "record_allocs"):
            rows = judge({key: 0}, {key: 0})
            self.assertEqual(verdicts(rows)[f"$.{key}"], "ok", key)

    def test_ceiling_breach_regresses_even_with_worse_baseline(self):
        # Ceiling metrics ignore the baseline entirely: a baseline that
        # itself breached the ceiling must not grandfather the breach in.
        rows = judge({"overhead_pct": 9.0}, {"overhead_pct": 6.0},
                     threshold=1e9)
        self.assertEqual(verdicts(rows)["$.overhead_pct"], "REGRESSION")

    def test_under_ceiling_is_ok_even_if_worse_than_baseline(self):
        # Direction vs baseline does not matter, only the absolute ceiling:
        # 0.1% -> 4.9% is a big relative rise but still within budget.
        rows = judge({"overhead_pct": 0.1}, {"overhead_pct": 4.9})
        self.assertEqual(verdicts(rows)["$.overhead_pct"], "ok")

    def test_ceiling_exact_value_is_a_breach(self):
        rows = judge({"overhead_pct": 0.0}, {"overhead_pct": 5.0})
        self.assertEqual(verdicts(rows)["$.overhead_pct"], "REGRESSION")

    def test_unjudged_context_metrics_are_ignored(self):
        rows = judge({"events": 100, "elapsed_s": 1.0, "worker_steps": [4, 2]},
                     {"events": 5, "elapsed_s": 99.0, "worker_steps": [1]})
        self.assertEqual(rows, [])

    def test_configs_matched_by_mode_and_producers_not_position(self):
        baseline = {"configs": [
            {"mode": "direct", "producers": 1, "events_per_sec": 1000.0},
            {"mode": "pipeline", "producers": 4, "events_per_sec": 2000.0},
        ]}
        # Same entries, reversed order, pipeline/p4 regressed.
        current = {"configs": [
            {"mode": "pipeline", "producers": 4, "events_per_sec": 500.0},
            {"mode": "direct", "producers": 1, "events_per_sec": 1000.0},
        ]}
        v = verdicts(judge(baseline, current))
        self.assertEqual(v["$.configs[direct/p1].events_per_sec"], "ok")
        self.assertEqual(v["$.configs[pipeline/p4].events_per_sec"],
                         "REGRESSION")

    def test_baseline_entry_missing_from_current_fails(self):
        # The baseline-only entry (p8) stopped reporting — a FAIL row; the
        # current-only entry (p1) is new coverage — a WARN row. Neither is
        # a bogus comparison between different configs.
        baseline = {"configs": [
            {"mode": "direct", "producers": 8, "events_per_sec": 1000.0}]}
        current = {"configs": [
            {"mode": "direct", "producers": 1, "events_per_sec": 1.0}]}
        rows = judge(baseline, current)
        self.assertEqual(verdicts(rows), {"$.configs[direct/p8]": "FAIL",
                                          "$.configs[direct/p1]": "WARN"})

    def test_baseline_section_missing_from_current_fails_with_note(self):
        # Dropping a section must not take its must-stay-zero invariants
        # with it silently.
        baseline = {"events_per_sec": 1000.0,
                    "net": {"events_per_sec": 500000.0, "lost_events": 0}}
        current = {"events_per_sec": 1000.0}
        rows = judge(baseline, current)
        self.assertEqual(verdicts(rows), {"$.events_per_sec": "ok",
                                          "$.net": "FAIL"})
        (_, base, cur, _, note), = [r for r in rows if r[0] == "$.net"]
        self.assertIsNone(base)
        self.assertIsNone(cur)
        self.assertIn("missing from current", note)

    def test_baseline_judged_leaf_missing_from_current_fails(self):
        rows = judge({"events_per_sec": 1.0, "lost_events": 0},
                     {"events_per_sec": 1.0})
        self.assertEqual(verdicts(rows)["$.lost_events"], "FAIL")

    def test_baseline_context_missing_from_current_stays_silent(self):
        # Only judged metrics count; context (counts, steps) may come and go.
        rows = judge({"events_per_sec": 1.0, "meta": {"elapsed_s": 3.0},
                      "worker_steps": [4, 2]},
                     {"events_per_sec": 1.0})
        self.assertEqual(verdicts(rows), {"$.events_per_sec": "ok"})

    def test_nested_missing_section_is_reported_at_its_own_path(self):
        baseline = {"overload": {"shed": {"unaccounted_events": 0},
                                 "spill": {"lost_events": 0}}}
        current = {"overload": {"shed": {"unaccounted_events": 0}}}
        v = verdicts(judge(baseline, current))
        self.assertEqual(v["$.overload.shed.unaccounted_events"], "ok")
        self.assertEqual(v["$.overload.spill"], "FAIL")

    def test_new_section_in_current_warns_with_note(self):
        # A bench scenario landing in the same PR as its first numbers (the
        # net section) has no baseline yet: WARN row, not an error and not
        # silence.
        baseline = {"configs": [
            {"mode": "direct", "producers": 1, "events_per_sec": 1000.0}]}
        current = {"configs": [
            {"mode": "direct", "producers": 1, "events_per_sec": 1000.0}],
            "net": {"events_per_sec": 500000.0, "lost_events": 0}}
        rows = judge(baseline, current)
        self.assertEqual(verdicts(rows)["$.net"], "WARN")
        (_, base, cur, _, note), = [r for r in rows if r[0] == "$.net"]
        self.assertIsNone(base)
        self.assertIsNone(cur)
        self.assertIn("not in baseline", note)

    def test_new_section_without_judged_metrics_stays_silent(self):
        # Context-only additions (counts, timestamps) are not worth a row.
        rows = judge({"events_per_sec": 1.0},
                     {"events_per_sec": 1.0, "meta": {"elapsed_s": 3.0}})
        self.assertNotIn("$.meta", verdicts(rows))

    def test_new_judged_leaf_in_current_warns(self):
        rows = judge({"events_per_sec": 1.0},
                     {"events_per_sec": 1.0, "submits_per_sec": 2.0})
        self.assertEqual(verdicts(rows)["$.submits_per_sec"], "WARN")

    def test_new_configs_entry_in_current_warns(self):
        baseline = {"configs": [
            {"mode": "direct", "producers": 1, "events_per_sec": 1000.0}]}
        current = {"configs": [
            {"mode": "direct", "producers": 1, "events_per_sec": 1000.0},
            {"mode": "net", "producers": 4, "events_per_sec": 2000.0}]}
        v = verdicts(judge(baseline, current))
        self.assertEqual(v["$.configs[direct/p1].events_per_sec"], "ok")
        self.assertEqual(v["$.configs[net/p4]"], "WARN")

    def test_new_section_does_not_mask_real_regressions(self):
        baseline = {"events_per_sec": 1000.0}
        current = {"events_per_sec": 100.0,
                   "net": {"events_per_sec": 500000.0}}
        v = verdicts(judge(baseline, current))
        self.assertEqual(v["$.events_per_sec"], "REGRESSION")
        self.assertEqual(v["$.net"], "WARN")

    def test_nested_sections_are_walked(self):
        baseline = {"overload": {"shed": {"unaccounted_events": 0},
                                 "spill": {"lost_events": 0}}}
        current = {"overload": {"shed": {"unaccounted_events": 0},
                                "spill": {"lost_events": 3}}}
        v = verdicts(judge(baseline, current))
        self.assertEqual(v["$.overload.shed.unaccounted_events"], "ok")
        self.assertEqual(v["$.overload.spill.lost_events"], "REGRESSION")


class CliTest(unittest.TestCase):
    """End-to-end exit-code contract through the real CLI."""

    GOOD = {"events_per_sec": 1000.0, "lost_events": 0}

    def run_cli_full(self, baseline, current, *extra):
        tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "bench_diff.py")
        with tempfile.TemporaryDirectory() as d:
            bpath = os.path.join(d, "baseline.json")
            cpath = os.path.join(d, "current.json")
            with open(bpath, "w") as f:
                json.dump(baseline, f)
            with open(cpath, "w") as f:
                json.dump(current, f)
            return subprocess.run(
                [sys.executable, tool, "--baseline", bpath,
                 "--current", cpath, *extra],
                capture_output=True, text=True)

    def run_cli(self, baseline, current, *extra):
        return self.run_cli_full(baseline, current, *extra).returncode

    def test_clean_diff_exits_zero(self):
        self.assertEqual(self.run_cli(self.GOOD, self.GOOD), 0)

    def test_regression_exits_one(self):
        bad = copy.deepcopy(self.GOOD)
        bad["lost_events"] = 7
        self.assertEqual(self.run_cli(self.GOOD, bad), 1)

    def test_warn_only_suppresses_the_failure(self):
        bad = copy.deepcopy(self.GOOD)
        bad["lost_events"] = 7
        self.assertEqual(self.run_cli(self.GOOD, bad, "--warn-only"), 0)

    def test_clean_diff_prints_pass_verdict(self):
        # The explicit verdict line must appear even when nothing regressed
        # — a green run is a statement, not an absence of output.
        proc = self.run_cli_full(self.GOOD, self.GOOD)
        self.assertIn("bench_diff: PASS", proc.stdout)

    def test_regression_prints_fail_verdict(self):
        bad = copy.deepcopy(self.GOOD)
        bad["lost_events"] = 7
        proc = self.run_cli_full(self.GOOD, bad)
        self.assertIn("bench_diff: FAIL", proc.stdout)

    def test_warn_only_prints_warn_verdict(self):
        bad = copy.deepcopy(self.GOOD)
        bad["lost_events"] = 7
        proc = self.run_cli_full(self.GOOD, bad, "--warn-only")
        self.assertIn("bench_diff: WARN (not gating)", proc.stdout)

    def test_new_section_alone_does_not_fail_the_run(self):
        # WARN rows gate nothing: exit 0, and the verdict line flags the
        # sections still awaiting a baseline refresh.
        cur = copy.deepcopy(self.GOOD)
        cur["net"] = {"events_per_sec": 500000.0, "lost_events": 0}
        proc = self.run_cli_full(self.GOOD, cur)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("bench_diff: PASS", proc.stdout)
        self.assertIn("1 new section(s) awaiting a baseline", proc.stdout)

    def test_missing_baseline_section_fails_the_run(self):
        base = copy.deepcopy(self.GOOD)
        base["net"] = {"events_per_sec": 500000.0, "lost_events": 0}
        proc = self.run_cli_full(base, self.GOOD)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("bench_diff: FAIL", proc.stdout)
        self.assertIn("1 baseline section(s) missing from current",
                      proc.stdout)
        self.assertIn("$.net", proc.stdout)

    def test_missing_baseline_section_warn_only_exits_zero(self):
        base = copy.deepcopy(self.GOOD)
        base["net"] = {"events_per_sec": 500000.0, "lost_events": 0}
        proc = self.run_cli_full(base, self.GOOD, "--warn-only")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("bench_diff: WARN (not gating)", proc.stdout)

    def test_schema_mismatch_exits_two(self):
        self.assertEqual(self.run_cli({"unrelated": 1}, {"other": 2}), 2)

    def test_missing_input_exits_two(self):
        tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "bench_diff.py")
        rc = subprocess.run(
            [sys.executable, tool, "--baseline", "/nonexistent.json",
             "--current", "/nonexistent.json"],
            capture_output=True, text=True).returncode
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
