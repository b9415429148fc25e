#!/usr/bin/env python3
"""Compare a fresh BENCH_pipeline_throughput.json against the committed
baseline and flag regressions (the ROADMAP's cross-PR trend-tracking item).

The bench emits a stable schema; this tool walks both documents in
parallel and judges the metrics it understands, direction-aware:

  - rate metrics (``events_per_sec``, ``attempts_per_sec``): higher is
    better; a drop of more than ``--threshold`` (default 10%) is a
    regression.
  - cost metrics (``cpu_seconds``, ``wake_latency_s``): lower is better; a
    rise of more than ``--threshold`` is a regression, but only when the
    change also clears a small absolute floor — shared CI runners cannot
    time 1.5ms vs 1.7ms meaningfully.
  - invariant metrics (``lost_events``, ``reject_allocs``,
    ``invalid_slot_allocs``, ``busy_passes``, ``record_allocs``): must stay
    zero; any nonzero current value is a regression regardless of
    threshold.
  - ceiling metrics (``overhead_pct``): judged against a hard absolute
    ceiling, not against the baseline — telemetry overhead must stay under
    5% no matter what the (noise-prone) baseline measured.

Entries in ``configs[]`` are matched by (mode, producers). Everything else
(counts, elapsed times, worker steps) is context, not judged.

A section (or judged metric) present in the current document but absent
from the committed baseline — a freshly added bench scenario, e.g. the
``net`` section — is reported as a WARN row with a note instead of being
silently dropped or failing the run: the new numbers cannot regress
against nothing, and the note tells the author to refresh the baseline so
the next PR *is* judged.

The reverse — a judged section, metric, or ``configs[]`` entry that the
baseline has but the current document lacks — is a FAIL row with a note:
a scenario that silently stops reporting would otherwise take its
invariants with it. Deleting a scenario therefore lands together with
removing it from the committed baseline.

Usage:
  tools/bench_diff.py --baseline bench/baselines/pipeline_throughput.json \
                      --current BENCH_pipeline_throughput.json
Exit status: 0 = no regressions, 1 = regressions or missing baseline
sections found (suppress with --warn-only, e.g. on noisy shared runners),
2 = bad invocation/inputs.
"""

import argparse
import json
import sys

RATE_KEYS = {"events_per_sec", "attempts_per_sec", "submits_per_sec"}
COST_KEYS = {"cpu_seconds", "wake_latency_s"}
ZERO_KEYS = {"lost_events", "reject_allocs", "invalid_slot_allocs",
             "busy_passes", "unaccounted_events", "record_allocs"}
# Absolute floors for cost metrics: ignore a relative rise that is smaller
# than this many seconds — timer noise, not a regression.
COST_FLOORS = {"cpu_seconds": 0.003, "wake_latency_s": 0.05}
# Hard absolute ceilings, judged independently of the baseline value: the
# current value must stay strictly below the ceiling.
CEILING_KEYS = {"overhead_pct": 5.0}

JUDGED_KEYS = RATE_KEYS | COST_KEYS | ZERO_KEYS | set(CEILING_KEYS)

NEW_SECTION_NOTE = ("not in baseline — refresh the committed baseline to "
                    "judge it")
MISSING_NOTE = ("in baseline but missing from current — restore it, or drop "
                "it from the baseline with the change that removes it")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def contains_judged(node):
    """True when `node`'s subtree holds at least one judgeable metric."""
    if isinstance(node, dict):
        return any(is_judged(key, value) for key, value in node.items())
    if isinstance(node, list):
        return any(contains_judged(e) for e in node)
    return False


def is_judged(key, value):
    return (key in JUDGED_KEYS and is_number(value)) or contains_judged(value)


def walk(baseline, current, path, rows):
    """Recursively pair up the two documents, collecting judged metrics."""
    if isinstance(baseline, dict) and isinstance(current, dict):
        for key in baseline:
            if key in current:
                walk(baseline[key], current[key], f"{path}.{key}", rows)
            elif is_judged(key, baseline[key]):
                rows.append((f"{path}.{key}", None, None, "FAIL",
                             MISSING_NOTE))
        for key in current:
            # A judged section/metric the baseline has never seen: WARN
            # with a note, never a hard error — a new bench scenario must
            # be able to land together with its baseline refresh.
            if key not in baseline and is_judged(key, current[key]):
                rows.append((f"{path}.{key}", None, None, "WARN",
                             NEW_SECTION_NOTE))
        return
    if isinstance(baseline, list) and isinstance(current, list):
        # configs[] entries are keyed by (mode, producers); other lists
        # (worker_steps) are context and skipped.
        def entry_key(e):
            return (e.get("mode"), e.get("producers")) if isinstance(e, dict) \
                else None
        current_by_key = {entry_key(e): e for e in current
                          if entry_key(e) is not None}
        baseline_keys = {entry_key(e) for e in baseline}
        for entry in baseline:
            key = entry_key(entry)
            if key is None:
                continue
            if key in current_by_key:
                walk(entry, current_by_key[key],
                     f"{path}[{key[0]}/p{key[1]}]", rows)
            elif contains_judged(entry):
                rows.append((f"{path}[{key[0]}/p{key[1]}]", None, None,
                             "FAIL", MISSING_NOTE))
        for key, entry in current_by_key.items():
            if key not in baseline_keys and contains_judged(entry):
                rows.append((f"{path}[{key[0]}/p{key[1]}]", None, None,
                             "WARN", NEW_SECTION_NOTE))
        return
    leaf = path.rsplit(".", 1)[-1]
    if not isinstance(baseline, (int, float)) or isinstance(baseline, bool):
        return
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        return
    if leaf in RATE_KEYS:
        rows.append(judge_rate(path, leaf, baseline, current))
    elif leaf in COST_KEYS:
        rows.append(judge_cost(path, leaf, baseline, current))
    elif leaf in ZERO_KEYS:
        rows.append(judge_zero(path, baseline, current))
    elif leaf in CEILING_KEYS:
        rows.append(judge_ceiling(path, leaf, baseline, current))


def judge_rate(path, leaf, base, cur):
    if base <= 0:
        return (path, base, cur, "skip", "baseline is zero")
    change = (cur - base) / base
    verdict = "REGRESSION" if change < -ARGS.threshold else "ok"
    return (path, base, cur, verdict, f"{change:+.1%}")


def judge_cost(path, leaf, base, cur):
    floor = COST_FLOORS.get(leaf, 0.0)
    if cur - base < floor:
        return (path, base, cur, "ok", "within absolute floor")
    if base <= 0:
        # Baseline measured as free; any above-floor cost is new.
        return (path, base, cur, "REGRESSION", f"+{cur - base:.4f}s")
    change = (cur - base) / base
    verdict = "REGRESSION" if change > ARGS.threshold else "ok"
    return (path, base, cur, verdict, f"{change:+.1%}")


def judge_zero(path, base, cur):
    if cur == 0:
        return (path, base, cur, "ok", "invariant holds")
    return (path, base, cur, "REGRESSION", "must stay zero")


def judge_ceiling(path, leaf, base, cur):
    ceiling = CEILING_KEYS[leaf]
    if cur < ceiling:
        return (path, base, cur, "ok", f"under ceiling {ceiling:g}")
    return (path, base, cur, "REGRESSION", f"ceiling is {ceiling:g}")


def main():
    global ARGS
    parser = argparse.ArgumentParser(
        description="diff BENCH_pipeline_throughput.json against a baseline")
    parser.add_argument("--baseline",
                        default="bench/baselines/pipeline_throughput.json")
    parser.add_argument("--current", default="BENCH_pipeline_throughput.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative change that counts as a regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (noisy runners)")
    ARGS = parser.parse_args()

    try:
        with open(ARGS.baseline) as f:
            baseline = json.load(f)
        with open(ARGS.current) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot load inputs: {e}", file=sys.stderr)
        return 2

    rows = []
    walk(baseline, current, "$", rows)
    if not rows:
        print("bench_diff: no comparable metrics found (schema mismatch?)",
              file=sys.stderr)
        return 2

    width = max(len(r[0]) for r in rows)
    regressions = 0
    warnings = 0
    missing = 0
    for path, base, cur, verdict, note in rows:
        if verdict == "REGRESSION":
            regressions += 1
        elif verdict == "WARN":
            warnings += 1
        elif verdict == "FAIL":
            missing += 1
        base_s = f"{base:<14.6g}" if base is not None else f"{'-':<14}"
        cur_s = f"{cur:<14.6g}" if cur is not None else f"{'-':<14}"
        print(f"{path:<{width}}  base={base_s} cur={cur_s} "
              f"{verdict:<10} {note}")
    # Always end on an explicit one-line verdict, so a green run is
    # greppable in CI logs and a human skimming the step sees the outcome
    # without counting rows.
    failed = regressions + missing
    if failed == 0:
        verdict = "PASS"
    elif ARGS.warn_only:
        verdict = "WARN (not gating)"
    else:
        verdict = "FAIL"
    missing_note = (f", {missing} baseline section(s) missing from current"
                    if missing else "")
    new_note = (f", {warnings} new section(s) awaiting a baseline"
                if warnings else "")
    print(f"\nbench_diff: {verdict} — {len(rows) - warnings - missing} "
          f"metrics judged, {regressions} regression(s) at threshold "
          f"{ARGS.threshold:.0%}{missing_note}{new_note}")
    if failed and not ARGS.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
