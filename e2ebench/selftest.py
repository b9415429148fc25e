#!/usr/bin/env python3
"""Seeded-slowdown self-test: does the benchmark flag a store slowdown on
the store layer, and only there?

    python3 e2ebench/selftest.py [--pairs 5]

Run from the root of a source checkout. A benchmark-side CounterWriter
decorator (SlowWriter) burns CPU per store update before delegating; its
cost is set to +20% of the store.apply_ns_per_update of a baseline traced
uniform-wide run. Then, per workload, `--pairs` pairs of runs (baseline
and slowed, alternating which goes first, a fresh seed per pair) are made
untraced and traced. A metric is flagged when the slowed side is worse in
at least nine tenths of the pairs and the medians differ by more than the
baseline runs' quartile distance.

Expected: store.apply_* flagged on both workloads; ingest_eps and
cpu_ns_per_event flagged on uniform-wide and not on zipf-hot, where the
store is a minority of the cost; no net.* or pipeline.* cost metric (ns
per event) flagged. Exits 1 if an expectation fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 10
SLOWDOWN = 0.2  # share of the baseline store.apply_ns_per_update
FIRST_SEED = 1001
WORKLOADS = ("uniform-wide", "zipf-hot")

MUST_FLAG = {
    ("uniform-wide", "store.apply_ns_per_update"),
    ("uniform-wide", "store.apply_ns_per_event"),
    ("uniform-wide", "ingest_eps"),
    ("uniform-wide", "cpu_ns_per_event"),
    ("zipf-hot", "store.apply_ns_per_update"),
    ("zipf-hot", "store.apply_ns_per_event"),
}
LAYER_COSTS = ("net.encode_ns_per_event", "net.decode_ns_per_event",
               "net.client_submit_ns_per_event",
               "pipeline.submit_ns_per_event", "pipeline.drain_ns_per_event")
MUST_NOT_FLAG = {(w, m) for w in WORKLOADS for m in LAYER_COSTS} | {
    ("zipf-hot", "ingest_eps"),
    ("zipf-hot", "cpu_ns_per_event"),
}


def run(workload, seed, trace, slowdown_ns):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    if slowdown_ns > 0:
        cmd += ["--slowdown_ns", f"{slowdown_ns:.3f}"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)}\n{out.stdout}\n{out.stderr}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}

    base = run("uniform-wide", FIRST_SEED - 1, 1, 0)
    slowdown_ns = SLOWDOWN * base["store.apply_ns_per_update"]
    print(f"seeded slowdown: {slowdown_ns:.1f} ns per store update "
          f"(+{SLOWDOWN:.0%} of {base['store.apply_ns_per_update']:.1f})")

    need = math.ceil(0.9 * args.pairs)
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            pairs = []
            for i in range(args.pairs):
                seed = FIRST_SEED + i
                if i % 2 == 0:
                    b = run(workload, seed, trace, 0)
                    s = run(workload, seed, trace, slowdown_ns)
                else:
                    s = run(workload, seed, trace, slowdown_ns)
                    b = run(workload, seed, trace, 0)
                pairs.append((b, s))
            print(f"== {workload} trace={trace} ({args.pairs} pairs)")
            for name in pairs[0][0]:
                if name not in better:
                    continue
                sign = 1 if better[name] == "lower" else -1
                bv = [p[0][name] for p in pairs]
                sv = [p[1][name] for p in pairs]
                worse = sum(1 for b, s in zip(bv, sv) if sign * (s - b) > 0)
                q = statistics.quantiles(bv, n=4) if len(bv) > 1 else [0, 0, 0]
                delta = statistics.median(sv) - statistics.median(bv)
                flagged = worse >= need and sign * delta > (q[2] - q[0])
                base_med = statistics.median(bv)
                rel = delta / base_med if base_med else float("nan")
                print(f"  {name:36s} base {base_med:12.5g}  slowed "
                      f"{statistics.median(sv):12.5g}  ({rel:+.1%})  worse "
                      f"{worse}/{args.pairs}  {'FLAGGED' if flagged else ''}")
                if (workload, name) in MUST_FLAG and not flagged:
                    failures.append(f"{workload}: {name} not flagged")
                if (workload, name) in MUST_NOT_FLAG and flagged:
                    failures.append(f"{workload}: {name} flagged")
            sys.stdout.flush()
    for f in failures:
        print("FAIL", f)
    print("self-test", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
