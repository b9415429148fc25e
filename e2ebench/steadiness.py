#!/usr/bin/env python3
"""Runs each workload with several seeds and reports how much each
end-to-end metric spreads between runs: the quartile distance of the runs'
values as a share of their median, next to the bound BENCHMARK.json gives
the metric.

    python3 e2ebench/steadiness.py [--runs 10]

Run from the root of a source checkout. A spread above a third of its
bound is marked '!'; setup_s is judged on its median only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed ({workload}, seed {seed}):\n{out.stdout}"
                 f"\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect run ({workload}, seed {seed}):\n{out.stdout}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in bench["workloads"]:
        workload = w["name"]
        values = {}
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, bench["run_seconds"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if name != "setup_s":
                flag = "!" if spread > bound / 3 else ""
                worst = max(worst, spread / bound)
            print(f"  {name:34s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound} {flag}")
        sys.stdout.flush()
    print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
