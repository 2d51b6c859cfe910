#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's spread.

    python3 stepbench/steady.py --workload spill_vgg [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--save FILE]

Runs stepbench/run.py sequentially, one seed per run (first-seed,
first-seed + 1, ...), and prints for every metric its median, first and
third quartile (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. A
spread above a third of the bound is flagged. setup_s is flagged only on
its bound: its spread is not gated. Also prints the share of failed
operations per run, which must be identical across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {proc.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write every run's result to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']}",
              file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  over bound/3" if spread <= bound else "  OVER BOUND"
            steady = False
        print(f"{name:28} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {'' if bound is None else bound:>6}{flag}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print(f"failed share per run: {shares}; all correct: {correct}")
    return 0 if steady and correct and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
