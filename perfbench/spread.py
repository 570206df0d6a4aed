#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload stacks-wire --seeds 1-10 --seconds 30

For every end-to-end metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json; and the share
of failed operations in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"share={result['failed'] / result['attempted']:.6f}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
        print(f"{name:34s} {med:14.6g} {units[name]:6s} spread {spread:7.3f}"
              f" bound {bounds[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
