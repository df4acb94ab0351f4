#!/usr/bin/env python3
"""Run one workload of BENCHMARK.json with several seeds and print, for
each end-to-end metric, its median and its spread: the distance between
the first and third quartile of the runs (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound.

Usage, from the repository root:
    python3 perfbench/spread.py <workload> [runs] [first-seed]
"""

import json
import os
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    values = {}
    for seed in range(first, first + runs):
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(bench["command"] + args, capture_output=True, text=True, env=env)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{workload}: {runs} runs, seeds {first}..{first + runs - 1}")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"  {metric['name']:<18} median {med:<14.6g} {metric['unit']:<10} "
              f"spread {spread:.3f} (bound {metric['bound']})")


if __name__ == "__main__":
    main()
