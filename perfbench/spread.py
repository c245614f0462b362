#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs each workload named in BENCHMARK.json once per seed (sequentially, so
wall-clock metrics are not disturbed by each other), then prints for every
end-to-end metric its median, quartiles and spread, the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. Exits non-zero when a spread other than
setup_s's exceeds its bound, or when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to measure (default: all in BENCHMARK.json)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} seeds from {args.first_seed}")
        for metric in spec["end_to_end"]:
            name, samples = metric["name"], values[metric["name"]]
            if len(samples) < 2:
                continue
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok"
            if spread > metric["bound"]:
                verdict = "OVER BOUND" if name != "setup_s" else "over (setup)"
                ok = ok and name == "setup_s"
            elif spread > metric["bound"] / 3:
                verdict = "above bound/3"
            print(f"  {name:16} median={median:<14.6g} q1={q1:<14.6g} "
                  f"q3={q3:<14.6g} spread={spread:6.3f} "
                  f"bound={metric['bound']:.2f} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
