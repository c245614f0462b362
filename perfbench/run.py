#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark (the logbase library plus perfbench/) into .bench_build/perfbench
with CMake; later runs reuse that build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.

`--workload all` runs every workload, each in its own process, and ends with
one JSON line whose metrics are keyed `<workload>.<metric>`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["write_heavy", "read_heavy_cold", "scan_after_updates"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"logbase sources not found under {ROOT / 'src'}; "
             "run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                             "--target", target], stdout=sys.stderr)
    if result.returncode != 0:
        fail(f"build of {target} failed")
    return BUILD_DIR / target


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, parsed result or None)."""
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build("perfbench")
    if args.workload != "all":
        code, lines, _ = run_one(binary, args.workload, args)
        print("\n".join(lines))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(binary, workload, args)
        print("\n".join(lines[:-1] if result else lines))
        if result is None:
            print(f"{workload}: no result line (exit {code})")
            combined["correct"] = False
            exit_code = exit_code or code or 1
            continue
        if code != 0:
            print(f"{workload}: FAILED (exit {code})")
            exit_code = exit_code or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
