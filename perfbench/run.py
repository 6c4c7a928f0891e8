#!/usr/bin/env python3
"""Build and run the EVA2 serving benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
the benchmark and the eva2 library from source into the build
directory (CARGO_TARGET_DIR if set, else .bench_build); later calls
rebuild incrementally. Build output goes to stderr, so the benchmark's
JSON result stays the last line of stdout. Exits non-zero, printing
no result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> str:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out: str) -> str:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def default_seconds() -> int:
    """BENCHMARK.json's run_seconds, the duration runs are sized for."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(out, f"trace_{args.workload}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
