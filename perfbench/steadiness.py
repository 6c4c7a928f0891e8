#!/usr/bin/env python3
"""Steadiness tool for the serving benchmark.

Run each workload N times with consecutive seeds and summarize every
end-to-end metric (median, quartiles, spread = IQR / median, against
the metric's bound in BENCHMARK.json); run two checkouts interleaved
and compare them; or compare two saved sets of runs, flagging any
metric whose median got worse by more than its bound.

    python3 perfbench/steadiness.py run --runs 10 --seed 1 \\
        --out set_a.json [--workload live_detect ...]
    python3 perfbench/steadiness.py ab --runs 10 --seed 1 \\
        [--a PARENT_CHECKOUT] [--b CHILD_CHECKOUT] \\
        [--out-a a.json] [--out-b b.json] [--workload ...]
    python3 perfbench/steadiness.py compare set_a.json set_b.json

Run from the repository root. Quartiles are
statistics.quantiles(values, n=4), the spread is (q3 - q1) / median.

`ab` alternates the two sides run by run (A B, B A, A B, ...), with
the same seed for both runs of a pair, so a host that speeds up or
slows down during the sets moves both sides alike. Each side runs its
own checkout's perfbench/run.py; both default to this checkout, which
compares two sets of runs of the same code.

Exits non-zero when a run fails, when a spread is over its bound, or
(ab, compare) when a median got worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

Runs = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values

# setup_s is held to its bound only through its median (`ab`,
# `compare`), not through its spread: each run sets up a handful of
# times in a fraction of a second, so one slow moment of the host moves
# a run's value, while a set-up regression moves the median of all.
SPREAD_EXEMPT = {"setup_s"}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root: str, workload: str, seed: int, seconds: int,
             env: Optional[Dict[str, str]] = None) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root,
                          env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed}: exit "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed}: correct="
                           f"{result['correct']} failed={result['failed']}")
    return result["metrics"]


def record(runs: Runs, workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        runs.setdefault(workload, {}).setdefault(name, []).append(
            m["value"])


def summarize(runs: Runs, bench: dict) -> bool:
    """Print each metric's median/quartiles; True if all spreads fit.

    With a single run there are no quartiles: each metric's value is
    printed as measured.
    """
    ok = True
    for workload, metrics in runs.items():
        print(f"{workload}:")
        for spec in bench["end_to_end"]:
            name, unit = spec["name"], spec["unit"]
            values = metrics.get(name, [])
            if not values:
                print(f"  {name:22s} MISSING")
                ok = False
                continue
            if len(values) < 2:
                print(f"  {name:22s} {values[0]:12.6g} {unit}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = spec["bound"]
            flag = "ok"
            if spread > bound and name not in SPREAD_EXEMPT:
                flag, ok = "OVER BOUND", False
            elif spread > bound:
                flag = "over bound (spread not gated)"
            elif spread > bound / 3:
                flag = "over bound/3"
            print(f"  {name:22s} median {med:12.6g} {unit:8s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                  f"(bound {bound:.0%}) {flag}")
    return ok


def compare(first: Runs, second: Runs, bench: dict,
            paired: bool = False) -> bool:
    """Print each metric's median shift; True if all fit their bounds.

    With `paired` runs (run i of each set on the same seed, run next to
    each other), also count the pairs in which the second set read
    better, ties counting for neither.
    """
    ok = True
    for workload in first:
        print(f"{workload}:")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = first[workload].get(name)
            b = second.get(workload, {}).get(name)
            if not a or not b:
                print(f"  {name:22s} MISSING")
                ok = False
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if ma else 0.0
            if spec["better"] == "higher":
                worse = -worse
            flag = "ok"
            if worse > spec["bound"]:
                flag, ok = "WORSE THAN BOUND", False
            wins = ""
            if paired:
                sign = 1 if spec["better"] == "higher" else -1
                won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
                wins = f" second better in {won}/{min(len(a), len(b))}"
            print(f"  {name:22s} {ma:12.6g} -> {mb:12.6g} "
                  f"worse by {worse:+7.2%} (bound {spec['bound']:.0%}) "
                  f"{flag}{wins}")
    return ok


def save(path: str, runs: Runs) -> None:
    if path:
        with open(path, "w") as f:
            json.dump(runs, f, indent=1)


def workloads_of(args: argparse.Namespace, bench: dict) -> List[str]:
    return args.workload or [w["name"] for w in bench["workloads"]]


def cmd_run(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    runs: Runs = {}
    for workload in workloads_of(args, bench):
        for i in range(args.runs):
            seed = args.seed + i
            record(runs, workload,
                   run_once(ROOT, workload, seed, bench["run_seconds"]))
            print(f"  {workload} seed {seed} done", file=sys.stderr)
    save(args.out, runs)
    return 0 if summarize(runs, bench) else 1


def cmd_ab(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    roots = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    env = dict(os.environ)
    if roots["A"] != roots["B"]:
        # Two checkouts: each builds into its own directory.
        env.pop("CARGO_TARGET_DIR", None)
    runs: Dict[str, Runs] = {"A": {}, "B": {}}
    for i in range(args.runs):
        seed = args.seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads_of(args, bench):
            for side in order:
                record(runs[side], workload,
                       run_once(roots[side], workload, seed,
                                bench["run_seconds"], env))
                print(f"  {side} {workload} seed {seed} done",
                      file=sys.stderr)
    save(args.out_a, runs["A"])
    save(args.out_b, runs["B"])
    ok = True
    for side in ("A", "B"):
        print(f"== side {side}: {roots[side]}")
        ok = summarize(runs[side], bench) and ok
    print("== A -> B")
    ok = compare(runs["A"], runs["B"], bench, paired=True) and ok
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    with open(args.first) as f:
        first: Runs = json.load(f)
    with open(args.second) as f:
        second: Runs = json.load(f)
    return 0 if compare(first, second, bench) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run each workload N times")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workload", action="append")
    run.add_argument("--out")
    ab = sub.add_parser("ab", help="run two checkouts interleaved")
    ab.add_argument("--runs", type=int, default=10)
    ab.add_argument("--seed", type=int, default=1)
    ab.add_argument("--workload", action="append")
    ab.add_argument("--a", default=ROOT, help="checkout of side A")
    ab.add_argument("--b", default=ROOT, help="checkout of side B")
    ab.add_argument("--out-a")
    ab.add_argument("--out-b")
    cmp = sub.add_parser("compare", help="compare two saved sets")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    commands = {"run": cmd_run, "ab": cmd_ab, "compare": cmd_compare}
    return commands[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
