"""Steadiness check: two sets of benchmark runs of the same code.

Usage, from the repository root:

    python3 benchmark/steady.py [--workload NAME ...] [--runs 10] [--sets 2]

Each set runs ``benchmark/run.py`` once per seed ``0 .. runs - 1`` on every
workload, for ``run_seconds`` from BENCHMARK.json.  For every end-to-end
metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``) with the spread (Q3 - Q1) / median, then
whether every set's spread is within the metric's bound from BENCHMARK.json
and whether the last set's median differs from the first's by no more than
the bound, in either direction.  The workloads default to those in
BENCHMARK.json.  With ``--runs 1 --sets 1
--workload singlepath-demo taxi-cell gridworld-multi`` it is the one command
that prints every end-to-end metric of every workload with its unit, the
output checks and failed_frac.  Raw results are appended to
.bench_out/steady.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric: dict, before: float, after: float) -> float:
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description="two-set steadiness check")
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=[w["name"] for w in SPEC["workloads"]],
                        help="default: the workloads in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    log = ROOT / ".bench_out" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    all_ok = True
    for workload in args.workload:
        sets = []
        for index in range(args.sets):
            results = []
            for seed in range(args.runs):
                result = run_once(workload, seed)
                with log.open("a") as fh:
                    fh.write(json.dumps({"workload": workload, "set": index, "seed": seed,
                                         **result}) + "\n")
                results.append(result)
            sets.append(results)
        print(f"\n== {workload}: {args.sets} set(s) x {args.runs} run(s), "
              f"seeds 0..{args.runs - 1}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:18s} {metric['unit']:>4s} bound {bound:<5}"
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                medians.append(q2)
                steady = spread <= bound
                all_ok &= steady
                line += (f" | median {q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
                         f"{'' if steady else ' OVER BOUND'}"
                         f"{' (over a third of bound)' if steady and spread > bound / 3 else ''}")
            if len(medians) > 1:
                worse = worse_by(metric, medians[0], medians[-1])
                agree = abs(worse) <= bound
                all_ok &= agree
                line += f" | last set worse by {worse:+.3f} {'agree' if agree else 'DISAGREE'}"
            print(line)
        attempted = sum(r["attempted"] for results in sets for r in results)
        failed = sum(r["failed"] for results in sets for r in results)
        correct = all(r["correct"] for results in sets for r in results)
        all_ok &= correct and failed == 0
        print(f"  output checks {'ok' if correct else 'FAILED'}; failed_frac "
              f"{failed / attempted:.4g} ({failed} of {attempted})")
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
