"""empbench benchmark: time whole `empbench run` sweeps, end to end and per module.

Usage, from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats the workload's `empbench run` in fresh interpreters
(benchmark/child.py, one worker each), at least three times and then while
the next repetition is expected to end within ``--seconds``.  It then
prints every metric by name with its unit, the seed, the output checks, and
as its last line one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

* ``--trace 0`` reports the end-to-end metrics from untraced runs.
* ``--trace 1`` runs pairs of one untraced and one traced run of the same
  master seed, in alternating order, and reports the per-layer metrics:
  self time per module and per layer, counts, and the tracing overhead (the
  median over pairs of traced minus untraced run_s).

The first program run of a benchmark run also checks the solver after its
timed part (child.py's ``_check_solver``).

Every program run of one benchmark run uses the workload seed as its master
seed (0 reproduces the acceptance fixtures), so the repetitions do identical
work and each timing is reported as its median over the repetitions.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import MODULES

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = {
    "singlepath-demo": ROOT / "demos" / "singlepath.cfg",
    "taxi-cell": BENCH / "configs" / "taxi-cell.cfg",
    "gridworld-multi": BENCH / "configs" / "gridworld-multi.cfg",
}
METHODS = ("bch", "emp", "emp-single", "kl-emp", "mis", "wis")

# Largest allowed mean squared error per method over one benchmark run:
# five times the largest per-run MSE of seed-commit runs over master seeds
# 0-29 (singlepath-demo), 0-39 (taxi-cell) or 0-11 (gridworld-multi), and
# at least 1e-9, rounded up to two digits.  A method above it counts every one
# of its evaluations in the run as failed.
MSE_BOUND = {
    "singlepath-demo": {"bch": 0.0013, "emp": 1e-9, "kl-emp": 1e-9, "mis": 5.9e-9,
                        "wis": 0.0023},
    "taxi-cell": {"bch": 0.063, "emp": 0.027, "wis": 3.5},
    "gridworld-multi": {"emp": 0.30, "emp-single": 0.32, "mis": 0.29},
}

MIN_RUNS = 3          # setup is timed at least three times per benchmark run
MIN_PAIRS = 2         # a traced benchmark run makes pairs in both orders
CHILD_TIMEOUT_S = 150
TOTAL_LIMIT_S = 160   # start no program run that would end later than this

END_TO_END = {  # name: unit
    "run_s": "s", "setup_s": "s", "cell_s_p50": "s", "cell_s_tail": "s",
    "transitions_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "envs.build_s": "s", "envs.transition_mb": "MB",
    "mdp.qlearn_s": "s", "mdp.oracle_s": "s", "mdp.sample_s": "s",
    "mdp.sample_steps": "count", "mdp.sample_us_per_step": "us",
    "policies.mle_s": "s", "policies.kl_s": "s",
    "corrections.assemble_s": "s", "corrections.solve_s": "s",
    "corrections.solve_calls": "count", "corrections.solve_accepted_steps": "count",
    "corrections.solve_objective_p50": "objective", "corrections.dense_mb": "MB",
    "estimators.estimate_s": "s",
    "harness.cell_self_s": "s", "harness.emit_csv_s": "s",
    "cli.import_s": "s", "cli.load_config_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
    **{f"harness.method_s.{m}": "s" for m in METHODS},
    **{f"estimators.log10_mse.{m}": "log10" for m in METHODS},
    "harness.setup_s": "s", "trace.run_s": "s", "trace.overhead_s": "s",
}


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
    return env


def run_child(config: Path, master_seed: int, trace: bool, timeout: float,
              check_solver: bool) -> dict:
    """One `empbench run` in a fresh interpreter; returns child.py's JSON
    plus ``run_s`` measured from the moment the process was started."""
    out = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        cmd = [sys.executable, str(BENCH / "child.py"), str(config), "--seed", str(master_seed),
               "--out", str(out), "--trace", str(int(trace)),
               "--check-solver", str(int(check_solver))]
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    # both clocks are the system-wide monotonic clock
    result["run_s"] = result["done"] - spawned
    result["startup_s"] = result["start"] - spawned
    return result


def tail(values: list) -> tuple:
    """(percentile, value): the highest nearest-rank percentile with at least
    10 samples beyond it.  With fewer than 20 samples no percentile at or
    above the median has 10 beyond it, so the slowest sample is reported."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1]
    rank = n - 10                      # samples at or below the percentile
    return math.floor(100 * rank / n), ordered[rank - 1]


def account(children: list, workload: str) -> tuple:
    """(attempted, failed, checks_ok, mse per method) over every program run."""
    attempted = failed = 0
    ok = True
    errors: dict = {}
    for child in children:
        expected = child.get("expected")
        if child["code"] != 0 or expected is None:
            ok = False
            attempted += 1
            failed += 1
            continue
        ok &= all(check["ok"] for check in child["checks"].values())
        attempted += expected
        failed += expected - len(child["evaluations"])
        for method, squared_error, evaluation_ok in child["evaluations"]:
            if not evaluation_ok:
                failed += 1
            else:
                errors.setdefault(method, []).append(squared_error)
    mse = {m: statistics.fmean(v) for m, v in errors.items()}
    for method, value in mse.items():
        if value > MSE_BOUND[workload].get(method, 0.0):
            failed += len(errors[method])
    return attempted, failed, ok and failed == 0, mse


def end_to_end(children: list) -> tuple:
    """Medians over the repetitions.  The cell percentiles are taken over
    each repetition's cells and their medians over the repetitions are
    reported: a sweep's cells are of a few sizes (20 small and 20 large on
    singlepath-demo), so its median cell lies on the boundary between two
    sizes, and taking it within each repetition and then the median over
    repetitions varies less between benchmark runs than taking per-cell
    medians first."""
    children = [c for c in children if c["code"] == 0]
    percentiles = [tail([seconds for _, seconds, _ in c["cells"]]) for c in children]
    metrics = {
        "run_s": statistics.median(c["run_s"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "cell_s_p50": statistics.median(
            statistics.median(seconds for _, seconds, _ in c["cells"]) for c in children),
        "cell_s_tail": statistics.median(value for _, value in percentiles),
        "transitions_per_s": statistics.median(
            sum(n for _, _, n in c["cells"]) / c["after_setup_s"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    return metrics, (f"cell_s_tail is p{percentiles[0][0]} of the {len(children[0]['cells'])} "
                     f"cells of a repetition, median of {len(children)} repetitions")


def per_layer(pairs: list) -> tuple:
    traced = [t for _, t in pairs]
    layers = []
    for child in traced:
        values = {k: v for k, v in child["layers"].items() if k != "method_s"}
        for m in METHODS:
            values[f"harness.method_s.{m}"] = child["layers"]["method_s"].get(m, 0.0)
        values["cli.self_s"] += child["startup_s"]  # interpreter start-up
        values["harness.setup_s"] = child["setup_s"]
        values["trace.run_s"] = child["run_s"]
        layers.append(values)
    metrics = {name: statistics.median(v[name] for v in layers)
               for name in layers[0]}
    errors: dict = {}
    for method, squared_error, _ in traced[0]["evaluations"]:
        errors.setdefault(method, []).append(squared_error)
    for m in METHODS:
        mse = statistics.fmean(errors[m]) if m in errors else 0.0
        metrics[f"estimators.log10_mse.{m}"] = math.log10(mse) if mse > 0 else 0.0
    metrics["trace.overhead_s"] = statistics.median(t["run_s"] - u["run_s"] for u, t in pairs)
    gaps = [v["trace.run_s"] - sum(v[f"{m}.self_s"] for m in MODULES) for v in layers]
    shares = [(v["envs.build_s"] + v["mdp.qlearn_s"] + v["mdp.oracle_s"]) / v["harness.setup_s"]
              for v in layers]
    notes = [f"per-module self times add up to trace.run_s within {max(map(abs, gaps)):.4f} s "
             f"in each of {len(layers)} traced runs (tracing overhead "
             f"{metrics['trace.overhead_s']:.4f} s)"]
    layer_names = ("mdp.sample_s", "corrections.solve_s", "corrections.assemble_s",
                   "mdp.qlearn_s", "mdp.oracle_s", "envs.build_s", "policies.mle_s",
                   "policies.kl_s", "estimators.estimate_s", "harness.cell_self_s",
                   "harness.emit_csv_s", "cli.import_s", "cli.load_config_s")
    largest = max(layer_names, key=lambda k: metrics[k])
    notes.append(f"largest layer {largest} ({metrics[largest]:.4f} s); envs.build + mdp.qlearn"
                 f" + mdp.oracle are {100 * statistics.median(shares):.1f} % of traced setup")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="empbench benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload (master) seed")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "empbench" / "cli.py").is_file():
        print(f"error: no empbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    config = WORKLOADS[args.workload]
    start = time.perf_counter()
    runs = []   # untraced results, or (untraced, traced) pairs
    longest = 0.0
    while True:
        began = time.perf_counter()
        timeout = max(1.0, min(CHILD_TIMEOUT_S, TOTAL_LIMIT_S - (began - start)))
        check = not runs  # the first program run also checks the solver
        if args.trace:
            # alternate which run of a pair goes first, so that drift over
            # the pair does not show as tracing overhead
            order = (False, True) if len(runs) % 2 == 0 else (True, False)
            pair = {traced: run_child(config, args.seed, traced, timeout, check and not traced)
                    for traced in order}
            runs.append((pair[False], pair[True]))
            checked = pair[False]
        else:
            runs.append(run_child(config, args.seed, False, timeout, check))
            checked = runs[-1]
        now = time.perf_counter()
        # the solver check runs once, so it does not count towards the
        # expected length of the next repetition
        longest = max(longest, now - began
                      - checked.get("checks", {}).get("solver", {}).get("seconds", 0.0))
        # start another repetition only if it is expected to end in time
        if now + longest - start > (TOTAL_LIMIT_S if len(runs) < (MIN_PAIRS if args.trace
                                                                  else MIN_RUNS)
                                    else args.seconds):
            break

    children = [c for pair in runs for c in pair] if args.trace else runs
    attempted, failed, correct, mse = account(children, args.workload)
    print(f"workload {args.workload}  seed {args.seed}  program runs {len(children)}  "
          f"measured {time.perf_counter() - start:.1f} s")
    print(f"  machine: nproc {len(os.sched_getaffinity(0))}, {children[0]['versions']}, "
          f"BLAS threads {blas_threads()}")
    if args.trace:
        metrics, notes = per_layer(runs)
        units = PER_LAYER
    else:
        metrics, note = end_to_end(runs)
        notes = [note]
        units = END_TO_END
    for name in units:
        print(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    solver = next((c["checks"]["solver"] for c in children if "solver" in c.get("checks", {})),
                  None)
    if solver is not None:
        print(f"  solver check on cell {solver['cell']}: {solver['solves']} solves, "
              f"{solver['failed_solves']} above the reference objective by more than "
              f"its tolerance, worst relative excess {solver['worst_relative_excess']:.3g}, "
              f"records {'match' if solver['records_match'] else 'DIFFER'}")
    print("  mse per method: " + ", ".join(f"{m} {v:.4g}" for m, v in sorted(mse.items())))
    print(f"  output checks {'ok' if correct else 'FAILED'}; failed_frac "
          f"{failed / attempted if attempted else 1.0:.4g} ({failed} of {attempted})")
    if args.trace:
        trace_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(runs[0][1]["spans"]))
        print(f"  spans of the first traced run written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
