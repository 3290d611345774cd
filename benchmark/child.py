"""One workload run in a fresh interpreter, the way `empbench run` does it.

Usage (started by run.py, with ``src`` on PYTHONPATH):

    python3 benchmark/child.py CONFIG --seed M --out DIR --trace 0|1 [--check-solver 0|1]

The run goes through ``empbench.cli.main(["run", CONFIG, ...])`` with one
worker, so it pays import, config parsing, setup, every cell and the CSV
write.  The package is measured from outside: this file replaces public
names in the namespaces where the package looks them up with timing
wrappers and never edits ``src/``.  Without ``--trace`` only the harness's
per-cell function and its setup cache are wrapped (two spans per cell);
with ``--trace`` every call into a module listed in ``_traced_names`` gets a
span.  After the run the outputs are checked (with ``--check-solver 1`` also
the solver, see ``_check_solver``), and the last stdout line is one JSON
object with the timings, counts and check results.
"""

import argparse
import dataclasses
import functools
import json
import math
import platform
import resource
import sys
import time

START = time.perf_counter()  # before any package import; run.py adds spawn time

MODULES = ("envs", "mdp", "policies", "corrections", "estimators", "harness", "cli")


class SpanRecorder:
    """Spans kept in memory as [name, start, end, parent index, meta]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def add(self, name, start, end, meta=None):
        self.spans.append([name, start, end, -1, meta])

    def wrap(self, name, fn, meta=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if meta is not None:
                span[4] = meta(args, result)
            return result
        return wrapper

    def patch(self, namespace, attr, name, meta=None):
        setattr(namespace, attr, self.wrap(name, getattr(namespace, attr), meta))

    def self_times(self) -> list:
        """Each span's duration minus the part its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _traced_names(harness, estimators, corrections, cli):
    """(namespace, attribute, span name) for every traced call.  A name is
    wrapped where the caller looks it up: harness imports most functions by
    name, and the estimators/corrections pipelines call learners, the MLE and
    the solver as their own module globals."""
    learners = ("learn_bch", "learn_emp", "learn_bch_pooled", "learn_sadl")
    estimates = ("ratio_reward_estimate", "mis_reward_estimate", "sadl_reward_estimate",
                 "stepwise_wis_estimate", "balanced_heuristic")
    names = [
        (cli, "load_config", "cli.load_config"),
        (cli, "run_experiment", "harness.run_experiment"),
        (cli, "emit_csv", "harness.emit_csv"),
        (cli, "summarize_mse", "harness.summarize"),
        (harness, "make_policies", "harness.make_policies"),
        (harness, "generate_cell_data", "harness.generate"),
        (harness, "build_environment", "envs.build"),
        (harness, "train_q_learning_policy", "mdp.qlearn"),
        (harness, "average_reward", "mdp.oracle"),
        (harness, "stationary_distribution", "mdp.oracle"),
        (harness, "estimate_policy_mle", "policies.mle"),
        (harness, "compute_kl_weights", "policies.kl"),
        (harness, "empirical_state_distribution", "policies.empirical"),
        (harness, "emp_single_estimate", "estimators.pipeline"),
        (harness, "kl_emp_estimate", "estimators.pipeline"),
        (estimators, "learn_emp", "corrections.learn"),
        (estimators, "estimate_policy_mle", "policies.mle"),
        (estimators, "compute_kl_weights", "policies.kl"),
        (estimators, "ratio_reward_estimate", "estimators.estimate"),
        (corrections, "estimate_policy_mle", "policies.mle"),
        (corrections, "empirical_state_distribution", "policies.empirical"),
    ]
    names += [(harness, attr, "corrections.learn") for attr in learners]
    names += [(harness, attr, "estimators.estimate") for attr in estimates]
    return names


def _with_solver_trace(solve, solves: list):
    """Pass a list as the solver's existing ``trace=`` argument and keep
    (dimension, accepted steps, final objective) per call."""
    @functools.wraps(solve)
    def wrapper(A, reference, *args, **kwargs):
        if kwargs.get("trace") is None:
            kwargs["trace"] = []
        x = solve(A, reference, *args, **kwargs)
        trace = kwargs["trace"]
        solves.append((A.dim, len(trace) - 1, trace[-1] if trace else math.nan))
        return x
    return wrapper


def _stationary_dense(chain):
    """Independent oracle: solve the balance equations d P = d with one of
    them replaced by sum(d) = 1, by dense LU (no power iteration)."""
    import numpy as np
    n = chain.shape[0]
    a = chain.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _check_oracle(ctx) -> dict:
    """The exact oracle the harness scores against agrees with a dense
    direct solve to 1e-8."""
    import numpy as np
    mdp, target, _, truth, d_target = ctx
    chain = np.einsum("sa,sat->st", target.probs, mdp.transition)
    d = _stationary_dense(chain)
    value = float(d @ np.einsum("sa,sa->s", target.probs, mdp.reward))
    dist_err = float(np.abs(d - d_target.probs).max())
    value_err = abs(value - truth) / max(1.0, float(np.abs(mdp.reward).max()))
    return {"ok": dist_err <= 1e-8 and value_err <= 1e-8,
            "dist_err": dist_err, "value_err": value_err}


def _lambda_max(matrix, dim: int, seed: int, iters: int = 200) -> float:
    import numpy as np
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm <= 1e-300:
            return 0.0
        v = w / norm
    return float(v @ (matrix @ v))


def _reference_solve(A, reference, step=None, iters=20000, seed=0, **_):
    """The solver as it was when the benchmark was added, kept here so that
    a changed ``solve_normalized_quadratic`` can be compared with it on the
    same problem: projected gradient from x = 1 with step 0.5 / lambda_max,
    halved on a rejected step, grown 1.1x on an accepted one up to 50x the
    first, stopped after ``iters`` iterations or when the objective falls by
    less than 1e-12 over 100 iterations."""
    import numpy as np
    from scipy import sparse
    reference = np.asarray(reference, dtype=np.float64)
    matrix, scale = A.matrix, A.scale
    if A.dim >= 512 and np.count_nonzero(matrix) < 0.25 * A.dim**2:
        matrix = sparse.csr_matrix(matrix)
    x = np.ones(A.dim)
    x /= reference @ x
    if step is None:
        lam = scale * _lambda_max(matrix, A.dim, seed)
        if lam <= 1e-300:
            return x
        step = 0.5 / lam
    step_cap = 50.0 * step
    y = matrix @ x
    f = scale * float(x @ y)
    f_checkpoint = f
    for it in range(1, iters + 1):
        gradient = (2.0 * scale) * y - (2.0 * f) * reference
        cand = np.maximum(x - step * gradient, 0.0)
        cand /= reference @ cand
        y_cand = matrix @ cand
        f_cand = scale * float(cand @ y_cand)
        if f_cand <= f:
            x, y, f = cand, y_cand, f_cand
            step = min(1.1 * step, step_cap)
        else:
            step *= 0.5
        if it % 100 == 0:
            if f_checkpoint - f < 1e-12:
                break
            f_checkpoint = f
    return x


SOLVER_RTOL = 1e-6  # allowed excess of the final objective over the reference's


def _check_solver(harness, corrections, run_cell, solve, cfg, master_seed: int,
                  cell: list, timed_records: list) -> tuple:
    """Run one cell again after the timed part and solve every problem it
    poses also with ``_reference_solve``.  A solve passes if its final
    objective is at most the reference's plus SOLVER_RTOL of it (plus
    1e-12 of the objective at the start point), so a solver that stops
    early fails even where the estimates stay within the MSE bounds.
    Returns the check and the (cell, method) evaluations that failed it."""
    import numpy as np
    method = [None]
    solves = []

    def checking(A, reference, *args, **kwargs):
        x = solve(A, reference, *args, **kwargs)
        x_ref = _reference_solve(A, reference, *args, **kwargs)
        start = np.ones(A.dim) / np.sum(reference)
        f, f_ref, f_start = A.value(x), A.value(x_ref), A.value(start)
        solves.append((method[0], f, f_ref, f <= f_ref * (1 + SOLVER_RTOL) + 1e-12 * f_start))
        return x

    def tagging(name, *args, **kwargs):
        method[0] = name
        return run_method(name, *args, **kwargs)

    run_method = harness.run_method
    installed = corrections.solve_normalized_quadratic
    corrections.solve_normalized_quadratic, harness.run_method = checking, tagging
    try:
        records = run_cell((cfg, master_seed, True, *cell))
    finally:
        corrections.solve_normalized_quadratic, harness.run_method = installed, run_method
    untimed = [dataclasses.replace(r, wall_time_ms=0) for r in records]
    same = untimed == [dataclasses.replace(r, wall_time_ms=0) for r in timed_records]
    failed = {m for m, _, _, ok in solves if not ok}
    worst = max(((f - f_ref) / f_ref if f_ref > 0 else f - f_ref for _, f, f_ref, _ in solves),
                default=math.nan)
    check = {"ok": same and bool(solves) and not failed, "cell": cell,
             "records_match": same, "solves": len(solves),
             "failed_solves": sum(not ok for *_, ok in solves),
             "worst_relative_excess": worst}
    return check, {(*cell, m) for m in failed}


def _layer_metrics(rec: SpanRecorder, solves, transitions_mb: float) -> dict:
    own = rec.self_times()
    total = {}
    by_method = {}
    steps = 0
    for (name, start, end, _, meta), self_s in zip(rec.spans, own):
        total[name] = total.get(name, 0.0) + self_s
        module = name.split(".", 1)[0]
        total[module + ".self_s"] = total.get(module + ".self_s", 0.0) + self_s
        if name == "harness.method":
            by_method[meta] = by_method.get(meta, 0.0) + (end - start)
        elif name == "mdp.sample":
            steps += meta
    sample_s = total.get("mdp.sample", 0.0)
    objectives = sorted(obj for _, _, obj in solves)
    layers = {
        "envs.build_s": total.get("envs.build", 0.0),
        "envs.transition_mb": transitions_mb,
        "mdp.qlearn_s": total.get("mdp.qlearn", 0.0),
        "mdp.oracle_s": total.get("mdp.oracle", 0.0),
        "mdp.sample_s": sample_s,
        "mdp.sample_steps": steps,
        "mdp.sample_us_per_step": 1e6 * sample_s / steps if steps else 0.0,
        "policies.mle_s": total.get("policies.mle", 0.0),
        "policies.kl_s": total.get("policies.kl", 0.0),
        "corrections.assemble_s": total.get("corrections.learn", 0.0),
        "corrections.solve_s": total.get("corrections.solve", 0.0),
        "corrections.solve_calls": len(solves),
        "corrections.solve_accepted_steps": sum(s for _, s, _ in solves),
        "corrections.solve_objective_p50": (objectives[len(objectives) // 2]
                                            if objectives else 0.0),
        "corrections.dense_mb": max((8 * d * d / 1e6 for d, _, _ in solves), default=0.0),
        "estimators.estimate_s": total.get("estimators.estimate", 0.0),
        "harness.cell_self_s": total.get("harness.cell", 0.0),
        "harness.emit_csv_s": total.get("harness.emit_csv", 0.0),
        "cli.import_s": total.get("cli.import", 0.0),
        "cli.load_config_s": total.get("cli.load_config", 0.0),
    }
    for module in MODULES:
        layers[module + ".self_s"] = total.get(module + ".self_s", 0.0)
    layers["method_s"] = by_method
    return layers


def _timings(rec: SpanRecorder, done: float) -> dict:
    """Setup time (the first call of the harness's setup cache, inside the
    first cell) and per-cell times with setup taken out."""
    context_s = {parent: end - start for name, start, end, parent, _ in rec.spans
                 if name == "harness.context"}
    setup = next((s for s in rec.spans if s[0] == "harness.context"), None)
    cells = []
    for index, (name, start, end, _, records) in enumerate(rec.spans):
        if name == "harness.cell" and records:
            first = records[0]
            cells.append([[first.num_trajectories, first.horizon, first.seed],
                          end - start - context_s.get(index, 0.0),
                          first.num_trajectories * first.horizon])
    return {"setup_s": setup[2] - setup[1] if setup else math.nan,
            "after_setup_s": done - (setup[2] if setup else done),
            "cells": cells}


def _check_outputs(rec: SpanRecorder, cfg, ctx, out, failed: set) -> tuple:
    """Output checks plus one (method, squared error, ok) triple per
    (cell, method) evaluation written to records.csv; an evaluation is ok if
    its estimate is finite and it is not in ``failed``."""
    from pathlib import Path

    from empbench.harness import read_records_csv
    written = read_records_csv(Path(out) / "records.csv")
    captured = sorted((r for name, _, _, _, records in rec.spans if name == "harness.cell"
                       for r in records),
                      key=lambda r: (r.environment, r.method, r.num_trajectories,
                                     r.horizon, r.seed))
    expected = len(cfg.num_trajectories) * len(cfg.horizons) * cfg.seeds * len(cfg.methods)
    checks = {
        "oracle": _check_oracle(ctx),
        # the CSV holds exactly what the timed cells returned, so per-cell
        # times cover the records the user gets
        "csv_matches_cells": {"ok": written == captured},
        "record_count": {"ok": len(written) == expected, "expected": expected,
                         "written": len(written)},
        "summary_written": {"ok": (Path(out) / "summary.csv").is_file()},
    }
    evaluations = [[r.method, r.squared_error, math.isfinite(r.estimate)
                    and (r.num_trajectories, r.horizon, r.seed, r.method) not in failed]
                   for r in written]
    return checks, evaluations, expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, required=True, help="master seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-solver", type=int, choices=(0, 1), default=0,
                        help="after the run, compare one cell's solves with the reference")
    args = parser.parse_args()

    import empbench.cli as cli
    imported = time.perf_counter()
    from empbench import corrections, estimators, harness

    cell_context, run_cell = harness._cell_context, harness._run_cell  # unwrapped, for the checks
    solve = corrections.solve_normalized_quadratic
    rec = SpanRecorder()
    rec.add("cli.import", START, imported)
    rec.patch(harness, "_run_cell", "harness.cell", meta=lambda args, result: result)
    rec.patch(harness, "_cell_context", "harness.context")
    solves = []
    if args.trace:
        for namespace, attr, name in _traced_names(harness, estimators, corrections, cli):
            rec.patch(namespace, attr, name)
        rec.patch(harness, "sample_trajectories", "mdp.sample",
                  meta=lambda args, result: sum(len(t) for t in result))
        rec.patch(harness, "run_method", "harness.method", meta=lambda args, result: args[0])
        corrections.solve_normalized_quadratic = rec.wrap(
            "corrections.solve", _with_solver_trace(solve, solves))

    argv = ["run", args.config, "--seed", str(args.seed), "--workers", "1", "--out", args.out]
    code = rec.wrap("cli.main", cli.main)(argv)
    done = time.perf_counter()
    result = {"code": code, "start": START, "done": done,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              **_timings(rec, done)}
    if code == 0:
        cfg = harness.load_config(args.config)
        ctx = cell_context(cfg, args.seed)
        if args.trace:
            s, a = ctx[0].transition.shape[:2]
            result["layers"] = _layer_metrics(rec, solves, 8 * s * a * s / 1e6)
            result["spans"] = [[name, start, end, parent,
                                meta if isinstance(meta, (str, int)) else None]
                               for name, start, end, parent, meta in rec.spans]
        failed = set()
        solver_check = None
        if args.check_solver:
            # the cell is chosen by the seed; spans added from here on are
            # not counted, the span metrics are taken above
            cells = [records for name, _, _, _, records in rec.spans
                     if name == "harness.cell" and records]
            chosen = cells[args.seed % len(cells)]
            first = chosen[0]
            began = time.perf_counter()
            solver_check, failed = _check_solver(
                harness, corrections, run_cell, solve, cfg, args.seed,
                [first.num_trajectories, first.horizon, first.seed], chosen)
            solver_check["seconds"] = time.perf_counter() - began
        checks, evaluations, expected = _check_outputs(rec, cfg, ctx, args.out, failed)
        if solver_check is not None:
            checks["solver"] = solver_check
        result.update(checks=checks, evaluations=evaluations, expected=expected)
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = (f"Python {platform.python_version()}, numpy {numpy.__version__}, "
                          f"scipy {scipy.__version__}, {blas['name']} {blas['version']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
