"""Benchmark harness: experiment configs, sweeps, summaries, CSV output.

An experiment sweeps (method, num_trajectories, horizon, seed) cells on one
environment.  All behavior policies are epsilon-softenings of one trained
greedy policy, every cell's data seed derives from the sweep values (not
positions), and all methods inside a cell share the same dataset so paired
comparisons across methods are meaningful.
"""

import csv
import functools
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .corrections import (KernelSpec, SolverParams, assemble_bch, assemble_sadl,
                          solve_problems)
from .envs import ENVIRONMENTS, build_environment
from .estimators import (balanced_heuristic, mis_reward_estimate, ratio_reward_estimate,
                         sadl_reward_estimate, stepwise_wis_estimate)
from .mdp import (SampleGroup, StateDistribution, TransitionDataset, average_reward,
                  check_q_learning_params, greedy_policy, sample_trajectories,
                  soften_policy, stationary_distribution, train_q_learning_policy)
from .policies import WeightVector, compute_kl_weights, empirical_state_distribution, \
    estimate_policy_mle

# Unused here: the traced benchmark run (benchmark/child.py --trace 1) wraps
# these names by lookup.  The method table replaced the last three.
from .corrections import learn_bch, learn_emp, learn_sadl  # noqa: E402,F401
learn_bch_pooled = emp_single_estimate = kl_emp_estimate = None


class InvalidConfig(ValueError):
    """The experiment configuration is malformed."""


class UnknownMethod(ValueError):
    """A method identifier is not recognized."""


@dataclass(frozen=True)
class StateMethod:
    """A state-correction method as three choices.  ``denominator``:
    ``"exact"`` (each record's behavior) or ``"mle"`` (count-frequency
    estimate from the data the correction is learned on).  ``grouping``:
    ``"pooled"`` (one correction), ``"mean"`` (one per label, estimates
    averaged) or ``"mis"`` (one per label, balanced heuristic).  ``kl``
    (pooled rows only): KL-proximity weights replace the labels' sample
    proportions."""

    denominator: str
    grouping: str
    kl: bool = False


STATE_METHODS = {
    "bch": StateMethod("exact", "mean"),
    "emp": StateMethod("mle", "pooled"),
    "bch-pooled": StateMethod("exact", "pooled"),
    "bch-kl-pooled": StateMethod("exact", "pooled", kl=True),
    "emp-single": StateMethod("mle", "mean"),
    "kl-emp": StateMethod("mle", "pooled", kl=True),
    "mis": StateMethod("mle", "mis"),
}

METHOD_NAMES = (*STATE_METHODS, "sadl", "wis")


@dataclass
class PolicySpec:
    """Q-learning parameters for the target policy; ``epsilon`` both drives
    exploration and softens the returned greedy policy."""

    episodes: int = 300
    epsilon: float = 0.1
    alpha: float = 0.2
    gamma: float = 0.95


@dataclass
class ExperimentConfig:
    environment: str = "singlepath"
    target: PolicySpec = field(default_factory=PolicySpec)
    behavior_epsilons: list = field(default_factory=lambda: [0.2])
    num_trajectories: list = field(default_factory=lambda: [20, 50, 100, 200])
    horizons: list = field(default_factory=lambda: [50, 100, 200])
    methods: list = field(default_factory=lambda: ["bch", "emp", "wis"])
    seeds: int = 50
    kernel: KernelSpec = field(default_factory=KernelSpec.state_delta)
    solver: SolverParams = field(default_factory=SolverParams)
    output: str = "."

    def validate(self) -> None:
        if self.environment not in ENVIRONMENTS:
            raise InvalidConfig(f"unknown environment {self.environment!r}")
        if self.seeds < 1:
            raise InvalidConfig("seeds must be >= 1")
        if not self.num_trajectories or not self.horizons or not self.methods:
            raise InvalidConfig("num_trajectories, horizons and methods must be nonempty")
        if any(n < 1 for n in self.num_trajectories) or any(h < 1 for h in self.horizons):
            raise InvalidConfig("sweep values must be >= 1")
        for key in ("methods", "num_trajectories", "horizons"):
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise InvalidConfig(f"{key} lists an entry twice")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise InvalidConfig(f"unknown method {m!r}; expected one of {METHOD_NAMES}")
            if m in STATE_METHODS and self.kernel.kind == "state-action-delta":
                raise InvalidConfig(f"method {m!r} learns a state correction, which "
                                    "kernel kind 'state-action-delta' cannot give")
        try:
            check_q_learning_params("target.", **vars(self.target))
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None
        if not self.behavior_epsilons:
            raise InvalidConfig("at least one behavior epsilon is required")
        if any(not 0 < e <= 1 for e in self.behavior_epsilons):
            raise InvalidConfig("behavior epsilons must be in (0, 1]")
        if self.solver.iters < 1:
            raise InvalidConfig("solver.iters must be >= 1")


def _list_of(item):
    return lambda value: [item(v.strip()) for v in value.split(",") if v.strip()]


# dotted key -> (section, field, parser); section "" is ExperimentConfig itself
_CONFIG_KEYS = {
    "environment": ("", "environment", str),
    "methods": ("", "methods", _list_of(str)),
    "num_trajectories": ("", "num_trajectories", _list_of(int)),
    "horizons": ("", "horizons", _list_of(int)),
    "seeds": ("", "seeds", int),
    "behavior.epsilons": ("", "behavior_epsilons", _list_of(float)),
    "target.episodes": ("target", "episodes", int),
    "target.epsilon": ("target", "epsilon", float),
    "target.alpha": ("target", "alpha", float),
    "target.gamma": ("target", "gamma", float),
    "kernel.kind": ("kernel", "kind", str),
    "kernel.bandwidth": ("kernel", "bandwidth", float),
    "solver.iters": ("solver", "iters", int),
    "output": ("", "output", str),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value config format (lists comma-separated,
    ``#`` starts a comment); absent keys keep the dataclass defaults, and a
    key may be set once."""
    sections = {"": {}, "target": {}, "kernel": {}, "solver": {}}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise InvalidConfig(f"line {lineno}: key {key!r} is already set on line "
                                f"{first_line[key]}")
        first_line[key] = lineno
        section, name, parse = _CONFIG_KEYS[key]
        try:
            sections[section][name] = parse(value)
        except ValueError as exc:
            raise InvalidConfig(f"line {lineno}: bad value for {key!r}: {exc}") from None
    try:  # KernelSpec validates its fields
        cfg = ExperimentConfig(**sections[""], target=PolicySpec(**sections["target"]),
                               kernel=KernelSpec(**sections["kernel"]),
                               solver=SolverParams(**sections["solver"]))
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


@dataclass
class ResultRecord:
    environment: str
    method: str
    num_trajectories: int
    horizon: int
    seed: int
    estimate: float
    true_value: float
    squared_error: float
    tv_distance: float | None
    wall_time_ms: int


def _record_order(rec: ResultRecord) -> tuple:
    return (rec.environment, rec.method, rec.num_trajectories, rec.horizon, rec.seed)


@dataclass
class SummaryRow:
    environment: str
    method: str
    num_trajectories: int
    horizon: int
    num_seeds: int
    mse_mean: float
    mse_stderr: float
    log10_mse: float


def tv_distance(estimated: StateDistribution, truth: StateDistribution) -> float:
    """Total variation distance, half the L1 distance between the vectors."""
    if estimated.probs.shape != truth.probs.shape:
        raise ValueError("distributions must cover the same state set")
    return float(0.5 * np.abs(estimated.probs - truth.probs).sum())


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


# tags separating independent randomness streams under one master seed
_TAG_TRAIN, _TAG_DATA = 1, 2


def make_policies(mdp, cfg: ExperimentConfig, master_seed: int):
    """Target policy plus behaviors: all epsilon-softenings of the greedy
    policy extracted from one Q-learning run."""
    spec = cfg.target
    target = train_q_learning_policy(mdp, spec.episodes, spec.epsilon, spec.alpha,
                                     spec.gamma, seed=_derive_seed(master_seed, _TAG_TRAIN))
    greedy = greedy_policy(target)
    behaviors = [soften_policy(greedy, eps) for eps in cfg.behavior_epsilons]
    return target, behaviors


def generate_cell_data(mdp, behaviors, num_traj: int, horizon: int, data_seed: int):
    """The labeled dataset of ``num_traj`` trajectories split as evenly as
    possible across the behaviors (the first ones take the remainder),
    sampled in one :func:`sample_trajectories` call."""
    m = len(behaviors)
    groups = [SampleGroup(policy, num_traj // m + (1 if j < num_traj % m else 0),
                          _derive_seed(data_seed, j), j)
              for j, policy in enumerate(behaviors)]
    return TransitionDataset.concatenate(sample_trajectories(mdp, groups, horizon))


def _kl_reweighted(spec: StateMethod, data: TransitionDataset, parts, totals, target,
                   behaviors):
    """``data`` with the sample proportions W_j/W of the labels whose records
    (``parts``, summed weights ``totals``) weigh anything replaced by KL-proximity
    weights over those labels' policies, exact or estimated by maximum
    likelihood, at the states of the records that weigh anything."""
    present = np.flatnonzero(totals > 0)
    if spec.denominator == "exact":
        policies = [behaviors[j] for j in present]
    else:
        policies = [estimate_policy_mle(parts[j], *target.probs.shape) for j in present]
    kl_weights = compute_kl_weights(target, policies, np.unique(data.s[data.weights > 0]))
    factor = np.zeros(len(parts))
    factor[present] = kl_weights.weights / (totals[present] / totals[present].sum())
    return replace(data, weights=data.weights * factor[data.labels])


def _assemble_state_method(spec: StateMethod, target, behaviors, data: TransitionDataset,
                           kernel):
    """Assemble phase of one ``STATE_METHODS`` row on labeled data; see
    :func:`_assemble_method`.  A row with KL weights or per-label groups splits
    the records by label once (one behavior: the data is its one part), and
    each group's fit keeps its records.  A label whose records weigh nothing
    is absent; the records must weigh something in total."""
    data.total_weight()
    if spec.kl or spec.grouping != "pooled":
        parts = ([data] if len(behaviors) == 1
                 else [data.subset(data.labels == j) for j in range(len(behaviors))])
        totals = np.array([part.weights.sum() for part in parts])
    if spec.kl:
        data = _kl_reweighted(spec, data, parts, totals, target, behaviors)
    groups = [data] if spec.grouping == "pooled" else parts
    # per group that weighs anything: its denominator, and (label, records, problem)
    denoms, fits = [None] * len(groups), []
    for j, part in enumerate(groups):
        if part.weights.any():
            denoms[j] = (behaviors if spec.denominator == "exact"
                         else estimate_policy_mle(part, *target.probs.shape))
            fits.append((j, part, assemble_bch(part, target, denoms[j], kernel)))
    if spec.grouping == "mis":
        uniform = StateDistribution(np.full(target.num_states, 1.0 / target.num_states))
        dists = [empirical_state_distribution(part, target.num_states) if total > 0 else uniform
                 for part, total in zip(parts, totals)]
        heur = balanced_heuristic(WeightVector(totals / totals.sum()), dists)

    def estimate(solutions):
        omegas = [None] * len(groups)
        for (j, _, problem), x in zip(fits, solutions):
            omegas[j] = problem.correction(x)
        dist = omegas[fits[0][0]].implied_distribution() if len(fits) == 1 else None
        if spec.grouping == "mis":
            return mis_reward_estimate(data, omegas, denoms, target, heur), dist
        # pooled is the mean over its one group
        return float(np.mean([ratio_reward_estimate(part, omegas[j], target, denoms[j])
                              for j, part, _ in fits])), dist

    return [problem for *_, problem in fits], estimate


def _assemble_method(method: str, target, behaviors, data: TransitionDataset,
                     kernel: KernelSpec):
    """Assemble phase of one method: (the correction problems it learns, a
    function taking their solutions, in order, to what :func:`run_method`
    returns)."""
    if data.labels is None and len(behaviors) == 1:
        data = replace(data, labels=np.zeros(len(data), dtype=np.int64))
    data.require_labels(len(behaviors))
    if method in STATE_METHODS:
        return _assemble_state_method(STATE_METHODS[method], target, behaviors, data, kernel)
    if method == "sadl":
        sa_kernel = kernel if kernel.kind != "state-delta" else KernelSpec.state_action_delta()
        problem = assemble_sadl(data, target, sa_kernel)
        return [problem], lambda solutions: (
            sadl_reward_estimate(data, problem.correction(solutions[0]), target), None)
    if method == "wis":
        return [], lambda _: (stepwise_wis_estimate(data, target, behaviors), None)
    raise UnknownMethod(f"unknown method {method!r}")


def run_method(method: str, target, behaviors, data: TransitionDataset,
               kernel: KernelSpec, solver: SolverParams):
    """Dispatch one method (a ``STATE_METHODS`` row, ``sadl`` or ``wis``);
    returns (estimate, implied state distribution, or None unless the method
    learned a single state correction in this cell).  Labels must index
    ``behaviors``; unlabeled data is allowed with one behavior.  Runs the
    method's assemble, solve and estimate phases, its solves one at a time."""
    problems, estimate = _assemble_method(method, target, behaviors, data, kernel)
    return estimate([x for x, _ in solve_problems(problems, solver.iters)])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _solve_threads(workers: int) -> int:
    """Threads for one cell's sparse solves: the usable CPUs shared among
    ``workers`` cell processes, at least one."""
    return max(1, _usable_cpus() // workers)


# per-process cache so worker processes build the environment and train the
# policies only once
_WORKER_CACHE: dict = {}


def _cell_context(cfg: ExperimentConfig, master_seed: int):
    key = (cfg.environment, cfg.target.episodes, cfg.target.epsilon, cfg.target.alpha,
           cfg.target.gamma, tuple(cfg.behavior_epsilons), master_seed)
    ctx = _WORKER_CACHE.get(key)
    if ctx is None:
        mdp = build_environment(cfg.environment)
        target, behaviors = make_policies(mdp, cfg, master_seed)
        d_target = stationary_distribution(mdp, target)
        truth = average_reward(mdp, target, dist=d_target)
        ctx = (mdp, target, behaviors, truth, d_target)
        _WORKER_CACHE.clear()
        _WORKER_CACHE[key] = ctx
    return ctx


def _run_cell(args, workers: int = 1):
    """The records of one cell: every method's assembly, then all of the
    cell's solves together (see :func:`solve_problems`), then every
    method's estimate.  A method's wall time is its own assembly and
    estimate plus the durations of its own solves."""
    cfg, master_seed, measure_time, num_traj, horizon, seed = args
    mdp, target, behaviors, truth, d_target = _cell_context(cfg, master_seed)
    data_seed = _derive_seed(master_seed, _TAG_DATA, num_traj, horizon, seed)
    data = generate_cell_data(mdp, behaviors, num_traj, horizon, data_seed)
    plans = []
    for method in cfg.methods:
        start = time.perf_counter()
        problems, estimate = _assemble_method(method, target, behaviors, data, cfg.kernel)
        plans.append((method, problems, estimate, time.perf_counter() - start))
    solved = iter(solve_problems([p for _, problems, _, _ in plans for p in problems],
                                 cfg.solver.iters, _solve_threads(workers)))
    records = []
    for method, problems, estimate, elapsed in plans:
        start = time.perf_counter()
        mine = list(itertools.islice(solved, len(problems)))
        value, dist = estimate([x for x, _ in mine])
        elapsed += time.perf_counter() - start + sum(seconds for _, seconds in mine)
        wall_ms = int(round(elapsed * 1000)) if measure_time else 0
        tv = tv_distance(dist, d_target) if dist is not None else None
        records.append(ResultRecord(cfg.environment, method, num_traj, horizon, seed,
                                    value, truth, (value - truth) ** 2, tv, wall_ms))
    return records


def check_run_args(master_seed: int, workers: int = 1) -> None:
    """Reject a negative master seed or fewer than one worker."""
    if master_seed < 0:
        raise InvalidConfig("master seed must be nonnegative")
    if workers < 1:
        raise InvalidConfig("workers must be >= 1")


def run_experiment(cfg: ExperimentConfig, master_seed: int = 0, workers: int = 1,
                   measure_time: bool = True) -> list[ResultRecord]:
    """Run the full sweep and return records sorted by
    (environment, method, num_trajectories, horizon, seed).

    Data seeds derive from the sweep values, so permuting the sweep lists
    permutes rows without changing any per-cell value, and all methods in a
    cell see the same dataset.  The cells run in min(``workers``, cells)
    processes, in this one when that is 1.  Inside a cell, the solves of
    forms stored as CSR run on max(1, usable CPUs // processes) threads,
    made per cell; dense forms are solved serially.  Results are identical
    to the serial run.
    With ``measure_time``, a record's ``wall_time_ms`` covers its method's
    assembly and estimate plus the durations of its own solves, which may
    have overlapped other methods' solves.
    """
    cfg.validate()
    check_run_args(master_seed, workers)
    tasks = [(cfg, master_seed, measure_time, nt, h, k)
             for nt in cfg.num_trajectories for h in cfg.horizons
             for k in range(cfg.seeds)]
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(functools.partial(_run_cell, workers=workers), tasks))
    else:
        chunks = [_run_cell(task) for task in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=_record_order)
    return records


def _group_stats(records, value):
    """(key, count, mean, standard error) of ``value(record)`` per
    (environment, method, num_trajectories, horizon) group in key order,
    skipping records whose value is None."""
    groups: dict = {}
    for rec in records:
        if value(rec) is not None:
            key = (rec.environment, rec.method, rec.num_trajectories, rec.horizon)
            groups.setdefault(key, []).append(value(rec))
    for key in sorted(groups):
        x = np.asarray(groups[key])
        stderr = float(x.std(ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
        yield key, len(x), float(x.mean()), stderr


def summarize_mse(records) -> list[SummaryRow]:
    """Group records by (environment, method, num_trajectories, horizon) and
    report mean squared error, its standard error, and log10: -inf for a
    zero mean, NaN for a NaN one."""
    with np.errstate(divide="ignore"):
        return [SummaryRow(*key, n, mean, stderr, float(np.log10(mean)))
                for key, n, mean, stderr in _group_stats(records, lambda r: r.squared_error)]


@dataclass
class TvSummaryRow:
    environment: str
    method: str
    num_trajectories: int
    horizon: int
    num_seeds: int
    tv_mean: float
    tv_stderr: float


def summarize_tv(records) -> list[TvSummaryRow]:
    """Mean total-variation distance per cell group, over records that carry
    one (those whose method learned a single state correction)."""
    return [TvSummaryRow(*key, n, mean, stderr)
            for key, n, mean, stderr in _group_stats(records, lambda r: r.tv_distance)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows, path, row_type=None) -> None:
    """Write dataclass rows of ``row_type`` (default: the first row's type,
    or ResultRecord for no rows) as UTF-8 CSV: header first, fields in
    declaration order, reals at 17 significant digits, records sorted by
    (environment, method, num_trajectories, horizon, seed)."""
    rows = list(rows)
    if row_type is None:
        row_type = type(rows[0]) if rows else ResultRecord
    if row_type is ResultRecord:
        rows.sort(key=_record_order)
    names = [f.name for f in fields(row_type)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, name)) for name in names])


# inverse of _format_cell per field type; an empty optional cell is None
_CELL_PARSERS = {str: str, int: int, float: float,
                 float | None: lambda text: float(text) if text else None}


def read_records_csv(path) -> list[ResultRecord]:
    """Parse a records CSV back into ResultRecord rows (round-trip of
    emit_csv), each column by its field's type."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [ResultRecord(**{f.name: _CELL_PARSERS[f.type](row[f.name])
                                for f in fields(ResultRecord)})
                for row in csv.DictReader(fh)]
