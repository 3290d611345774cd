import functools
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from empbench import (METHOD_NAMES, STATE_METHODS, DegenerateReference, ExperimentConfig,
                      InvalidConfig, KernelSpec, PolicySpec, ResultRecord, SampleGroup,
                      SolverParams, StateDistribution, TransitionDataset, average_reward,
                      build_environment,
                      build_singlepath, emit_csv, parse_config, read_records_csv,
                      run_experiment, run_method, sample_trajectories, summarize_mse,
                      summarize_tv, tv_distance)
from empbench import cli, corrections, harness, learn_bch
from empbench.cli import main
from empbench.harness import (_CONFIG_KEYS, TvSummaryRow, _cell_context, generate_cell_data,
                              make_policies)

from helpers import random_mdp, random_soft_policy


REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
# records.csv of `empbench run demos/singlepath.cfg --seed 0`
GOLDEN_SINGLEPATH = DATA / "singlepath_seed0_records.csv"
# all nine methods through the CLI, records.csv of each config at --seed 0
GOLDEN_ALLMETHODS = ("allmethods_3behaviors", "allmethods_1behavior")
# records.csv of `empbench run benchmark/configs/taxi-cell.cfg --seed 0`: the
# CSR forms, the threaded solves and the 16- and 64-entry transition rows
TAXI_CELL = REPO / "benchmark" / "configs" / "taxi-cell.cfg"
GOLDEN_TAXI_CELL = DATA / "taxi_cell_seed0_records.csv"

TINY_CONFIG = """
environment = singlepath
methods = emp,wis
num_trajectories = 6
horizons = 20
seeds = 3
behavior.epsilons = 0.3
target.episodes = 40
solver.iters = 1500
"""

# prints one digest of the gridworld state form (16 variables) and
# state-action form (64 variables), the largest dense forms a shipped
# environment assembles, from its population dataset
GRIDWORLD_FORMS_DIGEST = """
import hashlib
import numpy as np
from empbench import (KernelSpec, TabularPolicy, assemble_state_action_quadratic,
                      assemble_state_quadratic, build_gridworld, population_dataset)
rng = np.random.default_rng(7)
behavior, target = (TabularPolicy(0.8 * rng.dirichlet(np.ones(4), 16) + 0.05)
                    for _ in range(2))
data = population_dataset(build_gridworld(), behavior)
forms = [assemble_state_quadratic(data, target, behavior, KernelSpec.state_delta(), 16),
         assemble_state_action_quadratic(data, target, np.full(4, 0.25),
                                         KernelSpec.state_action_delta(), 16, 4)]
assert all(isinstance(form.entries, np.ndarray) for form in forms)
print(hashlib.sha256(b"".join(form.entries.tobytes() for form in forms)).hexdigest())
"""


def cli_env(**extra):
    """os.environ plus ``extra``, with this checkout's src on PYTHONPATH,
    for running the CLI in a subprocess."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def tiny_config_with(line):
    """TINY_CONFIG with ``line`` in place of its line for the same key (a
    config sets each key once)."""
    key = line.split("=", 1)[0].strip()
    kept = [old for old in TINY_CONFIG.splitlines() if old.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


class TestTvDistance:
    def test_identical_distributions(self):
        d = StateDistribution(np.array([0.2, 0.8]))
        assert tv_distance(d, d) == 0.0

    def test_disjoint_indicators(self):
        a = StateDistribution(np.array([1.0, 0.0]))
        b = StateDistribution(np.array([0.0, 1.0]))
        assert tv_distance(a, b) == 1.0

    def test_matches_half_l1(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = StateDistribution(rng.dirichlet(np.ones(6)))
            q = StateDistribution(rng.dirichlet(np.ones(6)))
            oracle = 0.5 * sum(abs(pi - qi) for pi, qi in zip(p.probs, q.probs))
            assert tv_distance(p, q) == pytest.approx(oracle, abs=1e-12)
            assert 0.0 <= tv_distance(p, q) <= 1.0


# each config key, a non-default value for it, and the edit that value must
# make to the default config
KEY_CASES = {
    "environment": ("gridworld", lambda c: replace(c, environment="gridworld")),
    "methods": ("emp, sadl", lambda c: replace(c, methods=["emp", "sadl"])),
    "num_trajectories": ("7, 9", lambda c: replace(c, num_trajectories=[7, 9])),
    "horizons": ("11", lambda c: replace(c, horizons=[11])),
    "seeds": ("3", lambda c: replace(c, seeds=3)),
    "behavior.epsilons": ("0.5, 0.25",
                          lambda c: replace(c, behavior_epsilons=[0.5, 0.25])),
    "target.episodes": ("17", lambda c: replace(c, target=PolicySpec(episodes=17))),
    "target.epsilon": ("0.35", lambda c: replace(c, target=PolicySpec(epsilon=0.35))),
    "target.alpha": ("0.45", lambda c: replace(c, target=PolicySpec(alpha=0.45))),
    "target.gamma": ("0.5", lambda c: replace(c, target=PolicySpec(gamma=0.5))),
    # the state-action kernel serves only the state-action method
    "kernel.kind": ("state-action-delta\nmethods = sadl",
                    lambda c: replace(c, kernel=KernelSpec.state_action_delta(),
                                      methods=["sadl"])),
    # a bandwidth needs the gaussian kernel; the delta kernels reject one
    "kernel.bandwidth": ("1.5\nkernel.kind = gaussian-on-embedding",
                         lambda c: replace(c, kernel=KernelSpec.gaussian(1.5))),
    "solver.iters": ("123", lambda c: replace(c, solver=SolverParams(iters=123))),
    "output": ("elsewhere", lambda c: replace(c, output="elsewhere")),
}


# one out-of-range value per Q-learning key, with the error it must raise
TARGET_OUT_OF_RANGE = [
    ("target.episodes = -5", r"target\.episodes must be >= 1"),
    ("target.epsilon = 1", r"target\.epsilon must be in \(0, 1\)"),
    ("target.alpha = 0", r"target\.alpha must be in \(0, 1\]"),
    ("target.gamma = 5", r"target\.gamma must be in \(0, 1\)"),
]


class TestParseConfig:
    def test_empty_config_is_the_default(self):
        assert parse_config("") == ExperimentConfig()

    def test_every_key_has_a_case(self):
        assert set(KEY_CASES) == set(_CONFIG_KEYS)

    @pytest.mark.parametrize("key", sorted(KEY_CASES))
    def test_key_sets_only_its_field(self, key):
        value, expected = KEY_CASES[key]
        assert parse_config(f"{key} = {value}\n") == expected(ExperimentConfig())

    def test_solver_seed_is_not_a_key(self):
        # the solver takes no seed: its power iteration starts from a fixed vector
        with pytest.raises(InvalidConfig, match="line 1: unknown key 'solver.seed'"):
            parse_config("solver.seed = 1\n")

    def test_kernel_error_is_invalid_config(self):
        with pytest.raises(InvalidConfig, match="bandwidth"):
            parse_config("kernel.kind = gaussian-on-embedding\n")

    @pytest.mark.parametrize("kind", ["state-delta", "state-action-delta"])
    def test_bandwidth_on_delta_kernel_rejected(self, kind):
        with pytest.raises(InvalidConfig, match=f"kernel kind '{kind}' takes no bandwidth"):
            parse_config(f"kernel.kind = {kind}\nkernel.bandwidth = 7\n")

    def test_full_config(self):
        cfg = parse_config(TINY_CONFIG)
        assert cfg.environment == "singlepath"
        assert cfg.methods == ["emp", "wis"]
        assert cfg.num_trajectories == [6]
        assert cfg.seeds == 3
        assert cfg.behavior_epsilons == [0.3]
        assert cfg.target.episodes == 40
        assert cfg.solver.iters == 1500

    def test_comments_and_blank_lines(self):
        cfg = parse_config("environment = gridworld\n# comment\n\nseeds = 2\n")
        assert cfg.environment == "gridworld"
        assert cfg.seeds == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("methods = emp,frobnicate\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("environmnet = taxi\n")

    def test_zero_seeds_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("seeds = 0\n")

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("seeds = three\n")

    def test_unknown_environment_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("environment = pendulum\n")

    def test_solver_step_is_not_a_key(self, tmp_path, capsys):
        # the solver's step is always 0.5 / lambda_max of the form
        with pytest.raises(InvalidConfig, match="line 1: unknown key 'solver.step'"):
            parse_config("solver.step = 0.25\n")
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_CONFIG + "solver.step = 0.25\n", encoding="utf-8")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'solver.step'" in capsys.readouterr().err

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # a second value for a key is an error, not a silent override
        with pytest.raises(InvalidConfig, match="line 3: key 'seeds' is already set on line 1"):
            parse_config("seeds = 5\n# ten seeds\nseeds = 10\n")
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_CONFIG + "seeds = 10\n", encoding="utf-8")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "line 10: key 'seeds' is already set on line 6" in capsys.readouterr().err

    def test_zero_iters_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("solver.iters = 0\n")


class TestRunExperiment:
    def test_record_count(self):
        cfg = parse_config(TINY_CONFIG)
        cfg.methods = ["emp"]
        records = run_experiment(cfg, master_seed=0, measure_time=False)
        assert len(records) == 3  # 1 method x 1 x 1 sweep x 3 seeds

    def test_determinism(self):
        cfg = parse_config(TINY_CONFIG)
        a = run_experiment(cfg, master_seed=0, measure_time=False)
        b = run_experiment(cfg, master_seed=0, measure_time=False)
        assert a == b

    def test_sweep_order_does_not_change_cell_values(self):
        cfg = parse_config(TINY_CONFIG)
        cfg.methods = ["emp"]
        cfg.num_trajectories = [4, 8]
        forward = run_experiment(cfg, master_seed=1, measure_time=False)
        cfg.num_trajectories = [8, 4]
        backward = run_experiment(cfg, master_seed=1, measure_time=False)
        assert forward == backward  # records come back sorted

    def test_true_value_is_constant_oracle(self):
        cfg = parse_config(TINY_CONFIG)
        records = run_experiment(cfg, master_seed=0, measure_time=False)
        mdp = build_singlepath()
        target, _ = make_policies(mdp, cfg, 0)
        oracle = average_reward(mdp, target)
        assert all(r.true_value == pytest.approx(oracle, abs=1e-12) for r in records)

    def test_squared_error_consistent(self):
        cfg = parse_config(TINY_CONFIG)
        for rec in run_experiment(cfg, master_seed=0, measure_time=False):
            assert rec.squared_error == pytest.approx(
                (rec.estimate - rec.true_value) ** 2, abs=1e-12)

    def test_tv_recorded_only_for_pooled_state_corrections(self):
        cfg = parse_config(TINY_CONFIG)
        records = run_experiment(cfg, master_seed=0, measure_time=False)
        by_method = {r.method for r in records if r.tv_distance is not None}
        assert by_method == {"emp"}
        assert all(0.0 <= r.tv_distance <= 1.0 for r in records
                   if r.tv_distance is not None)

    def test_workers_match_serial(self):
        cfg = parse_config(TINY_CONFIG)
        serial = run_experiment(cfg, master_seed=2, workers=1, measure_time=False)
        parallel = run_experiment(cfg, master_seed=2, workers=2, measure_time=False)
        assert serial == parallel

    def test_processes_are_capped_at_the_cells(self, monkeypatch):
        # a fork pool starts all of its max_workers processes at the first
        # submit, and each cell's solves share the CPUs among the processes
        started, shares = [], []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        run_cell = harness._run_cell

        def spy(args, workers=1):
            shares.append(workers)
            return run_cell(args, workers)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "_run_cell", spy)
        cfg = parse_config(TINY_CONFIG)  # three cells
        serial = run_experiment(cfg, master_seed=2, measure_time=False)
        assert run_experiment(cfg, master_seed=2, workers=64, measure_time=False) == serial
        assert started == [3] and shares == [1, 1, 1, 3, 3, 3]
        started.clear()
        shares.clear()
        run_experiment(replace(cfg, seeds=1), master_seed=2, workers=8, measure_time=False)
        assert started == [] and shares == [1]  # one cell runs in this process

    def test_negative_master_seed_rejected(self):
        cfg = parse_config(TINY_CONFIG)
        with pytest.raises(InvalidConfig):
            run_experiment(cfg, master_seed=-1)

    @pytest.mark.parametrize("environment", ["singlepath", "gridworld"])
    def test_equal_problems_give_equal_records(self, environment):
        # with one behavior, the methods of a group pose the same quadratic
        # program on the same data, so their records agree bit for bit
        groups = (("bch", "bch-pooled", "bch-kl-pooled"),
                  ("emp", "emp-single", "kl-emp", "mis"))
        cfg = ExperimentConfig(environment=environment, target=PolicySpec(episodes=200),
                               behavior_epsilons=[0.3], num_trajectories=[1, 3, 12],
                               horizons=[30], methods=list(STATE_METHODS), seeds=3,
                               solver=SolverParams(iters=3000))
        cells = {}
        for r in run_experiment(cfg, master_seed=0, measure_time=False):
            cell = cells.setdefault((r.num_trajectories, r.seed), {})
            cell[r.method] = (r.estimate.hex(), r.tv_distance.hex())
        assert len(cells) == 9
        for cell in cells.values():
            for group in groups:
                assert len({cell[m] for m in group}) == 1, (group, cell)


@functools.lru_cache(maxsize=None)
def behavior_setup(environment, epsilons=(0.2, 0.4, 0.6)):
    mdp = build_environment(environment)
    cfg = ExperimentConfig(environment=environment, behavior_epsilons=list(epsilons))
    target, behaviors = make_policies(mdp, cfg, 0)
    return mdp, target, behaviors


class TestRunMethod:
    @pytest.mark.parametrize("method", sorted(STATE_METHODS))
    def test_empty_data_raises(self, method):
        _, target, behaviors = behavior_setup("singlepath")
        empty = TransitionDataset(s=[], a=[], sp=[], r=[], labels=[])
        with pytest.raises(ValueError):
            run_method(method, target, behaviors, empty,
                       KernelSpec.state_delta(), SolverParams())

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_one_behavior_reports_tv_for_every_state_method(self, method):
        mdp, target, behaviors = behavior_setup("singlepath", (0.3,))
        data = generate_cell_data(mdp, behaviors, 4, 30, 0)
        _, dist = run_method(method, target, behaviors, data,
                             KernelSpec.state_delta(), SolverParams(iters=2000))
        assert (dist is not None) == (method in STATE_METHODS)

    @pytest.mark.parametrize("method", sorted(STATE_METHODS))
    def test_grouped_methods_report_tv_only_for_one_label(self, method):
        # three behaviors: one trajectory fills one label, three fill all
        mdp, target, behaviors = behavior_setup("singlepath")
        reported = []
        for num_traj in (1, 3):
            data = generate_cell_data(mdp, behaviors, num_traj, 30, 0)
            _, dist = run_method(method, target, behaviors, data,
                                 KernelSpec.state_delta(), SolverParams(iters=2000))
            reported.append(dist is not None)
        assert reported == [True, STATE_METHODS[method].grouping == "pooled"]

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_label_past_the_behaviors_raises(self, method):
        # a record labelled 3 with three behaviors has no behavior to divide
        # by, and the grouping methods would drop it from the estimate
        mdp, target, behaviors = behavior_setup("singlepath")
        data = generate_cell_data(mdp, behaviors, 3, 20, 0)
        data = replace(data, labels=data.labels + 1)
        with pytest.raises(ValueError, match="labels must index the 3 behavior"):
            run_method(method, target, behaviors, data, KernelSpec.state_delta(),
                       SolverParams(iters=100))

    @settings(max_examples=25, deadline=None)
    @given(method=st.sampled_from(["bch", "bch-pooled", "bch-kl-pooled", "wis"]),
           num_states=st.integers(2, 5), num_actions=st.integers(2, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_target_equal_to_behavior_gives_the_mean_reward(self, method, num_states,
                                                            num_actions, seed):
        # every importance ratio is exactly 1, so omega = 1 zeroes the balance
        # residual and the estimate is the weighted mean reward; the solver's
        # start 1 / (reference . 1) is 1 only up to rounding, hence rel 1e-12
        # (emp is left out: its denominator is the MLE, not the behavior)
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, num_states, num_actions)
        behavior = random_soft_policy(rng, num_states, num_actions)
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 3, seed)], 30))
        est, _ = run_method(method, behavior, [behavior], data, KernelSpec.state_delta(),
                            SolverParams())
        mean = float((data.weights * data.r).sum() / data.weights.sum())
        assert est == pytest.approx(mean, rel=1e-12, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(method=st.sampled_from([m for m in METHOD_NAMES if m != "wis"]),
           environment=st.sampled_from(["singlepath", "gridworld"]),
           num_traj=st.integers(2, 9), data_seed=st.integers(0, 2**32 - 1))
    def test_permuting_the_records_changes_no_estimate(self, method, environment, num_traj,
                                                       data_seed):
        # the permutation reorders the assembly's sums, which moves the
        # solver's iterates in the last bits: 80 cells moved estimates by at
        # most 4e-8 relative.  wis is left out: it reads trajectories in order.
        mdp, target, behaviors = behavior_setup(environment)
        data = generate_cell_data(mdp, behaviors, num_traj, 40, data_seed)
        permuted = data.subset(np.random.default_rng(data_seed).permutation(len(data)))
        kernel, solver = KernelSpec.state_delta(), SolverParams(iters=2000)
        est, _ = run_method(method, target, behaviors, data, kernel, solver)
        est2, _ = run_method(method, target, behaviors, permuted, kernel, solver)
        assert est2 == pytest.approx(est, rel=1e-6)

    @pytest.mark.parametrize("method", [m for m in METHOD_NAMES if m != "wis"])
    @pytest.mark.parametrize("data_seed", [0, 1])
    def test_splitting_records_into_half_weights_changes_no_estimate(self, method, data_seed):
        # each label-0 record becomes two records of half its weight: every
        # weighted sum is the same up to its order of addition, so only the
        # solver's last bits move (see the permutation test).  mis used to
        # weigh each label by its record count and moved by 3 %.  wis is
        # left out: it reads trajectories step by step.
        mdp, target, behaviors = behavior_setup("gridworld")
        data = generate_cell_data(mdp, behaviors, 4, 40, data_seed)
        copies = np.where(data.labels == 0, 2, 1)
        split = data.subset(np.repeat(np.arange(len(data)), copies))
        split = replace(split, weights=split.weights / np.repeat(copies, copies))
        assert len(split) > len(data) and split.weights.sum() == data.weights.sum()
        kernel, solver = KernelSpec.state_delta(), SolverParams(iters=2000)
        est, _ = run_method(method, target, behaviors, data, kernel, solver)
        est2, _ = run_method(method, target, behaviors, split, kernel, solver)
        assert est2 == pytest.approx(est, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(method=st.sampled_from(METHOD_NAMES),
           environment=st.sampled_from(["singlepath", "gridworld"]),
           num_traj=st.sampled_from([2, 9]), data_seed=st.integers(0, 2**32 - 1))
    def test_doubling_every_weight_changes_nothing(self, method, environment, num_traj,
                                                   data_seed):
        # doubling is exact in floating point and every method is invariant
        # to a common weight scale, so the results agree bitwise
        mdp, target, behaviors = behavior_setup(environment)
        data = generate_cell_data(mdp, behaviors, num_traj, 40, data_seed)
        kernel, solver = KernelSpec.state_delta(), SolverParams(iters=2000)
        est, dist = run_method(method, target, behaviors, data, kernel, solver)
        doubled = replace(data, weights=2.0 * data.weights)
        est2, dist2 = run_method(method, target, behaviors, doubled, kernel, solver)
        assert est2 == est
        assert (dist is None) == (dist2 is None)
        if dist is not None:
            assert np.array_equal(dist.probs, dist2.probs)


# cell text with CSV delimiters, quotes, a newline and non-ASCII characters
CELL_TEXT = st.text('ab ,;"\'\n\u00e9\u20ac')


def same_cell(a, b) -> bool:
    """Equal values of one type, nan equal to nan."""
    if type(a) is not type(b):
        return False
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


class TestEmitCsv:
    def make_record(self):
        return ResultRecord("singlepath", "emp", 5, 10, 0, 0.5, 0.6,
                            0.010000000000000002, None, 0)

    def test_empty_records_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("environment,method,")

    def test_single_record_is_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([self.make_record()], path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(ResultRecord, environment=CELL_TEXT, method=CELL_TEXT,
                              estimate=st.floats(), true_value=st.floats(),
                              squared_error=st.floats(),
                              tv_distance=st.none() | st.floats())))
    def test_round_trip(self, records):
        # st.floats() draws nan and +-inf too
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "roundtrip.csv"
            emit_csv(records, path)
            parsed = read_records_csv(path)
        records.sort(key=lambda r: (r.environment, r.method, r.num_trajectories,
                                    r.horizon, r.seed))
        assert len(parsed) == len(records)
        for got, want in zip(parsed, records):
            for f in fields(ResultRecord):
                assert same_cell(getattr(got, f.name), getattr(want, f.name)), f.name

    def test_rows_sorted(self, tmp_path):
        a = ResultRecord("singlepath", "emp", 5, 10, 1, 0.5, 0.6, 0.01, None, 0)
        b = ResultRecord("singlepath", "bch", 5, 10, 0, 0.5, 0.6, 0.01, None, 0)
        path = tmp_path / "sorted.csv"
        emit_csv([a, b], path)
        parsed = read_records_csv(path)
        assert [r.method for r in parsed] == ["bch", "emp"]

    def test_17_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv([self.make_record()], path)
        assert "0.010000000000000002" in path.read_text(encoding="utf-8")


class TestSummarizeMse:
    def test_single_record(self):
        rec = ResultRecord("singlepath", "emp", 5, 10, 0, 0.5, 0.6, 0.01, None, 0)
        (row,) = summarize_mse([rec])
        assert row.mse_mean == pytest.approx(0.01)
        assert row.mse_stderr == 0.0
        assert row.num_seeds == 1

    def test_two_equal_errors_have_zero_stderr(self):
        recs = [ResultRecord("singlepath", "emp", 5, 10, k, 0.5, 0.6, 0.04, None, 0)
                for k in range(2)]
        (row,) = summarize_mse(recs)
        assert row.mse_mean == pytest.approx(0.04)
        assert row.mse_stderr == pytest.approx(0.0, abs=1e-15)

    def test_matches_hand_computed_group_means(self):
        errors = {"emp": [0.01, 0.03, 0.02], "wis": [0.5, 0.7]}
        records = [ResultRecord("gridworld", m, 10, 20, k, 0.0, 0.0, e, None, 0)
                   for m, errs in errors.items() for k, e in enumerate(errs)]
        rows = {row.method: row for row in summarize_mse(records)}
        for m, errs in errors.items():
            errs = np.asarray(errs)
            assert rows[m].mse_mean == pytest.approx(errs.mean())
            assert rows[m].mse_stderr == pytest.approx(
                errs.std(ddof=1) / np.sqrt(len(errs)))
            assert rows[m].log10_mse == pytest.approx(np.log10(errs.mean()))

    def test_zero_mean_is_minus_infinity_and_nan_mean_is_nan(self):
        def log10_mse(error):
            recs = [ResultRecord("singlepath", "emp", 5, 10, k, 0.5, 0.5, error, None, 0)
                    for k in range(2)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (row,) = summarize_mse(recs)
            return row.log10_mse

        assert log10_mse(0.0) == -math.inf
        assert math.isnan(log10_mse(math.nan))

    def test_summarize_tv_ignores_missing(self):
        recs = [ResultRecord("singlepath", "emp", 5, 10, 0, 0.5, 0.6, 0.01, 0.2, 0),
                ResultRecord("singlepath", "wis", 5, 10, 0, 0.5, 0.6, 0.01, None, 0)]
        rows = summarize_tv(recs)
        assert len(rows) == 1
        assert rows[0].method == "emp"
        assert rows[0].tv_mean == pytest.approx(0.2)


class TestCli:
    def write_config(self, tmp_path, text=TINY_CONFIG):
        path = tmp_path / "config.txt"
        path.write_text(text + f"\noutput = {tmp_path / 'out'}\n", encoding="utf-8")
        return path

    def test_run_writes_records_and_summary(self, tmp_path, capsys):
        rc = main(["run", str(self.write_config(tmp_path))])
        assert rc == 0
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_run_is_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "records.csv").read_bytes()
        b = (tmp_path / "b" / "records.csv").read_bytes()
        assert a == b

    def test_run_writes_tv_summary(self, tmp_path):
        rc = main(["run", str(self.write_config(tmp_path)), "--out", str(tmp_path / "tv")])
        assert rc == 0
        text = (tmp_path / "tv" / "tv_summary.csv").read_text(encoding="utf-8")
        assert text.startswith("environment,method,num_trajectories,horizon,num_seeds,tv_mean,")
        assert "emp" in text
        assert "wis" not in text  # wis learns no correction, so it has no TV

    def test_tv_summary_without_tv_methods_has_its_header(self, tmp_path):
        config = self.write_config(tmp_path, TINY_CONFIG.replace("emp,wis", "wis, sadl"))
        assert main(["run", str(config)]) == 0
        lines = (tmp_path / "out" / "tv_summary.csv").read_text(encoding="utf-8").splitlines()
        assert lines == [",".join(f.name for f in fields(TvSummaryRow))]

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "singlepath"]) == 0
        out = capsys.readouterr().out
        assert "average_reward" in out and "stationary_distribution" in out

    def test_module_entry_point(self, capsys):
        # `python -m empbench.cli` runs the same main() as the console script
        proc = subprocess.run([sys.executable, "-m", "empbench.cli", "oracle", "singlepath"],
                              capture_output=True, text=True, env=cli_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(["oracle", "singlepath"]) == 0
        expected = capsys.readouterr().out
        assert expected.startswith("environment = singlepath\n")
        assert proc.stdout == expected

    def test_cli_import_loads_no_unused_scipy_subpackage(self):
        # none is used, and each would add to every run's resident memory
        # (scipy.optimize about 26 MB, scipy.sparse.csgraph about 10 MB)
        unused = {"scipy.optimize", "scipy.linalg", "scipy.sparse.linalg",
                  "scipy.sparse.csgraph"}
        proc = subprocess.run([sys.executable, "-c",
                               "import sys, empbench.cli; print(*sys.modules)"],
                              capture_output=True, text=True, env=cli_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "empbench.cli" in proc.stdout.split()
        assert not unused & set(proc.stdout.split())

    def test_env_check_subcommand(self, capsys):
        assert main(["env-check", "singlepath"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("methods = nope\n", encoding="utf-8")
        assert main(["run", str(bad)]) == 2

    def test_solver_seed_key_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, TINY_CONFIG + "solver.seed = 1\n")
        assert main(["run", str(config)]) == 2
        assert "unknown key 'solver.seed'" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.txt")]) == 2

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        """Fail the command (exit 3) if the sweep starts."""
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(cli, "run_experiment", refuse)

    @pytest.mark.parametrize("line, message", TARGET_OUT_OF_RANGE)
    def test_target_out_of_range_exits_2(self, tmp_path, capsys, no_sweep, line, message):
        assert main(["run", str(self.write_config(tmp_path, tiny_config_with(line)))]) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_bandwidth_on_delta_kernel_exits_2(self, tmp_path, capsys, no_sweep):
        config = self.write_config(tmp_path, TINY_CONFIG + "kernel.bandwidth = 7")
        assert main(["run", str(config)]) == 2
        assert "takes no bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth", ["nan", "inf"])
    def test_non_finite_bandwidth_exits_2(self, tmp_path, capsys, no_sweep, bandwidth):
        # nan would give a NaN form, which the solver returns as omega = 1;
        # inf would give a constant kernel
        text = (TINY_CONFIG.replace("emp,wis", "bch") + "kernel.kind = gaussian-on-embedding\n"
                + f"kernel.bandwidth = {bandwidth}\n")
        assert main(["run", str(self.write_config(tmp_path, text))]) == 2
        assert "positive finite bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, message", [("directory", "Is a directory"),
                                               ("latin-1", "can't decode byte 0xe9")])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, no_sweep, kind, message):
        config = tmp_path / "config.txt"
        if kind == "directory":
            config.mkdir()
        else:
            config.write_bytes(TINY_CONFIG.encode("latin-1") + b"# caf\xe9\n")
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and message in err
        assert not out.exists()

    def test_uncreatable_output_exits_2_before_the_sweep(self, tmp_path, capsys, no_sweep):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        config = str(self.write_config(tmp_path))
        assert main(["run", config, "--out", str(blocker / "sub")]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_file_not_found_during_the_run_exits_3(self, tmp_path, monkeypatch):
        def missing(*args, **kwargs):
            raise FileNotFoundError("some data file")
        monkeypatch.setattr(cli, "run_experiment", missing)
        assert main(["run", str(self.write_config(tmp_path))]) == 3

    def test_state_action_kernel_with_state_method_exits_2(self, tmp_path, capsys,
                                                             no_sweep):
        text = (TINY_CONFIG.replace("emp,wis", "bch, sadl")
                + "kernel.kind = state-action-delta\n")
        assert main(["run", str(self.write_config(tmp_path, text))]) == 2
        assert "method 'bch' learns a state correction" in capsys.readouterr().err
        # without a state-correction method the kernel is valid
        parse_config(text.replace("bch, sadl", "sadl"))

    @pytest.mark.parametrize("line", ["methods = bch, bch", "num_trajectories = 4, 4",
                                      "horizons = 20, 20"])
    def test_duplicate_sweep_entry_exits_2(self, tmp_path, capsys, no_sweep, line):
        config = self.write_config(tmp_path, tiny_config_with(line))
        assert main(["run", str(config)]) == 2
        assert f"{line.split()[0]} lists an entry twice" in capsys.readouterr().err

    def test_duplicate_behavior_epsilons_allowed(self):
        # two labels may log with the same policy
        assert parse_config("behavior.epsilons = 0.2, 0.2\n").behavior_epsilons == [0.2, 0.2]

    @pytest.mark.parametrize("argv, message", [
        (["run", "--seed", "-1"], "master seed must be nonnegative"),
        (["run", "--workers", "0"], "workers must be >= 1"),
        (["oracle", "singlepath", "--seed", "-1"], "master seed must be nonnegative"),
    ], ids=["run-seed", "run-workers", "oracle-seed"])
    def test_bad_seed_or_workers_exits_2_before_the_file_system(self, tmp_path, capsys,
                                                               no_sweep, argv, message):
        if argv[0] == "run":
            argv = [argv[0], str(self.write_config(tmp_path)), *argv[1:],
                    "--out", str(tmp_path / "flag")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not any(path.is_dir() for path in tmp_path.iterdir())

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        assert main(["run", str(self.write_config(tmp_path)), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("name", GOLDEN_ALLMETHODS)
    def test_all_methods_match_golden_records(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["run", str(DATA / f"{name}.cfg"), "--seed", "0",
                     "--out", str(out)]) == 0
        golden = DATA / f"{name}_records.csv"
        assert (out / "records.csv").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("blas_threads", ["1", "2"])
    def test_golden_records_for_any_blas_thread_count(self, tmp_path, blas_threads):
        # small forms are one BLAS product; OpenBLAS reads its thread count
        # when it loads, so each count runs in a fresh interpreter
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "empbench.cli", "run",
                               str(DATA / "allmethods_1behavior.cfg"), "--seed", "0",
                               "--out", str(out)], capture_output=True, text=True,
                              env=cli_env(OPENBLAS_NUM_THREADS=blas_threads), timeout=300)
        assert proc.returncode == 0, proc.stderr
        golden = DATA / "allmethods_1behavior_records.csv"
        assert (out / "records.csv").read_bytes() == golden.read_bytes()

    def test_gridworld_forms_for_any_blas_thread_count(self):
        # a threaded syrk can add in another order from about 100 variables;
        # every shipped environment's dense forms are smaller than that
        digests = []
        for blas_threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", GRIDWORLD_FORMS_DIGEST],
                                  capture_output=True, text=True, timeout=120,
                                  env=cli_env(OPENBLAS_NUM_THREADS=blas_threads))
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    def test_run_tv_summary_matches_golden(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(DATA / "allmethods_3behaviors.cfg"), "--seed", "0",
                     "--out", str(out)]) == 0
        golden = DATA / "allmethods_3behaviors_tv_summary.csv"
        assert (out / "tv_summary.csv").read_bytes() == golden.read_bytes()

    def test_kl_methods_run_when_closest_behavior_has_no_records(self, tmp_path):
        # two trajectories go to the two least KL-close behaviors; the
        # KL-closest one (epsilon 0.2) logs nothing
        config = self.write_config(tmp_path, """
environment = singlepath
methods = bch-kl-pooled, kl-emp
num_trajectories = 2
horizons = 30
seeds = 3
behavior.epsilons = 0.6, 0.4, 0.2
target.episodes = 200
solver.iters = 3000
""")
        assert main(["run", str(config)]) == 0
        records = read_records_csv(tmp_path / "out" / "records.csv")
        assert len(records) == 6
        assert all(np.isfinite(r.estimate) for r in records)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_singlepath_demo_matches_golden_records(self, tmp_path, workers):
        out = tmp_path / "out"
        assert main(["run", str(REPO / "demos" / "singlepath.cfg"), "--seed", "0",
                     "--workers", str(workers), "--out", str(out)]) == 0
        assert (out / "records.csv").read_bytes() == GOLDEN_SINGLEPATH.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_taxi_cell_matches_golden_records(self, tmp_path, workers):
        out = tmp_path / "out"
        assert main(["run", str(TAXI_CELL), "--seed", "0", "--workers", str(workers),
                     "--out", str(out)]) == 0
        assert (out / "records.csv").read_bytes() == GOLDEN_TAXI_CELL.read_bytes()


def small_taxi_config(methods):
    """One taxi cell of eight 40-step trajectories with a 200-iteration
    budget: its 2000-variable forms are stored as CSR, and it runs fast."""
    return ExperimentConfig(environment="taxi", target=PolicySpec(episodes=2000),
                            behavior_epsilons=[0.2], num_trajectories=[8], horizons=[40],
                            methods=methods, seeds=1, solver=SolverParams(iters=200))


def solve_spy(monkeypatch, solve):
    """Replace the solver name every solve looks up with ``solve`` after
    noting the calling thread's name; returns the list of names."""
    names = []

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return solve(*args, **kwargs)

    monkeypatch.setattr(corrections, "solve_normalized_quadratic", spy)
    return names


class TestConcurrentSolves:
    """A cell assembles every method, solves all of their problems together
    (forms stored as CSR on threads) and then estimates."""

    def test_threaded_cell_equals_serial_run_method(self, monkeypatch):
        cfg = small_taxi_config(["bch", "emp", "sadl", "wis"])
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        names = solve_spy(monkeypatch, corrections.solve_normalized_quadratic)
        records = run_experiment(cfg, master_seed=0, measure_time=False)
        assert len(names) == 3 and all(n.startswith("empbench-solve") for n in names)
        mdp, target, behaviors, truth, d_target = _cell_context(cfg, 0)
        data = generate_cell_data(mdp, behaviors, 8, 40,
                                  harness._derive_seed(0, harness._TAG_DATA, 8, 40, 0))
        names.clear()
        serial = []
        for method in cfg.methods:
            estimate, dist = run_method(method, target, behaviors, data, cfg.kernel,
                                        cfg.solver)
            serial.append(ResultRecord(
                "taxi", method, 8, 40, 0, estimate, truth, (estimate - truth) ** 2,
                tv_distance(dist, d_target) if dist is not None else None, 0))
        assert names == ["MainThread"] * 3
        assert records == serial

    @pytest.mark.parametrize("workers, threads", [(1, 8), (2, 4), (3, 2), (8, 1), (16, 1)])
    def test_threads_share_the_cpus_among_workers(self, monkeypatch, workers, threads):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
        assert harness._solve_threads(workers) == threads
        asked = []
        solve_problems = harness.solve_problems

        def spy(problems, iters, threads):
            asked.append(threads)
            return solve_problems(problems, iters, threads)

        monkeypatch.setattr(harness, "solve_problems", spy)
        cfg = parse_config(TINY_CONFIG)
        harness._run_cell((cfg, 0, False, 6, 20, 0), workers=workers)
        assert asked == [threads]

    def test_degenerate_reference_on_a_worker_thread_surfaces(self, monkeypatch):
        cfg = small_taxi_config(["bch", "emp"])
        raised = []

        def degenerate(*args, **kwargs):
            raised.append(DegenerateReference("reference has no mass anywhere"))
            raise raised[-1]

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        names = solve_spy(monkeypatch, degenerate)
        with pytest.raises(DegenerateReference) as info:
            run_experiment(cfg, master_seed=0)
        assert any(info.value is exc for exc in raised)
        assert names and all(n.startswith("empbench-solve") for n in names)


class TestTaxiMemory:
    """The taxi run path never holds a dense (S, A, S) tensor or a dense
    2000 x 2000 form: tracemalloc peaks of the setup and of one learner."""

    @pytest.fixture(scope="class")
    def peaks(self):
        # the peak does not grow with the episode count, while tracing slows
        # every Q-learning step, so the target trains for 200 episodes
        cfg = parse_config("""
environment = taxi
target.episodes = 200
behavior.epsilons = 0.2
solver.iters = 8000
""")
        harness._WORKER_CACHE.clear()
        tracemalloc.start()
        try:
            mdp, target, behaviors, _, _ = _cell_context(cfg, 0)
            context_peak = tracemalloc.get_traced_memory()[1]
            data = generate_cell_data(mdp, behaviors, 200, 200, data_seed=11)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            learn_bch(data, target, behaviors, solver=cfg.solver)
            learn_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            harness._WORKER_CACHE.clear()
        return context_peak, learn_peak

    def test_cell_context_peak(self, peaks):
        assert peaks[0] < 20e6

    def test_learn_bch_peak(self, peaks):
        assert peaks[1] < 20e6
