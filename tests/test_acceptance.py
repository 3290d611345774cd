"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy taxi and gridworld sweeps are shared module fixtures; the
whole module takes several minutes.  The tests that use them are marked
``slow``, so ``-m "not slow"`` runs the rest in seconds.
"""

import time

import numpy as np
import pytest

from empbench import (KernelSpec, SampleGroup, SolverParams, TabularPolicy, TransitionDataset,
                      WeightVector, average_reward, balanced_heuristic,
                      build_singlepath, build_taxi, greedy_policy, learn_bch,
                      learn_emp, learn_sadl, mis_reward_estimate, population_dataset,
                      ratio_reward_estimate, sample_trajectories, soften_policy,
                      stationary_distribution, stepwise_wis_estimate,
                      train_q_learning_policy)
from empbench.cli import main
from empbench.harness import ExperimentConfig, PolicySpec, _derive_seed, run_experiment
from empbench.policies import estimate_policy_mle

from helpers import (naive_state_action_objective, naive_state_quadratic, random_mdp,
                     random_policy, random_soft_policy, stationary_start)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def paired_not_worse(a: np.ndarray, b: np.ndarray):
    """One-sided check that mean(a) <= mean(b) up to 2 standard errors of
    the paired difference; returns (ok, diff, stderr)."""
    d = a - b
    se = d.std(ddof=1) / np.sqrt(len(d))
    return d.mean() <= 2 * se, d.mean(), se


def by_method(records, method, field):
    vals = [getattr(r, field) for r in records if r.method == method]
    return np.asarray(vals, dtype=np.float64)


SINGLEPATH_B1 = TabularPolicy(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5],
                                        [0.7, 0.3], [0.4, 0.6]]))
SINGLEPATH_B2 = TabularPolicy(np.array([[0.3, 0.7], [0.8, 0.2], [0.6, 0.4],
                                        [0.1, 0.9], [0.9, 0.1]]))
SINGLEPATH_TARGET = TabularPolicy(np.array([[0.8, 0.2], [0.4, 0.6], [0.7, 0.3],
                                            [0.5, 0.5], [0.6, 0.4]]))

TRAINED_TARGET = PolicySpec(episodes=2000)


@pytest.fixture(scope="module")
def taxi_sweep():
    cfg = ExperimentConfig(environment="taxi", methods=["bch", "emp", "wis"],
                           num_trajectories=[200], horizons=[200], seeds=50,
                           target=TRAINED_TARGET, behavior_epsilons=[0.2],
                           solver=SolverParams(iters=8000))
    return run_experiment(cfg, master_seed=0, measure_time=False)


@pytest.fixture(scope="module")
def taxi_wis_horizon_mse():
    # horizon growth of the step-wise baseline; 200 seeds because squared
    # errors are heavy-tailed and the baseline is cheap to evaluate
    mdp = build_taxi()
    target = train_q_learning_policy(mdp, TRAINED_TARGET.episodes, 0.1, 0.2, 0.95,
                                     seed=_derive_seed(0, 1))
    behavior = soften_policy(greedy_policy(target), 0.2)
    truth = average_reward(mdp, target)
    mses = {}
    for horizon in (50, 100, 200):
        errors = []
        for seed in range(200):
            group = SampleGroup(behavior, 200, _derive_seed(0, 2, 200, horizon, seed))
            parts = sample_trajectories(mdp, [group], horizon)
            est = stepwise_wis_estimate(TransitionDataset.concatenate(parts),
                                        target, [behavior])
            errors.append((est - truth) ** 2)
        mses[horizon] = float(np.mean(errors))
    return mses


@pytest.fixture(scope="module")
def gridworld_single_sweep():
    cfg = ExperimentConfig(environment="gridworld", methods=["bch", "emp", "wis"],
                           num_trajectories=[200], horizons=[200], seeds=50,
                           target=TRAINED_TARGET, behavior_epsilons=[0.2],
                           solver=SolverParams(iters=30000))
    return run_experiment(cfg, master_seed=0, measure_time=False)


@pytest.fixture(scope="module")
def gridworld_multi_sweep():
    cfg = ExperimentConfig(environment="gridworld",
                           methods=["emp", "emp-single", "mis"],
                           num_trajectories=[200], horizons=[200], seeds=50,
                           target=TRAINED_TARGET, behavior_epsilons=[0.2, 0.4, 0.6],
                           solver=SolverParams(iters=100000))
    return run_experiment(cfg, master_seed=0, measure_time=False)


def test_criterion_1_state_correction_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10):
        mdp = random_mdp(rng, 4, 3)
        behavior = random_soft_policy(rng, 4, 3)
        target = random_soft_policy(rng, 4, 3)
        data = population_dataset(mdp, behavior)
        omega = learn_bch(data, target, behavior)
        truth = (stationary_distribution(mdp, target).probs
                 / stationary_distribution(mdp, behavior).probs)
        worst = max(worst, float(np.abs(omega.values - truth).max()))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-3 and elapsed < 10,
           f"population state correction, 10 random MDPs: "
           f"worst L-inf {worst:.2e} (<= 1e-3), {elapsed:.1f}s (< 10s)")


def test_criterion_2_grouped_assembly_matches_naive_double_sum():
    from empbench import assemble_state_action_quadratic, assemble_state_quadratic
    rng = np.random.default_rng(102)
    n = 100
    target, denom = random_policy(rng, 4, 3), random_policy(rng, 4, 3)
    data = TransitionDataset(s=rng.integers(0, 4, n), a=rng.integers(0, 3, n),
                             sp=rng.integers(0, 4, n), r=rng.normal(size=n))
    nu = np.array([0.2, 0.3, 0.5])
    # the time limit is on the grouped assembly; the O(N^2) Python oracles
    # below are the reference, not the code under test
    start = time.monotonic()
    qf = assemble_state_quadratic(data, target, denom, KernelSpec.state_delta(), 4)
    qf_sa = assemble_state_action_quadratic(data, target, nu,
                                            KernelSpec.state_action_delta(), 4, 3)
    elapsed = time.monotonic() - start

    oracle = naive_state_quadratic(data, target, denom, lambda x, y: float(x == y), 4)
    state_err = float(np.abs(qf.scale * qf.matrix - oracle).max())
    sa_err = 0.0
    for _ in range(5):
        u = rng.random((4, 3))
        oracle_val = naive_state_action_objective(
            data, target, nu, lambda x, y: float(x == y), u)
        sa_err = max(sa_err, abs(qf_sa.value(u.ravel()) - oracle_val))
    report(2, state_err <= 1e-12 and sa_err <= 1e-12 and elapsed < 1,
           f"grouped assembly vs naive double sum at N={n}: state {state_err:.1e}, "
           f"state-action {sa_err:.1e} (<= 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_3_on_policy_identity():
    start = time.monotonic()
    mdp = build_singlepath()
    behavior = SINGLEPATH_B1
    num_traj, horizon = 100, 1000
    data = TransitionDataset.concatenate(
        sample_trajectories(stationary_start(mdp, behavior),
                            [SampleGroup(behavior, num_traj, 103)], horizon))
    omega = learn_emp(data, behavior)
    visits = np.bincount(data.s, minlength=5)
    omega_err = float(np.abs(omega.values[visits >= 200] - 1.0).max())

    pi_hat = estimate_policy_mle(data, 5, 2)
    estimate = ratio_reward_estimate(data, omega, target=behavior, denom_policy=pi_hat)
    rho = behavior.probs[data.s, data.a] / pi_hat.probs[data.s, data.a]
    terms = (omega.values[data.s] * rho * data.r).reshape(num_traj, horizon)
    per_traj = terms.mean(axis=1)
    se = float(per_traj.std(ddof=1) / np.sqrt(num_traj))
    gap = abs(estimate - average_reward(mdp, behavior))
    elapsed = time.monotonic() - start
    report(3, omega_err <= 0.05 and gap <= 3 * se and elapsed < 30,
           f"on-policy identity at N=1e5: max |omega - 1| {omega_err:.3f} (<= 0.05), "
           f"estimate gap {gap:.2e} <= 3 SE ({3 * se:.2e}), {elapsed:.1f}s (< 30s)")


@pytest.mark.slow
def test_criterion_4_estimated_policy_tracks_distribution_better(taxi_sweep):
    tv_emp = by_method(taxi_sweep, "emp", "tv_distance")
    tv_bch = by_method(taxi_sweep, "bch", "tv_distance")
    ok, diff, se = paired_not_worse(tv_emp, tv_bch)
    report(4, ok, f"taxi 200x200, 50 seeds: mean TV emp {tv_emp.mean():.4f} vs "
                  f"bch {tv_bch.mean():.4f}, paired diff {diff:+.5f} <= 2 SE ({2 * se:.5f})")


@pytest.mark.slow
def test_criterion_5_single_behavior_mse_ordering(taxi_sweep, gridworld_single_sweep,
                                                  taxi_wis_horizon_mse):
    lines = []
    ok_all = True
    for name, sweep in (("taxi", taxi_sweep), ("gridworld", gridworld_single_sweep)):
        sq = {m: by_method(sweep, m, "squared_error") for m in ("bch", "emp", "wis")}
        ok1, d1, se1 = paired_not_worse(sq["emp"], sq["bch"])
        ok2, d2, se2 = paired_not_worse(sq["bch"], sq["wis"])
        ok_all = ok_all and ok1 and ok2
        lines.append(f"{name} mse emp {sq['emp'].mean():.4f} <= bch {sq['bch'].mean():.4f}"
                     f" <= wis {sq['wis'].mean():.4f}"
                     f" (diffs {d1:+.5f}/{2 * se1:.5f}, {d2:+.5f}/{2 * se2:.5f})")
    mses = taxi_wis_horizon_mse
    strictly_growing = mses[50] < mses[100] < mses[200]
    ok_all = ok_all and strictly_growing
    lines.append("wis log10-mse across horizons "
                 + " < ".join(f"{np.log10(mses[h]):.3f}" for h in (50, 100, 200)))
    report(5, ok_all, "; ".join(lines))


def test_criterion_6_balanced_heuristic_collapses_to_pooled_form():
    mdp = build_singlepath()
    b1, b2, target = SINGLEPATH_B1, SINGLEPATH_B2, SINGLEPATH_TARGET
    data = TransitionDataset.concatenate(
        sample_trajectories(mdp, [SampleGroup(b1, 6, 106, 0), SampleGroup(b2, 6, 107, 1)], 40))
    d1 = stationary_distribution(mdp, b1)
    d2 = stationary_distribution(mdp, b2)
    d_pi = stationary_distribution(mdp, target).probs
    counts = np.bincount(data.labels)
    weights = WeightVector(counts / counts.sum())
    heur = balanced_heuristic(weights, [d1, d2])
    omegas = [d_pi / d1.probs, d_pi / d2.probs]  # oracle ratio arrays
    mis = mis_reward_estimate(data, omegas, [b1, b2], target, heur)
    d0 = weights.weights[0] * d1.probs + weights.weights[1] * d2.probs
    stacked = np.stack([b1.probs, b2.probs])
    rho = target.probs[data.s, data.a] / stacked[data.labels, data.s, data.a]
    pooled = float(np.sum((d_pi / d0)[data.s] * rho * data.r) / len(data))
    gap = abs(mis - pooled)
    report(6, gap <= 1e-10,
           f"balanced-heuristic combination equals pooled ratio form: gap {gap:.2e} (<= 1e-10)")


def test_criterion_7_mis_unbiasedness():
    start = time.monotonic()
    mdp = build_singlepath()
    b1, b2, target = SINGLEPATH_B1, SINGLEPATH_B2, SINGLEPATH_TARGET
    d1 = stationary_distribution(mdp, b1)
    d2 = stationary_distribution(mdp, b2)
    d_pi = stationary_distribution(mdp, target).probs
    truth = average_reward(mdp, target)
    omegas = [d_pi / d1.probs, d_pi / d2.probs]
    weights = WeightVector(np.array([0.5, 0.5]))
    heur = balanced_heuristic(weights, [d1, d2])
    mdp1 = stationary_start(mdp, b1)
    mdp2 = stationary_start(mdp, b2)
    estimates = []
    for seed in range(200):
        parts = sample_trajectories(mdp1, [SampleGroup(b1, 10, 2 * seed, 0)], 100)
        parts += sample_trajectories(mdp2, [SampleGroup(b2, 10, 2 * seed + 1, 1)], 100)
        data = TransitionDataset.concatenate(parts)
        estimates.append(mis_reward_estimate(data, omegas, [b1, b2], target, heur))
    estimates = np.asarray(estimates)
    se = float(estimates.std(ddof=1) / np.sqrt(len(estimates)))
    gap = abs(float(estimates.mean()) - truth)
    elapsed = time.monotonic() - start
    report(7, gap <= 2 * se and elapsed < 60,
           f"200-seed mean {estimates.mean():.5f} vs oracle {truth:.5f}: "
           f"gap {gap:.2e} <= 2 SE ({2 * se:.2e}), {elapsed:.1f}s (< 60s)")


@pytest.mark.slow
def test_criterion_8_pooling_beats_split_estimators(gridworld_multi_sweep):
    sq = {m: by_method(gridworld_multi_sweep, m, "squared_error")
          for m in ("emp", "emp-single", "mis")}
    ok1, d1, se1 = paired_not_worse(sq["emp"], sq["emp-single"])
    ok2, d2, se2 = paired_not_worse(sq["emp"], sq["mis"])
    report(8, ok1 and ok2,
           f"gridworld, 3 behaviors, 50 seeds: mse emp {sq['emp'].mean():.5f}, "
           f"emp-single {sq['emp-single'].mean():.5f}, mis {sq['mis'].mean():.5f}; "
           f"paired diffs {d1:+.6f} <= {2 * se1:.6f} and {d2:+.6f} <= {2 * se2:.6f}")


def test_criterion_9_state_action_correction_oracle():
    rng = np.random.default_rng(109)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10):
        mdp = random_mdp(rng, 3, 2)
        behavior = random_soft_policy(rng, 3, 2)
        target = random_soft_policy(rng, 3, 2)
        data = population_dataset(mdp, behavior)
        u = learn_sadl(data, target, solver=SolverParams(iters=100000))
        d_pi = stationary_distribution(mdp, target).probs
        d_b = stationary_distribution(mdp, behavior).probs
        truth = d_pi[:, None] / (d_b[:, None] * behavior.probs)
        worst = max(worst, float(np.abs(u.values - truth).max()))
    elapsed = time.monotonic() - start
    report(9, worst <= 1e-2 and elapsed < 10,
           f"population state-action correction, 10 random MDPs: worst L-inf "
           f"{worst:.2e} (<= 1e-2), {elapsed:.1f}s (< 10s)")


def test_criterion_10_run_is_byte_deterministic(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text(
        "environment = singlepath\n"
        "methods = bch,emp,wis\n"
        "num_trajectories = 10\n"
        "horizons = 30\n"
        "seeds = 3\n"
        "behavior.epsilons = 0.3\n"
        "target.episodes = 50\n"
        "solver.iters = 2000\n",
        encoding="utf-8")
    assert main(["run", str(config), "--seed", "7", "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(config), "--seed", "7", "--out", str(tmp_path / "b")]) == 0
    same_records = ((tmp_path / "a" / "records.csv").read_bytes()
                    == (tmp_path / "b" / "records.csv").read_bytes())
    same_summary = ((tmp_path / "a" / "summary.csv").read_bytes()
                    == (tmp_path / "b" / "summary.csv").read_bytes())
    report(10, same_records and same_summary,
           "repeated `run` emits byte-identical records.csv and summary.csv")
