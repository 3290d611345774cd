"""Stationary distribution correction learning from a single behavior policy.

Compares the policy-aware learner (exact behavior policy in the importance
ratio) against the estimated-policy variant on gridworld data, measuring
both the total-variation distance of the implied state distribution from
the exact one and the quality of the resulting average-reward estimate.
The estimated-policy variant needs no knowledge of the behavior policy and
typically tracks the target distribution at least as well.

Run: python3 demos/02_single_behavior_corrections.py
"""

import numpy as np

from empbench import (SampleGroup, SolverParams, TransitionDataset, average_reward,
                      build_gridworld, greedy_policy, learn_bch, learn_emp,
                      ratio_reward_estimate, sample_trajectories, soften_policy,
                      stationary_distribution, stepwise_wis_estimate,
                      train_q_learning_policy, tv_distance)
from empbench.policies import estimate_policy_mle

SEEDS = 10
solver = SolverParams(iters=30000)

mdp = build_gridworld()
target = train_q_learning_policy(mdp, episodes=2000, epsilon=0.1, alpha=0.2,
                                 gamma=0.95, seed=0)
behavior = soften_policy(greedy_policy(target), 0.3)
truth = average_reward(mdp, target)
d_target = stationary_distribution(mdp, target)
print(f"true average reward of the target policy: {truth:.4f}")

rows = []
for seed in range(SEEDS):
    data = TransitionDataset.concatenate(
        sample_trajectories(mdp, [SampleGroup(behavior, 100, seed)], 200))

    omega_aware = learn_bch(data, target, behavior, solver=solver)
    est_aware = ratio_reward_estimate(data, omega_aware, target, behavior)

    omega_estimated = learn_emp(data, target, solver=solver)
    pi_hat = estimate_policy_mle(data, mdp.num_states, mdp.num_actions)
    est_estimated = ratio_reward_estimate(data, omega_estimated, target, pi_hat)

    est_wis = stepwise_wis_estimate(data, target, [behavior])
    rows.append((tv_distance(omega_aware.implied_distribution(), d_target),
                 tv_distance(omega_estimated.implied_distribution(), d_target),
                 est_aware, est_estimated, est_wis))

rows = np.array(rows)
print(f"\naveraged over {SEEDS} seeds (100 trajectories x 200 steps each):")
print(f"  TV to target distribution | exact policy: {rows[:, 0].mean():.4f}"
      f"   estimated policy: {rows[:, 1].mean():.4f}")
for name, col in (("exact policy ", 2), ("estimated    ", 3), ("step-wise WIS", 4)):
    err = (rows[:, col] - truth) ** 2
    print(f"  {name} estimate: {rows[:, col].mean():+.4f}   mse: {err.mean():.5f}")
