"""Off-policy evaluation from data pooled across several behavior policies.

Three behavior policies of increasing stochasticity generate the logged
transitions.  The pooled estimated-mixture learner treats them as one
unknown mixture; the per-group variant learns one correction per behavior
and averages the estimates; multiple importance sampling combines per-group
estimates through the variance-minimizing balanced heuristic; the KL-based
variant replaces sample proportions with KL-proximity weights.

Run: python3 demos/03_multiple_behavior_policies.py
"""

import numpy as np

from empbench import (ExperimentConfig, PolicySpec, SolverParams, build_gridworld,
                      average_reward)
from empbench.harness import generate_cell_data, make_policies, run_method
from empbench import KernelSpec

SEEDS = 8
METHODS = ("emp", "emp-single", "mis", "kl-emp", "sadl")

mdp = build_gridworld()
cfg = ExperimentConfig(environment="gridworld", target=PolicySpec(episodes=2000),
                       behavior_epsilons=[0.2, 0.4, 0.6])
target, behaviors = make_policies(mdp, cfg, master_seed=0)
truth = average_reward(mdp, target)
print(f"true average reward: {truth:.4f}")
print(f"behaviors: {len(behaviors)} softenings of the trained greedy policy\n")

estimates = {m: [] for m in METHODS}
for seed in range(SEEDS):
    trajectories, data = generate_cell_data(mdp, behaviors, num_traj=200,
                                            horizon=200, data_seed=seed)
    for method in METHODS:
        est, _ = run_method(method, target, behaviors, trajectories, data,
                            KernelSpec.state_delta(), SolverParams(iters=200000))
        estimates[method].append(est)

print(f"{SEEDS} seeds, 200 trajectories x 200 steps split across the behaviors:")
for method in METHODS:
    vals = np.array(estimates[method])
    mse = ((vals - truth) ** 2).mean()
    print(f"  {method:11s} mean estimate {vals.mean():+.4f}   mse {mse:.5f}")
