"""empbench: infinite-horizon off-policy policy evaluation on tabular MDPs.

Learns stationary distribution corrections (state ratios omega and
state-action ratios u) from logged transitions generated by one or many,
possibly unknown, behavior policies, and turns them into average-reward
estimates.  Includes exact oracles, three discrete benchmark environments,
and a desk-scale experiment harness with a CLI.
"""

from .corrections import (CorrectionVector, DegenerateReference, KernelSpec,
                          QuadraticForm, SolverParams, StateActionCorrection,
                          assemble_state_action_quadratic, assemble_state_quadratic,
                          importance_ratios, learn_bch, learn_emp, learn_sadl,
                          solve_normalized_quadratic)
from .envs import ENVIRONMENTS, build_environment, build_gridworld, build_singlepath, \
    build_taxi
from .estimators import (HeuristicTable, balanced_heuristic, mis_reward_estimate,
                         ratio_reward_estimate, sadl_reward_estimate,
                         stepwise_wis_estimate)
from .harness import (METHOD_NAMES, STATE_METHODS, ExperimentConfig, InvalidConfig,
                      PolicySpec, ResultRecord, StateMethod, SummaryRow, UnknownMethod,
                      emit_csv, load_config, parse_config, read_records_csv, run_experiment,
                      run_method, summarize_mse, summarize_tv, tv_distance)
from .mdp import (MissingLabel, NonErgodicChain, SampleGroup, StateDistribution, TabularMDP,
                  TabularPolicy, TransitionDataset, average_reward,
                  greedy_policy, population_dataset, sample_trajectories,
                  soften_policy, stationary_distribution, train_q_learning_policy,
                  uniform_policy)
from .policies import (WeightVector, compute_kl_weights, empirical_state_distribution,
                       estimate_policy_mle, kl_divergence_rows)

__version__ = "0.1.0"

__all__ = [
    "CorrectionVector", "DegenerateReference", "ENVIRONMENTS", "ExperimentConfig",
    "HeuristicTable", "InvalidConfig", "KernelSpec", "METHOD_NAMES", "MissingLabel",
    "NonErgodicChain", "PolicySpec", "QuadraticForm", "ResultRecord", "STATE_METHODS",
    "SampleGroup", "SolverParams", "StateActionCorrection", "StateDistribution", "StateMethod",
    "SummaryRow", "TabularMDP", "TabularPolicy", "TransitionDataset",
    "UnknownMethod", "WeightVector",
    "assemble_state_action_quadratic", "assemble_state_quadratic", "average_reward",
    "balanced_heuristic", "build_environment", "build_gridworld", "build_singlepath",
    "build_taxi", "compute_kl_weights", "emit_csv", "empirical_state_distribution",
    "estimate_policy_mle", "greedy_policy", "importance_ratios",
    "kl_divergence_rows", "learn_bch", "learn_emp", "learn_sadl", "load_config",
    "mis_reward_estimate", "parse_config", "population_dataset", "ratio_reward_estimate",
    "read_records_csv", "run_experiment", "run_method", "sadl_reward_estimate",
    "sample_trajectories",
    "soften_policy", "solve_normalized_quadratic", "stationary_distribution",
    "stepwise_wis_estimate", "summarize_mse", "summarize_tv", "train_q_learning_policy",
    "tv_distance", "uniform_policy",
]
