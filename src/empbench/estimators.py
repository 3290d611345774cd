"""Average-reward estimators built on learned corrections.

Given a state correction omega (or a state-action correction u) and logged
transitions, these functions produce point estimates of the target policy's
infinite-horizon average reward, plus the classical step-wise weighted
importance sampling baseline and the multiple-importance-sampling
combination of per-behavior estimates.
"""

import numpy as np
from dataclasses import dataclass

from .corrections import CorrectionVector, StateActionCorrection, importance_ratios
from .mdp import TabularPolicy, TransitionDataset, check_probabilities
from .policies import WeightVector

# Unused here: the traced benchmark run (benchmark/child.py --trace 1) wraps
# these names by lookup.
from .corrections import learn_emp  # noqa: E402,F401
from .policies import compute_kl_weights, estimate_policy_mle  # noqa: E402,F401


@dataclass
class HeuristicTable:
    """Per-state combination weights h[j, s] over behavior labels, forming a
    partition of unity: sum_j h[j, s] = 1 for every state."""

    h: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.float64)
        if self.h.ndim != 2:
            raise ValueError("heuristic table must be (m, S)")
        check_probabilities(self.h, "every heuristic column", axis=0, atol=1e-9)


def _correction_values(omega) -> np.ndarray:
    # learned corrections carry a normalization; exact-ratio arrays are
    # accepted as-is so oracles can be plugged in directly
    if isinstance(omega, CorrectionVector):
        return omega.values
    return np.asarray(omega, dtype=np.float64)


def ratio_reward_estimate(data: TransitionDataset, omega: CorrectionVector,
                          target: TabularPolicy, denom_policy) -> float:
    """Weighted average of omega(s) * pi(a|s)/denom(a|s) * r over the data.

    ``denom_policy`` is the same policy the correction was learned against:
    the exact behavior, the maximum-likelihood mixture estimate, or a list
    of per-label policies for pooled policy-aware data.  ``omega`` may be a
    learned correction or a plain per-state ratio array (oracle use).
    """
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    rho = importance_ratios(data, target, denom_policy)
    terms = data.weights * _correction_values(omega)[data.s] * rho * data.r
    return float(terms.sum() / data.weights.sum())


def sadl_reward_estimate(data: TransitionDataset, u: StateActionCorrection,
                         target: TabularPolicy) -> float:
    """Weighted average of u(s, a) * pi(a|s) * r; no behavior policy needed."""
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    terms = data.weights * u.values[data.s, data.a] * target.probs[data.s, data.a] * data.r
    return float(terms.sum() / data.weights.sum())


def balanced_heuristic(weights: WeightVector, stationary_dists) -> HeuristicTable:
    """The variance-minimizing partition of unity
    h_j(s) = w_j d_j(s) / sum_k w_k d_k(s); states with zero total mass get
    uniform rows."""
    if len(weights) != len(stationary_dists):
        raise ValueError("weights and stationary_dists must have equal length")
    mass = np.stack([w * d.probs for w, d in zip(weights.weights, stationary_dists)])
    denom = mass.sum(axis=0)
    h = np.full_like(mass, 1.0 / len(weights.weights))
    ok = denom > 0
    h[:, ok] = mass[:, ok] / denom[ok]
    return HeuristicTable(h)


def mis_reward_estimate(data: TransitionDataset, per_policy_omegas,
                        per_policy_behaviors, target: TabularPolicy,
                        heuristics: HeuristicTable) -> float:
    """Multiple importance sampling: the sum over labels j with records of
    :func:`ratio_reward_estimate` on their records with h_j * omega_j and pi_j:

    sum_j (1/W_j) sum_{i: label=j} w_i h_j(s_i) omega_j(s_i)
                  pi(a_i|s_i)/pi_j(a_i|s_i) r_i

    Each per-policy correction may be a learned correction or a plain
    per-state ratio array (oracle use).
    """
    labels = data.require_labels(len(per_policy_behaviors))
    total = 0.0
    for j, (omega, behavior) in enumerate(zip(per_policy_omegas, per_policy_behaviors,
                                              strict=True)):
        sub = data.subset(labels == j)
        if len(sub):
            total += ratio_reward_estimate(sub, heuristics.h[j] * _correction_values(omega),
                                           target, behavior)
    return total


def stepwise_wis_estimate(data: TransitionDataset, target: TabularPolicy, behaviors) -> float:
    """Step-wise weighted (self-normalized) importance sampling.

    Each record's weight is its ``data.weights`` entry times the product of
    :func:`importance_ratios` (each label picks its behavior) from the first
    record of its trajectory up to it; the estimate is the weighted average
    reward.  Each trajectory's records must be contiguous, in step order and
    chained (sp[i] == s[i+1]), as :func:`sample_trajectories` lays them out
    and :meth:`TransitionDataset.concatenate` keeps them.  Products are
    accumulated in log space so long horizons cannot overflow.
    """
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    if data.trajectory_ids is None:
        raise ValueError("step-wise WIS requires per-record trajectory ids")
    new_trajectory = np.diff(data.trajectory_ids) != 0
    starts = np.flatnonzero(new_trajectory) + 1
    if len(starts) + 1 != len(np.unique(data.trajectory_ids)):
        raise ValueError("each trajectory's records must be contiguous")
    if np.any((data.sp[:-1] != data.s[1:]) & ~new_trajectory):
        raise ValueError("each trajectory's records must chain: sp[i] == s[i+1]")
    with np.errstate(divide="ignore"):  # a zero ratio zeroes the rest of its trajectory
        log_rho = np.log(importance_ratios(data, target, behaviors))
    log_weights = np.concatenate([np.cumsum(part) for part in np.split(log_rho, starts)])
    shift = log_weights.max()
    if not np.isfinite(shift):
        return float("nan")
    w = data.weights * np.exp(log_weights - shift)
    return float((w * data.r).sum() / w.sum())
