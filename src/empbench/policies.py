"""Behavior policy estimation and mixing.

Pooled logged data from several behavior policies looks, in distribution,
like data from a single stationary-distribution-weighted mixture of them.
This module estimates that mixture by maximum likelihood (count frequency)
and computes KL-divergence based mixture weights.
"""

import numpy as np
from dataclasses import dataclass

from .mdp import StateDistribution, TabularPolicy, TransitionDataset, check_probabilities

KL_FLOOR = 1e-12


@dataclass
class WeightVector:
    """Nonnegative mixture weights over behavior-policy labels, summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise ValueError("weights must be 1-D")
        check_probabilities(self.weights, "mixture weights")

    def __len__(self) -> int:
        return len(self.weights)


def state_action_counts(data: TransitionDataset, num_states: int,
                        num_actions: int) -> np.ndarray:
    """(S, A) table of the records' summed weights per (s, a), each entry's
    weights added in record order."""
    if len(data) and (data.s.max() >= num_states or data.a.max() >= num_actions):
        raise ValueError(f"records must index {num_states} states and {num_actions} actions")
    counts = np.bincount(data.s * num_actions + data.a, weights=data.weights,
                         minlength=num_states * num_actions)
    return counts.reshape(num_states, num_actions)


def estimate_policy_mle(data: TransitionDataset, num_states: int,
                        num_actions: int) -> TabularPolicy:
    """Count-frequency (maximum likelihood) estimate of the data-generating
    policy, respecting sample weights.

    Rows of states never visited fall back to uniform.
    """
    counts = state_action_counts(data, num_states, num_actions)
    row_sums = counts.sum(axis=1)
    probs = np.full((num_states, num_actions), 1.0 / num_actions)
    visited = row_sums > 0
    probs[visited] = counts[visited] / row_sums[visited, None]
    return TabularPolicy(probs)


def kl_divergence_rows(p, q):
    """KL divergence sum_a p(a) ln(p(a)/q(a)), 0 ln 0 = 0, over the last
    axis: a float for vectors, one value per row for (n, A) tables.  p and q
    are floored at ``KL_FLOOR`` = 1e-12 inside the log, so zeros in q give no
    infinity, and a term with 0 < p(a) < 1e-12 reads p(a) ln(1e-12 / q(a)).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.maximum(np.asarray(q, dtype=np.float64), KL_FLOOR)
    divs = np.where(p > 0, p * np.log(np.maximum(p, KL_FLOOR) / q), 0.0).sum(axis=-1)
    return divs if divs.ndim else float(divs)


def compute_kl_weights(target: TabularPolicy, behaviors, states) -> WeightVector:
    """Mixture weights from per-state KL proximity to the target.

    Weight j is the fraction of the given states at which behavior j is the
    KL-closest to the target, argmin ties broken by lowest behavior index.
    Callers typically pass the distinct states visited in a data buffer.
    """
    states = np.asarray(states, dtype=np.int64)
    if len(behaviors) == 0 or len(states) == 0:
        raise ValueError("behaviors and states must be nonempty")
    t = target.probs[states]  # (n, A)
    divs = np.stack([kl_divergence_rows(t, pol.probs[states]) for pol in behaviors])
    winners = np.argmin(divs, axis=0)
    counts = np.bincount(winners, minlength=len(behaviors))
    return WeightVector(counts / len(states))


def empirical_state_distribution(data: TransitionDataset, num_states: int) -> StateDistribution:
    """Weight-normalized visit frequencies of the dataset's state column."""
    data.total_weight()
    freq = np.bincount(data.s, weights=data.weights, minlength=num_states)
    return StateDistribution(freq / freq.sum())
