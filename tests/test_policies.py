import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from empbench import (SampleGroup, TabularPolicy, TransitionDataset, WeightVector,
                      build_singlepath, compute_kl_weights, empirical_state_distribution,
                      estimate_policy_mle, exact_mixed_policy, kl_divergence_rows,
                      sample_trajectories, stationary_distribution, uniform_policy)

from helpers import random_policy, reference_policy_mle, stationary_start


class TestEstimatePolicyMle:
    def test_count_frequency(self):
        data = TransitionDataset(s=[2, 2, 2, 2], a=[1, 1, 1, 0], sp=[0, 0, 0, 0],
                                 r=[0.0] * 4)
        policy = estimate_policy_mle(data, num_states=3, num_actions=2)
        assert policy.probs[2, 1] == pytest.approx(0.75)
        assert policy.probs[2, 0] == pytest.approx(0.25)

    def test_unvisited_state_falls_back_to_uniform(self):
        data = TransitionDataset(s=[0], a=[1], sp=[0], r=[0.0])
        policy = estimate_policy_mle(data, num_states=2, num_actions=4)
        np.testing.assert_allclose(policy.probs[1], 0.25)

    def test_weights_are_respected(self):
        data = TransitionDataset(s=[0, 0], a=[0, 1], sp=[0, 0], r=[0.0, 0.0],
                                 weights=[3.0, 1.0])
        policy = estimate_policy_mle(data, num_states=1, num_actions=2)
        np.testing.assert_allclose(policy.probs[0], [0.75, 0.25])

    def test_rows_always_stochastic(self):
        rng = np.random.default_rng(0)
        data = TransitionDataset(s=rng.integers(0, 6, 50), a=rng.integers(0, 3, 50),
                                 sp=rng.integers(0, 6, 50), r=np.zeros(50),
                                 weights=rng.random(50))
        policy = estimate_policy_mle(data, 6, 3)
        np.testing.assert_allclose(policy.probs.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(num_states=st.integers(1, 8), num_actions=st.integers(1, 5),
           n=st.integers(1, 300), unit_weights=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_add_at_reference(self, num_states, num_actions, n, unit_weights, seed):
        # the bincount counts add each entry's weights in record order, as
        # np.add.at did (tests/helpers.py), so the estimates are bitwise equal
        rng = np.random.default_rng(seed)
        data = TransitionDataset(s=rng.integers(0, num_states, n),
                                 a=rng.integers(0, num_actions, n),
                                 sp=rng.integers(0, num_states, n), r=np.zeros(n),
                                 weights=None if unit_weights else rng.random(n) * 3.0)
        got = estimate_policy_mle(data, num_states, num_actions).probs
        assert np.array_equal(got, reference_policy_mle(data, num_states, num_actions).probs)

    @pytest.mark.parametrize("column", ["s", "a"])
    def test_index_past_the_table_raises(self, column):
        data = TransitionDataset(s=[0, 1], a=[1, 0], sp=[0, 0], r=[0.0, 0.0])
        setattr(data, column, np.array([0, 2]))
        with pytest.raises(ValueError, match="2 states and 2 actions"):
            estimate_policy_mle(data, 2, 2)

    def test_converges_to_generating_policy(self):
        mdp = build_singlepath()
        truth = TabularPolicy(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5],
                                        [0.7, 0.3], [0.4, 0.6]]))
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(truth, 100, 0)], 1000))
        estimate = estimate_policy_mle(data, 5, 2)
        visits = np.bincount(data.s, minlength=5)
        well_visited = visits >= 500
        assert well_visited.any()
        err = np.abs(estimate.probs - truth.probs)[well_visited].max()
        assert err <= 0.02


class TestKlDivergence:
    def test_identical_rows_give_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence_rows(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form(self):
        assert kl_divergence_rows([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            oracle = sum(pi * np.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)
            assert kl_divergence_rows(p, q) == pytest.approx(oracle, abs=1e-12)

    def test_zero_denominator_is_floored(self):
        val = kl_divergence_rows([0.5, 0.5], [1.0, 0.0])
        assert np.isfinite(val) and val > 0


class TestKlWeights:
    def test_single_behavior(self):
        rng = np.random.default_rng(2)
        target = random_policy(rng, 4, 2)
        w = compute_kl_weights(target, [random_policy(rng, 4, 2)], states=[0, 1, 2, 3])
        np.testing.assert_array_equal(w.weights, [1.0])

    def test_exact_match_takes_all_mass(self):
        rng = np.random.default_rng(3)
        target = random_policy(rng, 4, 3)
        other = TabularPolicy(np.roll(target.probs, 1, axis=1))
        w = compute_kl_weights(target, [target, other], states=[0, 1, 2, 3])
        np.testing.assert_array_equal(w.weights, [1.0, 0.0])

    def test_matches_per_state_argmin_enumeration(self):
        rng = np.random.default_rng(4)
        target = random_policy(rng, 16, 4)
        behaviors = [random_policy(rng, 16, 4) for _ in range(3)]
        states = list(range(16))
        w = compute_kl_weights(target, behaviors, states)
        counts = np.zeros(3)
        for s in states:
            divs = [kl_divergence_rows(target.probs[s], b.probs[s]) for b in behaviors]
            counts[int(np.argmin(divs))] += 1
        np.testing.assert_allclose(w.weights, counts / len(states), atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        target = random_policy(rng, 8, 3)
        behaviors = [random_policy(rng, 8, 3) for _ in range(3)]
        states = list(range(8))
        w = compute_kl_weights(target, behaviors, states)
        w_rev = compute_kl_weights(target, behaviors[::-1], states)
        np.testing.assert_allclose(w_rev.weights, w.weights[::-1], atol=1e-12)

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(6)
        target = random_policy(rng, 8, 3)
        behaviors = [random_policy(rng, 8, 3) for _ in range(4)]
        w = compute_kl_weights(target, behaviors, states=[1, 3, 5])
        assert w.weights.sum() == pytest.approx(1.0)
        assert np.all(w.weights >= 0)

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(7)
        behavior = random_policy(rng, 4, 2)
        target = random_policy(rng, 4, 2)
        w = compute_kl_weights(target, [behavior, behavior, behavior], states=[0, 1, 2, 3])
        np.testing.assert_array_equal(w.weights, [1.0, 0.0, 0.0])


class TestExactMixedPolicy:
    def test_single_behavior_is_identity(self):
        rng = np.random.default_rng(8)
        mdp = build_singlepath()
        behavior = random_policy(rng, 5, 2)
        d = stationary_distribution(mdp, behavior)
        mixed = exact_mixed_policy([behavior], WeightVector([1.0]), [d])
        np.testing.assert_allclose(mixed.probs, behavior.probs, atol=1e-12)

    def test_identical_behaviors_unchanged(self):
        rng = np.random.default_rng(9)
        mdp = build_singlepath()
        behavior = random_policy(rng, 5, 2)
        d = stationary_distribution(mdp, behavior)
        mixed = exact_mixed_policy([behavior, behavior], WeightVector([0.3, 0.7]), [d, d])
        np.testing.assert_allclose(mixed.probs, behavior.probs, atol=1e-12)

    def test_zero_mass_state_gets_uniform_row(self):
        behavior = uniform_policy(2, 2)
        d = type(stationary_distribution(build_singlepath(), uniform_policy(5, 2)))(
            np.array([1.0, 0.0]))
        mixed = exact_mixed_policy([behavior], WeightVector([1.0]), [d])
        np.testing.assert_allclose(mixed.probs[1], [0.5, 0.5])

    def test_mle_on_pooled_data_converges_to_mixture(self):
        # the mixture identity behind pooling: count-frequency estimation on
        # data pooled with proportions w_j converges to the
        # stationary-weighted average of the behavior policies
        mdp = build_singlepath()
        b1 = TabularPolicy(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5],
                                     [0.7, 0.3], [0.4, 0.6]]))
        b2 = TabularPolicy(np.array([[0.3, 0.7], [0.8, 0.2], [0.6, 0.4],
                                     [0.1, 0.9], [0.9, 0.1]]))
        d1 = stationary_distribution(mdp, b1)
        d2 = stationary_distribution(mdp, b2)
        horizon = 1000
        parts = sample_trajectories(stationary_start(mdp, b1),
                                    [SampleGroup(b1, 400, 0)], horizon)
        parts += sample_trajectories(stationary_start(mdp, b2), [SampleGroup(b2, 600, 1)], horizon)
        data = TransitionDataset.concatenate(parts)
        assert len(data) == 10**6
        mixed = exact_mixed_policy([b1, b2], WeightVector([0.4, 0.6]), [d1, d2])
        mle = estimate_policy_mle(data, 5, 2)
        assert np.abs(mle.probs - mixed.probs).max() <= 0.02


class TestEmpiricalStateDistribution:
    def test_single_state(self):
        data = TransitionDataset(s=[3, 3, 3], a=[0] * 3, sp=[0] * 3, r=[0.0] * 3)
        d = empirical_state_distribution(data, 5)
        np.testing.assert_array_equal(d.probs, [0, 0, 0, 1.0, 0])

    def test_two_states_visited_equally(self):
        data = TransitionDataset(s=[1, 4], a=[0, 0], sp=[0, 0], r=[0.0, 0.0])
        d = empirical_state_distribution(data, 6)
        assert d.probs[1] == d.probs[4] == pytest.approx(0.5)

    def test_weighted_frequencies(self):
        data = TransitionDataset(s=[0, 1], a=[0, 0], sp=[0, 0], r=[0.0, 0.0],
                                 weights=[1.0, 3.0])
        d = empirical_state_distribution(data, 2)
        np.testing.assert_allclose(d.probs, [0.25, 0.75])

    def test_converges_to_stationary(self):
        mdp = build_singlepath()
        policy = TabularPolicy(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5],
                                         [0.7, 0.3], [0.4, 0.6]]))
        data = TransitionDataset.concatenate(
            sample_trajectories(stationary_start(mdp, policy), [SampleGroup(policy, 100, 3)], 1000))
        d_hat = empirical_state_distribution(data, 5)
        d = stationary_distribution(mdp, policy)
        assert 0.5 * np.abs(d_hat.probs - d.probs).sum() <= 0.02
