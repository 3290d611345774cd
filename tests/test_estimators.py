from dataclasses import replace

import numpy as np
import pytest

from empbench import (CorrectionVector, HeuristicTable, KernelSpec, MissingLabel,
                      SampleGroup, SolverParams, StateDistribution, TabularPolicy,
                      TransitionDataset, WeightVector, average_reward, balanced_heuristic,
                      build_singlepath, learn_emp, mis_reward_estimate, ratio_reward_estimate,
                      run_method,
                      sadl_reward_estimate, sample_trajectories, stationary_distribution,
                      stepwise_wis_estimate)
from empbench.corrections import StateActionCorrection
from empbench.policies import empirical_state_distribution, estimate_policy_mle

from helpers import stationary_start


@pytest.fixture(scope="module")
def singlepath_setup():
    mdp = build_singlepath()
    b1 = TabularPolicy(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5],
                                 [0.7, 0.3], [0.4, 0.6]]))
    b2 = TabularPolicy(np.array([[0.3, 0.7], [0.8, 0.2], [0.6, 0.4],
                                 [0.1, 0.9], [0.9, 0.1]]))
    target = TabularPolicy(np.array([[0.8, 0.2], [0.4, 0.6], [0.7, 0.3],
                                     [0.5, 0.5], [0.6, 0.4]]))
    return mdp, b1, b2, target


def unit_correction(data, num_states):
    return CorrectionVector(np.ones(num_states),
                            empirical_state_distribution(data, num_states))


def oracle_correction(mdp, target, behavior, data, num_states):
    ratio = (stationary_distribution(mdp, target).probs
             / stationary_distribution(mdp, behavior).probs)
    reference = empirical_state_distribution(data, num_states)
    ratio = ratio / (reference.probs @ ratio)
    return CorrectionVector(ratio, reference)


class TestRatioRewardEstimate:
    def test_unit_correction_on_policy_is_mean_reward(self, singlepath_setup):
        mdp, behavior, _, _ = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 10, 0)], 50))
        est = ratio_reward_estimate(data, unit_correction(data, 5), behavior, behavior)
        assert est == pytest.approx(data.r.mean(), abs=1e-12)

    def test_zero_rewards_give_zero(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 5, 1)], 20))
        data = TransitionDataset(data.s, data.a, data.sp, np.zeros(len(data)),
                                 data.labels, data.weights)
        est = ratio_reward_estimate(data, unit_correction(data, 5), target, behavior)
        assert est == 0.0

    def test_oracle_correction_recovers_average_reward(self, singlepath_setup):
        # with the exact ratio and exact behavior policy, the estimator's
        # per-trajectory means are unbiased for the target's average reward
        mdp, behavior, _, target = singlepath_setup
        num_traj, horizon = 500, 200
        data = TransitionDataset.concatenate(
            sample_trajectories(stationary_start(mdp, behavior),
                                [SampleGroup(behavior, num_traj, 2)], horizon))
        omega = oracle_correction(mdp, target, behavior, data, 5)
        # undo the empirical renormalization: use the exact ratio as-is
        ratio = (stationary_distribution(mdp, target).probs
                 / stationary_distribution(mdp, behavior).probs)
        rho = target.probs[data.s, data.a] / behavior.probs[data.s, data.a]
        terms = (ratio[data.s] * rho * data.r).reshape(num_traj, horizon)
        per_traj = terms.mean(axis=1)
        se = per_traj.std(ddof=1) / np.sqrt(num_traj)
        truth = average_reward(mdp, target)
        assert abs(per_traj.mean() - truth) <= 3 * se
        # the library estimator agrees with the hand-rolled computation up to
        # the correction's normalization
        est = ratio_reward_estimate(data, omega, target, behavior)
        norm = omega.values[0] / ratio[0]
        assert est == pytest.approx(per_traj.mean() * norm, rel=1e-10)

    def test_invariant_to_uniform_weight_rescaling(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 10, 3)], 30))
        omega = unit_correction(data, 5)
        base = ratio_reward_estimate(data, omega, target, behavior)
        scaled = replace(data, weights=data.weights * 3.7)
        assert ratio_reward_estimate(scaled, omega, target, behavior) == \
            pytest.approx(base, rel=1e-12)

    def test_per_label_denominators(self, singlepath_setup):
        mdp, b1, b2, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(b1, 5, 4, 0), SampleGroup(b2, 5, 5, 1)], 20))
        omega = unit_correction(data, 5)
        est = ratio_reward_estimate(data, omega, target, [b1, b2])
        stacked = np.stack([b1.probs, b2.probs])
        rho = target.probs[data.s, data.a] / stacked[data.labels, data.s, data.a]
        expected = float(np.mean(rho * data.r))
        assert est == pytest.approx(expected, rel=1e-12)


class TestSadlRewardEstimate:
    def test_inverse_behavior_collapses_to_mean_reward(self, singlepath_setup):
        mdp, behavior, _, _ = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 10, 6)], 50))
        values = 1.0 / behavior.probs
        freq = np.zeros((5, 2))
        np.add.at(freq, (data.s, data.a), data.weights)
        freq /= freq.sum()
        reference = freq * behavior.probs
        scale = float(np.sum(reference * values))
        u = StateActionCorrection(values / scale, reference)
        est = sadl_reward_estimate(data, u, behavior)
        assert est == pytest.approx(data.r.mean() / scale, rel=1e-12)
        assert scale == pytest.approx(1.0, abs=1e-12)

    def test_oracle_correction_within_three_standard_errors(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        num_traj, horizon = 500, 200
        data = TransitionDataset.concatenate(
            sample_trajectories(stationary_start(mdp, behavior),
                                [SampleGroup(behavior, num_traj, 7)], horizon))
        d_pi = stationary_distribution(mdp, target).probs
        d_b = stationary_distribution(mdp, behavior).probs
        u_true = d_pi[:, None] / (d_b[:, None] * behavior.probs)
        terms = (u_true[data.s, data.a] * target.probs[data.s, data.a]
                 * data.r).reshape(num_traj, horizon)
        per_traj = terms.mean(axis=1)
        se = per_traj.std(ddof=1) / np.sqrt(num_traj)
        assert abs(per_traj.mean() - average_reward(mdp, target)) <= 3 * se

    def test_zero_rewards_give_zero(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset(s=[0, 1], a=[0, 1], sp=[1, 1], r=[0.0, 0.0])
        freq = np.zeros((5, 2))
        np.add.at(freq, (data.s, data.a), 1.0)
        freq /= freq.sum()
        reference = freq * target.probs
        values = np.zeros((5, 2))
        values[0, 0] = 1.0 / reference[0, 0] / 2
        values[1, 1] = 1.0 / reference[1, 1] / 2
        u = StateActionCorrection(values, reference)
        assert sadl_reward_estimate(data, u, target) == 0.0


class TestBalancedHeuristic:
    def test_single_policy_is_all_ones(self):
        d = StateDistribution(np.array([0.25, 0.75]))
        h = balanced_heuristic(WeightVector([1.0]), [d])
        np.testing.assert_array_equal(h.h, [[1.0, 1.0]])

    def test_identical_distributions_equal_weights(self):
        d = StateDistribution(np.array([0.4, 0.6]))
        h = balanced_heuristic(WeightVector([1 / 3] * 3), [d, d, d])
        np.testing.assert_allclose(h.h, 1 / 3)

    def test_matches_direct_formula(self, singlepath_setup):
        mdp, b1, b2, _ = singlepath_setup
        d1 = stationary_distribution(mdp, b1)
        d2 = stationary_distribution(mdp, b2)
        w = WeightVector([0.3, 0.7])
        h = balanced_heuristic(w, [d1, d2])
        for s in range(5):
            denom = 0.3 * d1.probs[s] + 0.7 * d2.probs[s]
            assert h.h[0, s] == pytest.approx(0.3 * d1.probs[s] / denom, rel=1e-12)
            assert h.h[1, s] == pytest.approx(0.7 * d2.probs[s] / denom, rel=1e-12)
        np.testing.assert_allclose(h.h.sum(axis=0), 1.0, atol=1e-9)

    def test_partition_of_unity_is_validated(self):
        with pytest.raises(ValueError):
            HeuristicTable(np.array([[0.5, 0.5], [0.4, 0.4]]))


class TestMisRewardEstimate:
    def test_single_policy_collapses_to_ratio_estimate(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 10, 8)], 50))
        omega = unit_correction(data, 5)
        h = HeuristicTable(np.ones((1, 5)))
        mis = mis_reward_estimate(data, [omega], [behavior], target, h)
        ratio = ratio_reward_estimate(data, omega, target, behavior)
        assert mis == pytest.approx(ratio, rel=1e-12)

    def test_all_mass_on_first_policy_uses_only_its_terms(self, singlepath_setup):
        mdp, b1, b2, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(b1, 4, 9, 0), SampleGroup(b2, 4, 10, 1)], 25))
        omega = unit_correction(data, 5)
        h = HeuristicTable(np.vstack([np.ones(5), np.zeros(5)]))
        est = mis_reward_estimate(data, [omega, omega], [b1, b2], target, h)
        sub = data.subset(data.labels == 0)
        rho = target.probs[sub.s, sub.a] / b1.probs[sub.s, sub.a]
        expected = float(np.mean(omega.values[sub.s] * rho * sub.r))
        assert est == pytest.approx(expected, rel=1e-12)

    def test_unlabeled_data_raises(self, singlepath_setup):
        _, b1, _, target = singlepath_setup
        data = TransitionDataset(s=[0], a=[0], sp=[1], r=[1.0])
        omega = unit_correction(data, 5)
        with pytest.raises(MissingLabel):
            mis_reward_estimate(data, [omega], [b1], target,
                                HeuristicTable(np.ones((1, 5))))

    @pytest.mark.parametrize("label", [-1, 1])
    def test_label_without_a_correction_raises(self, singlepath_setup, label):
        # one correction and one behavior: a reward-100 record labelled
        # outside them must not be dropped from the estimate unnoticed
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 3, 19)], 20))
        data = TransitionDataset(np.append(data.s, 0), np.append(data.a, 0),
                                 np.append(data.sp, 1), np.append(data.r, 100.0),
                                 np.append(data.labels, label))
        with pytest.raises(ValueError, match="labels must index"):
            mis_reward_estimate(data, [unit_correction(data, 5)], [behavior], target,
                                HeuristicTable(np.ones((1, 5))))

    def test_unequal_correction_and_behavior_lists_raise(self, singlepath_setup):
        mdp, b1, b2, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(b1, 3, 20)], 20))
        h = HeuristicTable(np.vstack([np.ones(5), np.zeros(5)]))
        with pytest.raises(ValueError):
            mis_reward_estimate(data, [unit_correction(data, 5)], [b1, b2], target, h)

    def test_balanced_heuristic_equals_pooled_ratio_form(self, singlepath_setup):
        # with oracle ratios, the per-policy estimates combined through the
        # balanced heuristic reduce algebraically to the pooled form
        # sum_i omega(s_i) pi/pi_{j_i} r_i / N
        mdp, b1, b2, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(b1, 6, 11, 0), SampleGroup(b2, 6, 12, 1)], 40))
        d1 = stationary_distribution(mdp, b1)
        d2 = stationary_distribution(mdp, b2)
        d_pi = stationary_distribution(mdp, target).probs
        counts = np.bincount(data.labels)
        w = WeightVector(counts / counts.sum())
        h = balanced_heuristic(w, [d1, d2])
        reference = empirical_state_distribution(data, 5)
        omegas = []
        for d_j in (d1, d2):
            ratio = d_pi / d_j.probs
            omegas.append(CorrectionVector(ratio / (reference.probs @ ratio), reference))
        mis = mis_reward_estimate(data, omegas, [b1, b2], target, h)
        # pooled form with the same normalization constants folded per label
        d0 = w.weights[0] * d1.probs + w.weights[1] * d2.probs
        pooled_ratio = d_pi / d0
        norms = np.array([reference.probs @ (d_pi / d1.probs),
                          reference.probs @ (d_pi / d2.probs)])
        stacked = np.stack([b1.probs, b2.probs])
        rho = target.probs[data.s, data.a] / stacked[data.labels, data.s, data.a]
        pooled = float(np.sum(pooled_ratio[data.s] / norms[data.labels] * rho * data.r)
                       / len(data))
        assert mis == pytest.approx(pooled, abs=1e-10)


class TestStepwiseWis:
    def test_on_policy_is_plain_mean(self, singlepath_setup):
        mdp, behavior, _, _ = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 8, 13)], 30))
        est = stepwise_wis_estimate(data, behavior, [behavior])
        assert est == pytest.approx(data.r.mean(), rel=1e-12)

    def test_on_policy_is_the_weighted_mean_reward(self, singlepath_setup):
        mdp, behavior, _, _ = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 8, 13)], 30))
        weights = np.random.default_rng(0).uniform(0.1, 2.0, len(data))
        est = stepwise_wis_estimate(replace(data, weights=weights), behavior, [behavior])
        assert est == pytest.approx(np.average(data.r, weights=weights), rel=1e-12)

    def test_single_trajectory_is_weighted_mean(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        (data,) = sample_trajectories(mdp, [SampleGroup(behavior, 1, 14)], 20)
        est = stepwise_wis_estimate(data, target, [behavior])
        rho = target.probs[data.s, data.a] / behavior.probs[data.s, data.a]
        w = np.cumprod(rho)
        assert est == pytest.approx(float((w * data.r).sum() / w.sum()), rel=1e-10)

    def test_value_within_reward_range(self, singlepath_setup):
        mdp, b1, b2, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(b1, 5, 15, 0), SampleGroup(b2, 5, 16, 1)], 60))
        est = stepwise_wis_estimate(data, target, [b1, b2])
        assert data.r.min() <= est <= data.r.max()

    def test_long_horizon_does_not_overflow(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        parts = sample_trajectories(mdp, [SampleGroup(behavior, 3, 17)], 5000)
        est = stepwise_wis_estimate(TransitionDataset.concatenate(parts), target,
                                    [behavior])
        assert np.isfinite(est)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_the_behaviors_raises(self, singlepath_setup, label):
        # label -1 used to pick the last behavior silently
        mdp, b1, b2, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(b1, 2, 18, label)], 20))
        with pytest.raises(ValueError, match="labels must index"):
            stepwise_wis_estimate(data, target, [b1, b2])

    def test_steps_removed_inside_a_trajectory_raise(self, singlepath_setup):
        # the ids of the kept records stay contiguous, but a trajectory whose
        # state-2 steps are gone would chain ratios across the gaps
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 2, 19)], 20))
        kept = data.subset(data.s != 2)
        assert 0 < len(kept) < len(data)
        with pytest.raises(ValueError, match=r"must chain: sp\[i\] == s\[i\+1\]"):
            stepwise_wis_estimate(kept, target, [behavior])

    def test_missing_trajectory_ids_raise(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 2, 19)], 20))
        unindexed = TransitionDataset(data.s, data.a, data.sp, data.r, data.labels)
        with pytest.raises(ValueError, match="trajectory ids"):
            stepwise_wis_estimate(unindexed, target, [behavior])

    def test_split_trajectory_raises(self, singlepath_setup):
        # trajectory 0's records on both sides of trajectory 1's
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 2, 19)], 20))
        order = np.r_[0:10, 20:40, 10:20]
        with pytest.raises(ValueError, match="contiguous"):
            stepwise_wis_estimate(data.subset(order), target, [behavior])


def run_state_method(method, target, behaviors, data):
    estimate, _ = run_method(method, target, behaviors, data,
                             KernelSpec.state_delta(), SolverParams())
    return estimate


class TestEmpSingle:
    def test_single_label_matches_pooled_pipeline(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 20, 18)], 60))
        single = run_state_method("emp-single", target, [behavior], data)
        omega = learn_emp(data, target)
        pi_hat = estimate_policy_mle(data, 5, 2)
        pooled = ratio_reward_estimate(data, omega, target, pi_hat)
        assert single == pytest.approx(pooled, rel=1e-12)

    def test_unlabeled_data_raises(self, singlepath_setup):
        _, b1, b2, target = singlepath_setup
        data = TransitionDataset(s=[0], a=[0], sp=[1], r=[1.0])
        with pytest.raises(MissingLabel):
            run_state_method("emp-single", target, [b1, b2], data)


class TestKlEmp:
    def test_single_label_matches_plain_emp(self, singlepath_setup):
        mdp, behavior, _, target = singlepath_setup
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 20, 19)], 60))
        kl_est = run_state_method("kl-emp", target, [behavior], data)
        omega = learn_emp(data, target)
        pi_hat = estimate_policy_mle(data, 5, 2)
        plain = ratio_reward_estimate(data, omega, target, pi_hat)
        assert kl_est == pytest.approx(plain, rel=1e-12)

    def test_identical_behaviors_tie_break_to_first_label(self, singlepath_setup):
        # documented tie-break: with identical behaviors every state's KL
        # argmin is label 0, so all proportion mass shifts there
        from empbench import compute_kl_weights
        mdp, behavior, _, target = singlepath_setup
        estimated = [behavior, behavior]
        w = compute_kl_weights(target, estimated, states=[0, 1, 2, 3, 4])
        np.testing.assert_array_equal(w.weights, [1.0, 0.0])
        data = TransitionDataset.concatenate(sample_trajectories(
            mdp, [SampleGroup(behavior, 10, 20, 0), SampleGroup(behavior, 10, 21, 1)], 50))
        # runs end to end; label-1 records end up with zero weight
        est = run_state_method("kl-emp", target, [behavior, behavior], data)
        assert np.isfinite(est)
