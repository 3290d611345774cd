import time
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from empbench import (CorrectionVector, HeuristicTable, KernelSpec, NonErgodicChain,
                      QuadraticForm, SampleGroup, StateActionCorrection, StateDistribution,
                      TabularMDP, TabularPolicy, TransitionDataset, WeightVector,
                      assemble_state_action_quadratic, average_reward, build_gridworld,
                      build_singlepath, build_taxi, greedy_policy, population_dataset,
                      sample_trajectories, soften_policy, solve_normalized_quadratic,
                      stationary_distribution, stepwise_wis_estimate, train_q_learning_policy,
                      uniform_policy)
from empbench import mdp as mdp_module
from empbench.mdp import (_bounded_draw, _draw, _q_learning_table, chain_matrix,
                          support_cdf_table)

from helpers import (random_mdp, random_policy, random_soft_policy, reference_chain_matrix,
                     reference_population_columns, reference_q_table,
                     reference_sample_trajectories, reference_stationary_distribution,
                     reference_support_cdf_table, reference_taxi_arrays,
                     solve_stationary_exactly, two_state_symmetric)


def assert_same_trajectories(actual, expected):
    """Equal lists of datasets: every column, ``labels`` and
    ``trajectory_ids`` included, equal and of the same dtype."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        for column in fields(TransitionDataset):
            x, y = getattr(a, column.name), getattr(e, column.name)
            assert (x is None) == (y is None), column.name
            if x is not None:
                assert x.dtype == y.dtype and np.array_equal(x, y), column.name


def small_mdps():
    rng = np.random.default_rng(31)
    dense = [random_mdp(rng, 6, 3), random_mdp(rng, 9, 2)]
    return [build_singlepath(), build_gridworld()] + dense


class TestValidation:
    def test_transition_rows_must_be_stochastic(self):
        t = np.zeros((2, 1, 2))
        t[:, :, 0] = 0.7  # rows sum to 0.7
        with pytest.raises(ValueError):
            TabularMDP(t, np.zeros((2, 1)), np.array([1.0, 0.0]))

    def test_policy_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[0.5, 0.3], [0.5, 0.5]]))

    def test_dataset_label_counts(self):
        data = TransitionDataset(s=[0, 1, 0], a=[0, 0, 1], sp=[1, 0, 0],
                                 r=[0.0, 0.0, 0.0], labels=[0, 1, 1])
        assert np.bincount(data.require_labels(2)).tolist() == [1, 2]
        with pytest.raises(ValueError, match="labels must index the 1 behavior"):
            data.require_labels(1)

    @pytest.mark.parametrize("column", ["s", "a", "sp"])
    def test_negative_state_or_action_index_raises(self, column):
        columns = dict(s=[0, 1], a=[0, 1], sp=[1, 0], r=[0.0, 0.0])
        columns[column] = [0, -1]  # would index from the end
        with pytest.raises(ValueError, match="must be nonnegative"):
            TransitionDataset(**columns)

    @pytest.mark.parametrize("column", ["s", "a", "sp", "labels", "trajectory_ids"])
    @pytest.mark.parametrize("values", [[0.7, 1.9], [0.0, np.nan], [0.0, np.inf]])
    def test_non_integral_index_raises(self, column, values):
        # these used to be truncated: [0.7, 1.9] was read as [0, 1]
        columns = dict(s=[0, 1], a=[0, 1], sp=[1, 0], r=[0.0, 0.0])
        columns[column] = values
        with pytest.raises(ValueError, match=f"{column} must hold integer values"):
            TransitionDataset(**columns)

    def test_integral_floats_are_indices(self):
        data = TransitionDataset(s=[0.0, 1.0], a=[0, 1], sp=[1, 0], r=[0.0, 0.0],
                                 labels=np.array([1.0, 0.0]))
        assert data.s.dtype == data.labels.dtype == np.int64
        assert data.s.tolist() == [0, 1] and data.labels.tolist() == [1, 0]

    def test_dataset_default_weights_are_one(self):
        data = TransitionDataset(s=[0], a=[0], sp=[1], r=[0.0])
        assert data.weights.tolist() == [1.0]


TWO_STATE_DATA = TransitionDataset(s=[0, 1], a=[0, 1], sp=[1, 0], r=[0.0, 1.0])
HALF = np.full((2, 2), 0.5)

# each probability or weight check: a valid array, and the call that checks it
CHECKED_VALUES = {
    "transitions": (np.full((2, 2, 2), 0.5),
                    lambda v: TabularMDP(v, np.zeros((2, 2)), [0.5, 0.5])),
    "initial_dist": ([0.5, 0.5], lambda v: TabularMDP(np.full((2, 2, 2), 0.5),
                                                      np.zeros((2, 2)), v)),
    "policy": (HALF, TabularPolicy),
    "state distribution": ([0.3, 0.7], StateDistribution),
    "record weights": ([1.0, 2.0], lambda v: TransitionDataset(
        s=[0, 1], a=[0, 1], sp=[1, 0], r=[0.0, 1.0], weights=v)),
    "reward table": (np.zeros((2, 2)), lambda v: TabularMDP(np.full((2, 2, 2), 0.5), v,
                                                             [0.5, 0.5])),
    "record rewards": ([0.0, -1.0], lambda v: TransitionDataset(
        s=[0, 1], a=[0, 1], sp=[1, 0], r=v)),
    "mixture weights": ([0.4, 0.6], WeightVector),
    "heuristic table": ([[0.5, 1.0], [0.5, 0.0]], HeuristicTable),
    "state correction": ([1.0, 1.0], lambda v: CorrectionVector(
        v, StateDistribution([0.5, 0.5]))),
    "state-action correction": (np.ones((2, 2)), lambda v: StateActionCorrection(
        v, np.full((2, 2), 0.25))),
    "state-action reference": (np.full((2, 2), 0.25), lambda v: StateActionCorrection(
        np.ones((2, 2)), v)),
    "action weighting": ([0.5, 0.5], lambda v: assemble_state_action_quadratic(
        TWO_STATE_DATA, TabularPolicy(HALF), v, KernelSpec.state_action_delta(), 2, 2)),
    "solver reference": ([0.5, 0.5], lambda v: solve_normalized_quadratic(
        QuadraticForm(np.eye(2), 2), v, iters=1)),
    "population weights": ([0.5, 0.5], lambda v: population_dataset(
        build_singlepath(), [uniform_policy(5, 2)] * 2, v)),
    "quadratic form": (np.eye(2), lambda v: QuadraticForm(v, 2)),
    "kernel bandwidth": ([1.0], lambda v: KernelSpec.gaussian(v[0])),
}


class TestNonFiniteEntries:
    @pytest.mark.parametrize("name", sorted(CHECKED_VALUES))
    def test_valid_values_pass(self, name):
        valid, check = CHECKED_VALUES[name]
        check(np.array(valid, dtype=np.float64))

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(CHECKED_VALUES)), position=st.integers(0, 7),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_one_non_finite_entry_raises(self, name, position, bad):
        valid, check = CHECKED_VALUES[name]
        values = np.array(valid, dtype=np.float64)
        values.flat[position % values.size] = bad
        with pytest.raises(ValueError):
            check(values)


class TestSparseTransitions:
    def test_dense_and_sparse_input_store_the_same_rows(self):
        rng = np.random.default_rng(21)
        dense = random_mdp(rng, 5, 3)
        rows = dense.transition_rows
        from_sparse = TabularMDP(sparse.coo_matrix(rows), dense.reward, dense.initial_dist)
        for mdp in (dense, from_sparse):
            assert mdp.num_states == 5 and mdp.num_actions == 3
            assert mdp.transition_rows.shape == (15, 5)
            assert np.array_equal(mdp.transition_rows.toarray(), rows.toarray())
        assert np.array_equal(dense.transition, rows.toarray().reshape(5, 3, 5))

    def test_rows_are_stored_canonically(self):
        # duplicates, an explicit zero and unsorted columns in the input
        triplets = ([0.25, 0.25, 0.0, 0.5, 1.0, 1.0, 1.0],
                    ([0, 0, 0, 0, 1, 2, 3], [1, 1, 0, 0, 1, 0, 1]))
        mdp = TabularMDP(sparse.coo_matrix(triplets, shape=(4, 2)), np.zeros((2, 2)),
                         np.array([1.0, 0.0]))
        rows = mdp.transition_rows
        assert rows.format == "csr" and rows.has_canonical_format
        assert np.all(rows.data != 0)
        assert rows.indptr.tolist() == [0, 2, 3, 4, 5]
        assert rows.indices.tolist() == [0, 1, 1, 0, 1]
        assert rows.data.tolist() == [0.5, 0.5, 1.0, 1.0, 1.0]

    def test_input_is_copied(self):
        rows = sparse.csr_matrix(np.eye(2))
        mdp = TabularMDP(rows, np.zeros((2, 1)), np.array([1.0, 0.0]))
        rows.data[:] = 0.5
        assert mdp.transition_rows.data.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("rows", [
        sparse.csr_matrix(np.ones((3, 2)) / 2),            # 3 rows are not S * A
        sparse.csr_matrix(np.array([[1.5, -0.5], [0.0, 1.0]])),  # negative entry
        sparse.csr_matrix(np.array([[0.5, 0.4], [0.0, 1.0]])),   # row sums to 0.9
        sparse.csr_matrix(np.array([[np.nan, 1.0], [0.0, 1.0]])),
        np.ones((2, 2)) / 2,                               # dense must be (S, A, S)
    ])
    def test_invalid_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            TabularMDP(rows, np.zeros((2, 1)), np.array([1.0, 0.0]))


@pytest.fixture(scope="module")
def dense_taxi():
    """The taxi tensor, rewards and initial distribution from the frozen
    dense builder, with the sparse build of the same MDP."""
    return reference_taxi_arrays(), build_taxi()


class TestSparseCoreMatchesDense:
    """Every reader of the sparse rows returns the same doubles as the
    original code on the dense (S, A, S) tensor (tests/helpers.py)."""

    def test_taxi_rows(self, dense_taxi):
        (transition, reward, initial), mdp = dense_taxi
        assert np.array_equal(mdp.transition_rows.toarray(), transition.reshape(-1, 2000))
        assert mdp.transition_rows.nnz == np.count_nonzero(transition) == 193536
        assert np.array_equal(mdp.reward, reward)
        assert np.array_equal(mdp.initial_dist, initial)

    def test_transition_cdf(self, dense_taxi):
        (transition, _, _), taxi = dense_taxi
        pairs = [(taxi, transition)] + [(mdp, mdp.transition) for mdp in small_mdps()]
        for mdp, dense in pairs:
            expected = reference_support_cdf_table(dense.reshape(-1, mdp.num_states))
            for got, want in zip(mdp.transition_cdf, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_chain_matrix_taxi(self, dense_taxi):
        (transition, _, _), mdp = dense_taxi
        rng = np.random.default_rng(17)
        uniform = uniform_policy(2000, 6)
        for policy in (uniform, random_policy(rng, 2000, 6),
                       soften_policy(greedy_policy(random_policy(rng, 2000, 6)), 0.1),
                       greedy_policy(random_policy(rng, 2000, 6))):
            assert np.array_equal(chain_matrix(mdp, policy).toarray(),
                                  reference_chain_matrix(transition, policy))

    def test_chain_matrix_small(self):
        rng = np.random.default_rng(19)
        mdps = small_mdps() + [random_mdp(rng, 7, 9), random_mdp(rng, 12, 5)]
        for mdp in mdps:
            for policy in (random_policy(rng, mdp.num_states, mdp.num_actions),
                           greedy_policy(random_policy(rng, mdp.num_states, mdp.num_actions))):
                assert np.array_equal(chain_matrix(mdp, policy).toarray(),
                                      reference_chain_matrix(mdp.transition, policy))

    def test_population_dataset(self, dense_taxi):
        (transition, reward, _), taxi = dense_taxi
        rng = np.random.default_rng(23)
        cases = [(taxi, transition, [soften_policy(uniform_policy(2000, 6), 0.3)], [1.0])]
        for k, mdp in enumerate(small_mdps()):
            shape = mdp.num_states, mdp.num_actions
            second = random_soft_policy(rng, *shape)
            if k >= 2:  # dense random transitions keep a greedy policy ergodic
                second = greedy_policy(second)
            cases.append((mdp, mdp.transition, [random_soft_policy(rng, *shape), second],
                          [0.3, 0.7]))
        for mdp, dense, behaviors, weights in cases:
            data = population_dataset(mdp, behaviors, weights)
            stationary = [stationary_distribution(mdp, b).probs for b in behaviors]
            expected = reference_population_columns(dense, mdp.reward, stationary,
                                                    behaviors, np.asarray(weights))
            got = (data.s, data.a, data.sp, data.r, data.labels, data.weights)
            for column, want in zip(got, expected):
                assert column.dtype == want.dtype and np.array_equal(column, want)


class TestStationaryDistribution:
    def test_symmetric_two_state_chain(self):
        mdp = two_state_symmetric()
        d = stationary_distribution(mdp, uniform_policy(2, 1))
        np.testing.assert_allclose(d.probs, [0.5, 0.5], atol=1e-10)

    def test_rank_one_transition_returns_target_row(self):
        # T(s'|s,a) = q(s') for every (s, a): the chain lands in q immediately
        q = np.array([0.1, 0.2, 0.3, 0.4])
        transition = np.broadcast_to(q, (4, 2, 4)).copy()
        mdp = TabularMDP(transition, np.zeros((4, 2)), np.full(4, 0.25))
        rng = np.random.default_rng(7)
        d = stationary_distribution(mdp, random_policy(rng, 4, 2))
        np.testing.assert_allclose(d.probs, q, atol=1e-10)

    def test_singlepath_uniform_matches_linear_solve(self):
        mdp = build_singlepath()
        policy = uniform_policy(5, 2)
        d = stationary_distribution(mdp, policy)
        oracle = solve_stationary_exactly(chain_matrix(mdp, policy).toarray())
        np.testing.assert_allclose(d.probs, oracle, atol=1e-9)

    def test_balance_residual_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mdp = random_mdp(rng, 6, 2)
            policy = random_policy(rng, 6, 2)
            d = stationary_distribution(mdp, policy)
            residual = np.abs(d.probs @ chain_matrix(mdp, policy).toarray() - d.probs).sum()
            assert residual <= 1e-10

    def test_periodic_chain_raises(self, monkeypatch):
        # bipartite chain {0} <-> {1, 2}: the uniform start oscillates forever
        transition = np.zeros((3, 1, 3))
        transition[0, 0, 1] = transition[0, 0, 2] = 0.5
        transition[1, 0, 0] = transition[2, 0, 0] = 1.0
        mdp = TabularMDP(transition, np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
        with monkeypatch.context() as patch:
            patch.setattr(mdp_module, "_MAX_POWER_ITERS", 500)
            with pytest.raises(NonErgodicChain, match="within 500 iterations"):
                stationary_distribution(mdp, uniform_policy(3, 1))
        # with the cap of 10**6 iterations it stops once the residual has
        # not shrunk over one window
        start = time.perf_counter()
        with pytest.raises(NonErgodicChain, match="stopped shrinking"):
            stationary_distribution(mdp, uniform_policy(3, 1))
        assert time.perf_counter() - start < 1.0

    def test_slowly_mixing_chain_converges(self):
        # second eigenvalue 1 - 3e-4: the residual shrinks by about 26 %
        # per window of 1000 iterations and reaches tol after about 46k
        transition = np.array([[[1 - 1e-4, 1e-4]], [[2e-4, 1 - 2e-4]]])
        mdp = TabularMDP(transition, np.zeros((2, 1)), np.array([1.0, 0.0]))
        d = stationary_distribution(mdp, uniform_policy(2, 1))
        np.testing.assert_allclose(d.probs, [2 / 3, 1 / 3], atol=1e-6)

    @pytest.mark.parametrize("environment", ["taxi", "gridworld", "singlepath"])
    def test_buffered_matvec_matches_scipy_product(self, environment):
        # the loop multiplies through matvec_into into reused buffers; the
        # frozen loop (tests/helpers.py) through m_t @ d
        mdp = {"taxi": build_taxi, "gridworld": build_gridworld,
               "singlepath": build_singlepath}[environment]()
        rng = np.random.default_rng(29)
        shape = mdp.num_states, mdp.num_actions
        for policy in (uniform_policy(*shape), random_soft_policy(rng, *shape)):
            got = stationary_distribution(mdp, policy).probs
            assert np.array_equal(got, reference_stationary_distribution(mdp, policy).probs)

    def test_taxi_matches_linear_solve(self):
        mdp = build_taxi()
        target = train_q_learning_policy(mdp, 2000, 0.1, 0.2, 0.95, seed=0)
        for policy in (uniform_policy(2000, 6), target):
            d = stationary_distribution(mdp, policy)
            oracle = solve_stationary_exactly(chain_matrix(mdp, policy).toarray())
            np.testing.assert_allclose(d.probs, oracle, rtol=0, atol=1e-10)


class TestAverageReward:
    def test_constant_reward(self):
        rng = np.random.default_rng(11)
        mdp = random_mdp(rng, 4, 2)
        mdp.reward[:] = 2.5
        assert average_reward(mdp, random_policy(rng, 4, 2)) == pytest.approx(2.5)

    def test_two_state_symmetric_rewards(self):
        mdp = two_state_symmetric(rewards=(0.0, 1.0))
        assert average_reward(mdp, uniform_policy(2, 1)) == pytest.approx(0.5, abs=1e-9)

    def test_equals_stationary_dot_policy_weighted_reward(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 5, 3)
        policy = random_policy(rng, 5, 3)
        d = stationary_distribution(mdp, policy)
        expected = float(d.probs @ (policy.probs * mdp.reward).sum(axis=1))
        assert average_reward(mdp, policy) == pytest.approx(expected, abs=1e-12)

    def test_gridworld_matches_monte_carlo(self):
        # oracle: a long direct simulation, with batch means absorbing the
        # chain's autocorrelation
        mdp = build_gridworld()
        policy = uniform_policy(16, 4)
        rng = np.random.default_rng(123)
        num_steps, num_batches = 10**6, 100
        cdf = np.cumsum(chain_matrix(mdp, policy).toarray(), axis=1)
        reward_per_state = (policy.probs * mdp.reward).sum(axis=1)
        s = 0
        visits = np.empty(num_steps, dtype=np.int64)
        for t in range(num_steps):
            visits[t] = s
            s = int(np.searchsorted(cdf[s], rng.random(), side="right"))
        batch_means = reward_per_state[visits].reshape(num_batches, -1).mean(axis=1)
        mc_value = batch_means.mean()
        se = batch_means.std(ddof=1) / np.sqrt(num_batches)
        assert abs(average_reward(mdp, policy) - mc_value) <= 3 * se


class TestSampling:
    def test_shape(self):
        mdp = build_singlepath()
        (data,) = sample_trajectories(mdp, [SampleGroup(uniform_policy(5, 2), 3, 0, 4)], 7)
        assert len(data) == 21
        assert data.labels.tolist() == [4] * 21
        assert data.trajectory_ids.tolist() == np.repeat([0, 1, 2], 7).tolist()

    def test_same_seed_is_bit_identical(self):
        mdp = build_gridworld()
        policy = uniform_policy(16, 4)
        a = sample_trajectories(mdp, [SampleGroup(policy, 4, 42)], 9)
        b = sample_trajectories(mdp, [SampleGroup(policy, 4, 42)], 9)
        assert_same_trajectories(a, b)

    def test_deterministic_rollout_is_unique(self):
        mdp = build_singlepath()
        always_advance = TabularPolicy(np.tile([1.0, 0.0], (5, 1)))
        (data,) = sample_trajectories(mdp, [SampleGroup(always_advance, 1, 5)], 6)
        assert data.s.tolist() == [0, 1, 2, 3, 4, 0]
        assert data.r.tolist() == [1.0] * 6

    @settings(max_examples=40, deadline=None)
    @given(shares=st.lists(st.integers(0, 4), min_size=1, max_size=4),
           horizon=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_trajectories_are_contiguous_chains_of_horizon_steps(self, shares, horizon, seed):
        # each group's dataset numbers its trajectories 0..n-1, gives each
        # exactly `horizon` contiguous records and chains them: sp[i] == s[i+1]
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 5, 3)
        groups = [SampleGroup(random_soft_policy(rng, 5, 3), n, seed + j, j)
                  for j, n in enumerate(shares)]
        parts = sample_trajectories(mdp, groups, horizon)
        assert len(parts) == len(groups)
        for data, group in zip(parts, groups):
            ids = data.trajectory_ids
            assert np.array_equal(ids, np.repeat(np.arange(group.num_traj), horizon))
            assert np.array_equal(data.labels, np.full(len(data), group.label))
            same = ids[1:] == ids[:-1]
            assert np.array_equal(data.sp[:-1][same], data.s[1:][same])

    def test_visit_frequencies_converge_to_stationary(self):
        mdp = build_singlepath()
        policy = TabularPolicy(np.array([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5],
                                         [0.8, 0.2], [0.6, 0.4]]))
        d = stationary_distribution(mdp, policy).probs
        tvs = []
        for seed in range(10):
            (data,) = sample_trajectories(mdp, [SampleGroup(policy, 100, seed)], 1000)
            freq = np.bincount(data.s, minlength=5) / len(data)
            tvs.append(0.5 * np.abs(freq - d).sum())
        assert np.mean(tvs) <= 0.02


class TestConcatenate:
    def test_two_calls_join_like_one_call(self):
        # the second call's ids are shifted past the first's, so the joined
        # data equals one call's and step-wise WIS reads it trajectory by
        # trajectory; the columns appended as they are repeat ids 0..5
        mdp = build_singlepath()
        b1, b2 = uniform_policy(5, 2), TabularPolicy(np.tile([0.8, 0.2], (5, 1)))
        groups = [SampleGroup(b1, 6, 3, 0), SampleGroup(b2, 6, 4, 1)]
        one_call = TransitionDataset.concatenate(sample_trajectories(mdp, groups, 20))
        parts = sample_trajectories(mdp, [groups[0]], 20) + sample_trajectories(mdp, [groups[1]], 20)
        joined = TransitionDataset.concatenate(parts)
        assert_same_trajectories([joined], [one_call])
        assert joined.trajectory_ids.tolist() == np.repeat(np.arange(12), 20).tolist()
        target = soften_policy(b2, 0.5)
        assert (stepwise_wis_estimate(joined, target, [b1, b2])
                == stepwise_wis_estimate(one_call, target, [b1, b2]))
        appended = TransitionDataset(*(np.concatenate([getattr(part, c.name) for part in parts])
                                       for c in fields(TransitionDataset)))
        with pytest.raises(ValueError, match="contiguous"):
            stepwise_wis_estimate(appended, target, [b1, b2])

    def test_ids_shift_past_the_parts_before(self):
        def part(ids):
            n = len(ids)
            return TransitionDataset(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
                                     trajectory_ids=ids)
        joined = TransitionDataset.concatenate([part([0, 0, 1]), part([]), part([0, 1, 1]),
                                                part([2])])
        assert joined.trajectory_ids.tolist() == [0, 0, 1, 2, 3, 3, 6]
        assert joined.labels is None
        assert joined.trajectory_ids.dtype == np.int64

    def test_negative_ids_raise(self):
        # shifting by the largest id would join [-5, -5] and [-1, -1] as
        # [-5, -5, -5, -5], one trajectory across two parts
        for ids in ([-5, -5], [-1, -1], [0, -1]):
            with pytest.raises(ValueError, match="trajectory ids must be nonnegative"):
                TransitionDataset([0, 0], [0, 0], [0, 0], [0.0, 0.0], trajectory_ids=ids)

    def test_optional_column_in_some_parts_raises(self):
        labeled = TransitionDataset([0], [0], [1], [0.0], labels=[0])
        unlabeled = TransitionDataset([0], [0], [1], [0.0])
        with pytest.raises(ValueError, match="labels must be set in every part or in none"):
            TransitionDataset.concatenate([labeled, unlabeled])

    def test_no_parts_give_an_empty_dataset(self):
        empty = TransitionDataset.concatenate([])
        assert len(empty) == 0 and empty.labels is None and empty.trajectory_ids is None


class TestSamplerMatchesPerStepReference:
    """The lockstep sampler consumes the random stream exactly as the
    original per-step loop (tests/helpers.py) and returns the same arrays."""

    @pytest.mark.parametrize("num_traj, horizon", [(1, 30), (7, 25)])
    def test_small_mdps(self, num_traj, horizon):
        rng = np.random.default_rng(5)
        for k, mdp in enumerate(small_mdps()):
            policy = random_soft_policy(rng, mdp.num_states, mdp.num_actions)
            assert_same_trajectories(
                sample_trajectories(mdp, [SampleGroup(policy, num_traj, k, k)], horizon),
                [reference_sample_trajectories(mdp, policy, num_traj, horizon, seed=k, label=k)])

    def test_deterministic_policy_rows(self):
        # zero-probability actions exercise the sparse action table
        mdp = build_gridworld()
        policy = greedy_policy(random_policy(np.random.default_rng(6), 16, 4))
        assert_same_trajectories(sample_trajectories(mdp, [SampleGroup(policy, 5, 3)], 40),
                                 [reference_sample_trajectories(mdp, policy, 5, 40, seed=3)])

    def test_taxi(self):
        mdp = build_taxi()
        policy = soften_policy(uniform_policy(mdp.num_states, mdp.num_actions), 0.2)
        assert_same_trajectories(sample_trajectories(mdp, [SampleGroup(policy, 3, 9)], 150),
                                 [reference_sample_trajectories(mdp, policy, 3, 150, seed=9)])

    @settings(max_examples=40, deadline=None)
    @given(shares=st.lists(st.integers(0, 4), min_size=1, max_size=4),
           horizon=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_groups_match_per_behavior_reference(self, shares, horizon, seed):
        # one call for all groups returns each group's per-behavior rollouts in
        # group order; every other group is greedy, so the stacked action
        # tables mix rows of one and of three nonzero entries
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 5, 3)
        policies = [random_soft_policy(rng, 5, 3) for _ in shares]
        groups = [SampleGroup(greedy_policy(p) if j % 2 else p, n, seed + j, j)
                  for j, (p, n) in enumerate(zip(policies, shares))]
        got = sample_trajectories(mdp, groups, horizon)
        expected = [reference_sample_trajectories(mdp, policy, n, horizon,
                                                  seed=group_seed, label=label)
                    for policy, n, group_seed, label in groups]
        assert_same_trajectories(got, expected)

    def test_groups_without_trajectories(self):
        mdp = build_singlepath()
        policy = uniform_policy(5, 2)
        assert sample_trajectories(mdp, [], 10) == []
        assert_same_trajectories(sample_trajectories(mdp, [SampleGroup(policy, 0, 1, 2)], 10),
                                 [reference_sample_trajectories(mdp, policy, 0, 10, 1, 2)])

    @pytest.mark.parametrize("groups, horizon", [
        ([(uniform_policy(5, 2), 1, 0)], 0),
        ([(uniform_policy(5, 2), 2, 0), (uniform_policy(5, 2), -1, 1)], 5),
        ([(uniform_policy(4, 2), 1, 0)], 5),
        ([(uniform_policy(5, 3), 1, 0)], 5),
    ])
    def test_invalid_groups_raise(self, groups, horizon):
        with pytest.raises(ValueError):
            sample_trajectories(build_singlepath(), groups, horizon)

    def test_draw_past_last_cumulative_sum_returns_last_state(self):
        # ten steps of 0.1 sum to 0.9999999999999999 < 1, a value the
        # generator can return; the dense loop then picks the last column
        # even though it has zero probability
        num_states = 11
        transition = np.zeros((num_states, 1, num_states))
        transition[:, 0, :10] = 0.1
        mdp = TabularMDP(transition, np.zeros((num_states, 1)), np.full(num_states, 1 / 11))
        cum, cols, counts = mdp.transition_cdf
        dense_cdf = np.cumsum(transition[0, 0])
        last = dense_cdf[-1]
        assert last < 1.0 and counts[0] == 10
        u = np.array([last, np.nextafter(last, 0.0), 0.0])
        dense = [min(int(np.searchsorted(dense_cdf, x, side="right")), num_states - 1)
                 for x in u]
        draws = _draw(cum, cols, np.zeros(3, dtype=np.int64), u)
        assert draws.tolist() == dense == [num_states - 1, 9, 0]

    def test_dense_table_matches_reference(self):
        rng = np.random.default_rng(13)
        for policy in (random_soft_policy(rng, 7, 4), greedy_policy(random_policy(rng, 7, 4))):
            expected = reference_support_cdf_table(policy.probs)
            for got, want in zip(support_cdf_table(policy.probs), expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_table_sums_equal_dense_cumsum(self):
        rng = np.random.default_rng(12)
        table = rng.random((8, 6)) * (rng.random((8, 6)) < 0.5)
        table[:, 0] += 0.1  # no empty row
        cum, cols, counts = support_cdf_table(table)
        for i, row in enumerate(table):
            nonzero = np.flatnonzero(row)
            assert counts[i] == len(nonzero)
            assert np.array_equal(cum[i, :counts[i]], np.cumsum(row)[nonzero])
            assert np.array_equal(cols[i, :counts[i]], nonzero)
            assert np.all(np.isinf(cum[i, counts[i]:]))
            assert np.all(cols[i, counts[i]:] == table.shape[1] - 1)


class TestQLearningMatchesPerStepReference:
    """The list-based loop, decoding the generator's raw stream, draws the
    same numbers and makes the same float64 updates as the original numpy
    loop's random() and integers() calls (tests/helpers.py)."""

    def test_small_mdps(self):
        for k, mdp in enumerate(small_mdps()):
            args = (mdp, 60, 0.2, 0.3, 0.9, k, 100)
            assert np.array_equal(_q_learning_table(*args), reference_q_table(*args))

    def test_taxi(self):
        args = (build_taxi(), 15, 0.1, 0.2, 0.95, 4, 100)
        assert np.array_equal(_q_learning_table(*args), reference_q_table(*args))

    def test_high_epsilon(self):
        # most steps explore, so most 32-bit draws take the buffered high
        # half of the word an earlier draw split
        for k, mdp in enumerate(small_mdps()):
            args = (mdp, 30, 0.9, 0.3, 0.9, 40 + k, 100)
            assert np.array_equal(_q_learning_table(*args), reference_q_table(*args))

    @pytest.mark.parametrize("num_actions", [1, 2, 3, 5, 7])
    def test_random_mdps(self, num_actions):
        rng = np.random.default_rng(num_actions)
        mdp = random_mdp(rng, 8, num_actions)
        for epsilon in (0.2, 0.9):
            args = (mdp, 40, epsilon, 0.3, 0.9, num_actions, 50)
            assert np.array_equal(_q_learning_table(*args), reference_q_table(*args))

    def test_run_spans_several_raw_batches(self, monkeypatch):
        # 5-word batches: words left over from one batch carry into the
        # next, also while a high half is buffered
        monkeypatch.setattr(mdp_module, "_RAW_BATCH", 5)
        for k, mdp in enumerate(small_mdps()):
            args = (mdp, 20, 0.5, 0.3, 0.9, 60 + k, 30)
            assert np.array_equal(_q_learning_table(*args), reference_q_table(*args))

    @settings(max_examples=80, deadline=None)
    @given(num_states=st.integers(1, 6), num_actions=st.integers(1, 7),
           rewards=st.sampled_from(["normal", "integer", "zero"]),
           epsilon=st.sampled_from([0.1, 0.9]), batch=st.sampled_from([5, 1 << 12]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_on_random_mdps(self, num_states, num_actions, rewards,
                                              epsilon, batch, seed):
        # integer and all-zero rewards with dyadic alpha and gamma keep many
        # Q values exactly equal, so the cached greedy action must follow
        # np.argmax's first-index rule through ties and through rescans
        rng = np.random.default_rng(seed)
        transition = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
        transition *= rng.random(transition.shape) < 0.6
        transition[..., 0] += transition.sum(axis=2) == 0  # no empty row
        transition /= transition.sum(axis=2, keepdims=True)
        shape = (num_states, num_actions)
        reward = {"normal": rng.normal(size=shape),
                  "integer": rng.integers(-2, 3, size=shape).astype(np.float64),
                  "zero": np.zeros(shape)}[rewards]
        mdp = TabularMDP(transition, reward, rng.dirichlet(np.ones(num_states)))
        args = (mdp, 8, epsilon, 0.5, 0.5, seed, 25)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mdp_module, "_RAW_BATCH", batch)
            assert np.array_equal(_q_learning_table(*args), reference_q_table(*args))


class _RawWords:
    """Stand-in for a bit generator whose raw stream is ``words``, then zeros."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out + [0] * (size - len(out)), dtype=np.uint64)


class TestBoundedDraw:
    """``_bounded_draw`` reproduces ``Generator.integers(bound)`` from
    32-bit draws, Lemire's rejection loop included, and the Q-learning loop
    feeds it the draws numpy would."""

    TOP = (1 << 32) - 1

    def test_crafted_draws(self):
        # 0 * 6 has low bits 0 < 2**32 % 6 = 4: rejected, the next draw decides
        assert _bounded_draw(0, 6) is None
        assert _bounded_draw(self.TOP, 6) == 5
        assert _bounded_draw((1 << 31) + 1, 6) == 3
        assert _bounded_draw(self.TOP, 7) == 6
        assert _bounded_draw(1 << 31, 2) == 1
        # a power of two has threshold 0, so draw 0 is accepted
        assert _bounded_draw(0, 4) == 0

    @pytest.mark.parametrize("bound", [2, 3, 6, 7, 1000, 3 << 30, (1 << 31) + 1, 1 << 32])
    def test_matches_generator_integers(self, bound):
        # 3 << 30 rejects about one draw in four and 2**31 + 1 about one in
        # two; 2**32 takes every draw as it is
        for seed in range(5):
            rng = np.random.default_rng(seed)
            words = np.random.default_rng(seed).bit_generator.random_raw(2000).tolist()
            halves = iter([half for w in words for half in (w & 0xFFFFFFFF, w >> 32)])
            for _ in range(300):
                value = None
                while value is None:
                    value = _bounded_draw(next(halves), bound)
                assert value == int(rng.integers(bound))

    @staticmethod
    def explored_actions(monkeypatch, num_actions, words, steps):
        """The actions of a Q-learning episode of ``steps`` steps that reads
        the raw stream ``words``.  Every step explores, since the uniforms of
        word 0 are 0, on a chain that moves from s to s + 1 whatever the
        action, with reward a + 1 and alpha 1: each state is visited once,
        before its successor, so row s of Q is a + 1 at the action taken
        there and 0 elsewhere."""
        transition = np.zeros((steps + 1, num_actions, steps + 1))
        transition[np.arange(steps), :, np.arange(1, steps + 1)] = 1.0
        transition[steps, :, steps] = 1.0
        reward = np.tile(np.arange(1.0, num_actions + 1), (steps + 1, 1))
        initial = np.eye(steps + 1)[0]
        stream = SimpleNamespace(bit_generator=_RawWords(words))
        monkeypatch.setattr(mdp_module.np.random, "default_rng", lambda seed: stream)
        q = _q_learning_table(TabularMDP(transition, reward, initial), 1, 0.5, 1.0, 0.5,
                              0, steps)
        visited = q[:steps]
        assert np.array_equal(np.count_nonzero(visited, axis=1), np.ones(steps))
        return (visited.sum(axis=1) - 1).astype(int).tolist()

    def test_loop_rejects_low_half_then_takes_high_half(self, monkeypatch):
        # word layout: the initial state, then per step the explore uniform,
        # the words its 32-bit draws split and the next-state uniform.  The
        # low half 0 is rejected and the buffered high half decides; the
        # next draw splits a fresh word
        words = [0, 0, self.TOP << 32, 0, 0, 1, 0]
        assert self.explored_actions(monkeypatch, 6, words, 2) == [5, 0]

    def test_loop_keeps_high_half_after_two_rejections(self, monkeypatch):
        words = [0, 0, 0, self.TOP << 32 | (1 << 31) + 1, 0, 0, 0]
        assert self.explored_actions(monkeypatch, 6, words, 2) == [3, 5]

    def test_loop_rejects_past_the_batch_end(self, monkeypatch):
        # with 5-word batches the rejections read up to the batch's last
        # word, and the next-state uniform comes from the next batch
        monkeypatch.setattr(mdp_module, "_RAW_BATCH", 5)
        words = [0, 0, 0, 0, (1 << 31) + 1, 0, 0, 1, 0]
        assert self.explored_actions(monkeypatch, 6, words, 2) == [3, 0]


class TestQLearning:
    def test_rows_are_stochastic(self):
        mdp = build_singlepath()
        policy = train_q_learning_policy(mdp, 20, 0.2, 0.5, 0.9, seed=0)
        np.testing.assert_allclose(policy.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softening_formula(self):
        mdp = build_singlepath()
        policy = train_q_learning_policy(mdp, 20, 0.5, 0.5, 0.9, seed=0)
        assert set(np.round(policy.probs, 12).ravel()) == {0.25, 0.75}

    def test_learned_policy_beats_uniform_on_singlepath(self):
        mdp = build_singlepath()
        learned = train_q_learning_policy(mdp, 200, 0.1, 0.5, 0.9, seed=1)
        assert average_reward(mdp, learned) > average_reward(mdp, uniform_policy(5, 2))

    def test_parameter_validation(self):
        mdp = build_singlepath()
        with pytest.raises(ValueError):
            train_q_learning_policy(mdp, 10, 0.0, 0.5, 0.9, seed=0)
        with pytest.raises(ValueError):
            train_q_learning_policy(mdp, 10, 0.1, 0.5, 1.0, seed=0)
        with pytest.raises(ValueError, match="episodes"):
            train_q_learning_policy(mdp, 0, 0.1, 0.5, 0.9, seed=0)
        with pytest.raises(ValueError, match="episodes must be >= 1 and an integer"):
            train_q_learning_policy(mdp, 20.0, 0.1, 0.5, 0.9, seed=0)


class TestSoftenPolicy:
    def test_zero_epsilon_is_identity(self):
        rng = np.random.default_rng(2)
        policy = random_policy(rng, 4, 3)
        np.testing.assert_array_equal(soften_policy(policy, 0.0).probs, policy.probs)

    def test_full_epsilon_is_uniform(self):
        rng = np.random.default_rng(2)
        policy = random_policy(rng, 4, 3)
        np.testing.assert_allclose(soften_policy(policy, 1.0).probs, 1 / 3)

    def test_half_epsilon_on_deterministic_rows(self):
        policy = TabularPolicy(np.tile([1.0, 0.0], (3, 1)))
        np.testing.assert_allclose(soften_policy(policy, 0.5).probs,
                                   np.tile([0.75, 0.25], (3, 1)))

    def test_rows_stay_stochastic_for_all_epsilon(self):
        rng = np.random.default_rng(9)
        policy = random_policy(rng, 6, 4)
        for eps in np.linspace(0.0, 1.0, 11):
            softened = soften_policy(policy, eps)
            np.testing.assert_allclose(softened.probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(softened.probs >= 0)


class TestPopulationDataset:
    def test_weights_are_joint_probabilities(self):
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng, 4, 2)
        behavior = random_policy(rng, 4, 2)
        data = population_dataset(mdp, behavior)
        assert data.weights.sum() == pytest.approx(1.0, abs=1e-9)
        # marginal over (a, s') reproduces the stationary distribution
        marginal = np.bincount(data.s, weights=data.weights, minlength=4)
        d = stationary_distribution(mdp, behavior).probs
        np.testing.assert_allclose(marginal, d, atol=1e-9)

    @pytest.mark.parametrize("num_behaviors, weights", [(1, [0.5, 0.5]), (2, [1.0])])
    def test_weights_must_match_the_behaviors(self, num_behaviors, weights):
        # a longer list used to be cut without a word, a shorter one to fail
        # with a bare IndexError
        behaviors = [uniform_policy(5, 2)] * num_behaviors
        with pytest.raises(ValueError, match=rf"shape \({len(weights)},\); "
                                             rf"{num_behaviors} behaviors"):
            population_dataset(build_singlepath(), behaviors, weights)

    def test_no_behaviors_raises(self):
        # used to divide by zero
        with pytest.raises(ValueError, match="at least one behavior"):
            population_dataset(build_singlepath(), [])

    def test_mixture_of_two_behaviors(self):
        rng = np.random.default_rng(8)
        mdp = random_mdp(rng, 3, 2)
        b1, b2 = random_policy(rng, 3, 2), random_policy(rng, 3, 2)
        data = population_dataset(mdp, [b1, b2], weights=[0.3, 0.7])
        w_by_label = np.bincount(data.labels, weights=data.weights)
        np.testing.assert_allclose(w_by_label, [0.3, 0.7], atol=1e-9)
