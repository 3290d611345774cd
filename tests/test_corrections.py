import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from empbench import corrections
from empbench import (CorrectionVector, DegenerateReference, KernelSpec, QuadraticForm,
                      SampleGroup, SolverParams, TabularPolicy, TransitionDataset,
                      assemble_state_action_quadratic, assemble_state_quadratic,
                      build_gridworld, build_singlepath, build_taxi, importance_ratios,
                      learn_bch, learn_emp, learn_sadl, population_dataset, sample_trajectories,
                      solve_normalized_quadratic, stationary_distribution, tv_distance)
from empbench.harness import ExperimentConfig, PolicySpec, generate_cell_data, make_policies
from empbench.policies import empirical_state_distribution, estimate_policy_mle

from helpers import (naive_state_action_objective, naive_state_quadratic,
                     one_hot_gaussian_gram, random_mdp, random_policy, random_soft_policy,
                     reference_delta_factors, reference_delta_quadratic,
                     reference_pgd_solve, stationary_start)


def random_dataset(rng, num_states, num_actions, n, unit_weights=True):
    return TransitionDataset(
        s=rng.integers(0, num_states, n),
        a=rng.integers(0, num_actions, n),
        sp=rng.integers(0, num_states, n),
        r=rng.normal(size=n),
        weights=None if unit_weights else rng.random(n) + 0.1,
    )


class TestImportanceRatio:
    def test_identical_policies(self):
        rng = np.random.default_rng(0)
        policy = random_policy(rng, 3, 2)
        data = random_dataset(rng, 3, 2, 10)
        np.testing.assert_array_equal(importance_ratios(data, policy, policy), 1.0)

    def test_simple_ratio(self):
        target = TabularPolicy(np.array([[0.6, 0.4]]))
        denom = TabularPolicy(np.array([[0.3, 0.7]]))
        data = TransitionDataset(s=[0], a=[0], sp=[0], r=[0.0])
        assert importance_ratios(data, target, denom)[0] == pytest.approx(2.0)

    def test_matches_direct_division(self):
        rng = np.random.default_rng(1)
        target, denom = random_policy(rng, 4, 3), random_policy(rng, 4, 3)
        s, a = np.divmod(np.arange(12), 3)
        data = TransitionDataset(s=s, a=a, sp=s, r=np.zeros(12))
        rho = importance_ratios(data, target, denom)
        for i in range(12):
            assert rho[i] == pytest.approx(
                target.probs[s[i], a[i]] / denom.probs[s[i], a[i]], rel=1e-12)

    def test_per_label_policies_index_by_label(self):
        rng = np.random.default_rng(2)
        target = random_policy(rng, 3, 2)
        behaviors = [random_policy(rng, 3, 2), random_policy(rng, 3, 2)]
        data = random_dataset(rng, 3, 2, 20)
        data.labels = rng.integers(0, 2, 20)
        rho = importance_ratios(data, target, behaviors)
        for j, behavior in enumerate(behaviors):
            group = data.subset(data.labels == j)
            np.testing.assert_array_equal(rho[data.labels == j],
                                          importance_ratios(group, target, behavior))
        data.labels[0] = 2
        with pytest.raises(ValueError):
            importance_ratios(data, target, behaviors)


class TestStateQuadratic:
    def test_on_policy_objective_vanishes_at_one(self):
        rng = np.random.default_rng(2)
        policy = random_policy(rng, 4, 2)
        data = random_dataset(rng, 4, 2, 30)
        qf = assemble_state_quadratic(data, policy, policy, KernelSpec.state_delta(), 4)
        assert qf.value(np.ones(4)) == 0.0

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(3)
        target, denom = random_policy(rng, 5, 3), random_policy(rng, 5, 3)
        data = random_dataset(rng, 5, 3, 40, unit_weights=False)
        qf = assemble_state_quadratic(data, target, denom, KernelSpec.state_delta(), 5)
        mat = qf.scale * qf.matrix
        np.testing.assert_allclose(mat, mat.T, atol=1e-10)
        assert np.linalg.eigvalsh(mat).min() >= -1e-8

    def test_matches_naive_double_sum_delta(self):
        rng = np.random.default_rng(4)
        target, denom = random_policy(rng, 3, 2), random_policy(rng, 3, 2)
        data = random_dataset(rng, 3, 2, 20)
        qf = assemble_state_quadratic(data, target, denom, KernelSpec.state_delta(), 3)
        oracle = naive_state_quadratic(data, target, denom,
                                       lambda x, y: float(x == y), 3)
        np.testing.assert_allclose(qf.scale * qf.matrix, oracle, atol=1e-12)

    def test_matches_naive_double_sum_gaussian(self):
        rng = np.random.default_rng(5)
        target, denom = random_policy(rng, 3, 2), random_policy(rng, 3, 2)
        data = random_dataset(rng, 3, 2, 15, unit_weights=False)
        bandwidth = 0.8
        kernel = KernelSpec.gaussian(bandwidth)
        qf = assemble_state_quadratic(data, target, denom, kernel, 3)

        def kfunc(x, y):  # one-hot embedding: squared distance 0 or 2
            return float(np.exp(-(0.0 if x == y else 2.0) / (2 * bandwidth**2)))

        oracle = naive_state_quadratic(data, target, denom, kfunc, 3)
        np.testing.assert_allclose(qf.scale * qf.matrix, oracle, atol=1e-12)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(6)
        target, denom = random_policy(rng, 4, 2), random_policy(rng, 4, 2)
        data = random_dataset(rng, 4, 2, 25)
        qf = assemble_state_quadratic(data, target, denom, KernelSpec.state_delta(), 4)
        omega = rng.random(4) + 0.5
        for c in (0.5, 2.0, 7.3):
            assert qf.value(c * omega) == pytest.approx(c**2 * qf.value(omega), rel=1e-10)


class TestStateActionQuadratic:
    def test_zero_correction_gives_zero(self):
        rng = np.random.default_rng(8)
        target = random_policy(rng, 3, 2)
        data = random_dataset(rng, 3, 2, 10)
        qf = assemble_state_action_quadratic(data, target, [0.5, 0.5],
                                             KernelSpec.state_action_delta(), 3, 2)
        assert qf.value(np.zeros(6)) == 0.0

    def test_matches_four_term_double_sum(self):
        rng = np.random.default_rng(9)
        target = random_policy(rng, 2, 2)
        data = random_dataset(rng, 2, 2, 10)
        nu = np.array([0.3, 0.7])
        qf = assemble_state_action_quadratic(data, target, nu,
                                             KernelSpec.state_action_delta(), 2, 2)
        for _ in range(5):
            u = rng.random((2, 2))
            oracle = naive_state_action_objective(
                data, target, nu, lambda x, y: float(x == y), u)
            assert qf.value(u.ravel()) == pytest.approx(oracle, abs=1e-12)

    def test_matches_four_term_double_sum_gaussian(self):
        rng = np.random.default_rng(10)
        target = random_policy(rng, 2, 2)
        data = random_dataset(rng, 2, 2, 8, unit_weights=False)
        nu = np.array([0.4, 0.6])
        bandwidth = 1.1
        kernel = KernelSpec.gaussian(bandwidth)
        qf = assemble_state_action_quadratic(data, target, nu, kernel, 2, 2)

        def kfunc(x, y):  # one-hot state and action blocks
            sq = (0.0 if x[0] == y[0] else 2.0) + (0.0 if x[1] == y[1] else 2.0)
            return float(np.exp(-sq / (2 * bandwidth**2)))

        for _ in range(3):
            u = rng.random((2, 2))
            oracle = naive_state_action_objective(data, target, nu, kfunc, u)
            assert qf.value(u.ravel()) == pytest.approx(oracle, abs=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(11)
        target = random_policy(rng, 4, 3)
        data = random_dataset(rng, 4, 3, 30, unit_weights=False)
        qf = assemble_state_action_quadratic(data, target, np.full(3, 1 / 3),
                                             KernelSpec.state_action_delta(), 4, 3)
        mat = qf.scale * qf.matrix
        np.testing.assert_allclose(mat, mat.T, atol=1e-10)
        assert np.linalg.eigvalsh(mat).min() >= -1e-8

    def test_rejects_state_kernel(self):
        rng = np.random.default_rng(12)
        target = random_policy(rng, 3, 2)
        data = random_dataset(rng, 3, 2, 5)
        with pytest.raises(ValueError):
            assemble_state_action_quadratic(data, target, [0.5, 0.5],
                                            KernelSpec.state_delta(), 3, 2)


class TestGaussianGram:
    @pytest.mark.parametrize("num_states", [5, 16])
    @pytest.mark.parametrize("num_actions", [None, 2, 4])
    @pytest.mark.parametrize("bandwidth", [0.3, 1.0, 2.7])
    def test_matches_one_hot_embedding(self, num_states, num_actions, bandwidth):
        gram = KernelSpec.gaussian(bandwidth).gram(num_states, num_actions)
        oracle = one_hot_gaussian_gram(bandwidth, num_states, num_actions)
        assert gram.dtype == oracle.dtype and np.array_equal(gram, oracle)

    def test_taxi_sized_state_gram_stays_small(self):
        # an explicit embedding difference tensor would take 64 GB here
        tracemalloc.start()
        try:
            gram = KernelSpec.gaussian(1.0).gram(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert gram.shape == (2000, 2000)
        assert np.all(np.diag(gram) == 1.0) and gram[0, 1] == np.exp(-1.0)

@pytest.fixture(scope="module")
def taxi_cell():
    """One cell of the acceptance taxi sweep: 200 trajectories of 200 steps
    from the 0.2-softening of a 2000-episode Q-learning target."""
    mdp = build_taxi()
    cfg = ExperimentConfig(environment="taxi", target=PolicySpec(episodes=2000),
                           behavior_epsilons=[0.2])
    target, behaviors = make_policies(mdp, cfg, 0)
    data = generate_cell_data(mdp, behaviors, 200, 200, data_seed=5)
    return mdp, target, behaviors, data


def assemble_with_factor(monkeypatch, assemble, *args):
    """The form ``assemble(*args)`` returns and the factor, dense or CSR,
    it passed to ``_kernel_quadratic``."""
    factors = []
    kernel_quadratic = corrections._kernel_quadratic

    def capture(left, *rest):
        factors.append(left)
        return kernel_quadratic(left, *rest)

    monkeypatch.setattr(corrections, "_kernel_quadratic", capture)
    return assemble(*args), factors[0]


def assert_same_csr(actual, expected):
    assert actual.format == "csr" and actual.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(actual, name), getattr(expected, name)), name


class TestSparseQuadraticForms:
    """Delta-kernel forms are the sparse product of their factor, which is
    exactly symmetric, and hold the same doubles as the original dense
    symmetrization (tests/helpers.py)."""

    def test_taxi_state_forms_match_dense(self, monkeypatch, taxi_cell):
        mdp, target, behaviors, data = taxi_cell
        cases = [(data, target, denom, 2000)
                 for denom in (behaviors, estimate_policy_mle(data, 2000, 6))]
        # random data over 600 states, most of them unvisited
        rng = np.random.default_rng(40)
        for unit_weights in (True, False):
            cases.append((random_dataset(rng, 600, 3, 400, unit_weights),
                          random_policy(rng, 600, 3), random_policy(rng, 600, 3), 600))
        for data, target, denom, num_states in cases:
            qf, left = assemble_with_factor(monkeypatch, assemble_state_quadratic, data,
                                            target, denom, KernelSpec.state_delta(),
                                            num_states)
            dense = reference_delta_quadratic(left)
            assert np.array_equal(qf.matrix, dense)
            assert qf.entries.nnz == np.count_nonzero(dense) < 0.25 * num_states**2
            assert_same_csr(qf.entries, sparse.csr_matrix(dense))

    def test_small_state_action_form_matches_dense(self, monkeypatch):
        mdp = build_gridworld()
        rng = np.random.default_rng(41)
        behavior, target = random_soft_policy(rng, 16, 4), random_soft_policy(rng, 16, 4)
        cases = [(population_dataset(mdp, behavior), target, 16, 4)]
        # random data, weighted or not; 300 records leave most of the
        # 200 x 3 pairs unvisited, and 600 variables are stored as CSR
        for num_states, num_actions, n in ((4, 3, 30), (200, 3, 300)):
            for unit_weights in (True, False):
                cases.append((random_dataset(rng, num_states, num_actions, n, unit_weights),
                              random_policy(rng, num_states, num_actions),
                              num_states, num_actions))
        for data, target, num_states, num_actions in cases:
            qf, left = assemble_with_factor(monkeypatch, assemble_state_action_quadratic,
                                            data, target, np.full(num_actions, 1 / num_actions),
                                            KernelSpec.state_action_delta(), num_states,
                                            num_actions)
            dense = reference_delta_quadratic(left)
            if qf.dim >= 512:
                assert np.array_equal(qf.matrix, dense)
                assert_same_csr(qf.entries, sparse.csr_matrix(dense))
            else:  # one BLAS product, which adds in another order than SpGEMM
                assert isinstance(qf.entries, np.ndarray)
                assert np.array_equal(qf.matrix, qf.matrix.T)
                assert np.abs(qf.matrix - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_solver_multiplies_the_entries_as_stored(self, monkeypatch, taxi_cell):
        # the form keeps the storage it is given, sparse as sorted CSR, at
        # any size and density, and the solver multiplies by it as stored:
        # the storage decides the matvec and with it the rounding
        mdp, target, behaviors, data = taxi_cell
        used = []
        lambda_max = corrections._lambda_max

        def spy(matrix, *args, **kwargs):
            used.append(matrix)
            return lambda_max(matrix, *args, **kwargs)

        monkeypatch.setattr(corrections, "_lambda_max", spy)
        taxi = assemble_state_quadratic(data, target, behaviors, KernelSpec.state_delta(), 2000)
        small = sparse.random(511, 511, density=0.01, random_state=1)
        below = np.zeros((512, 512))
        below[:256, :256] = 1.0
        below[0, 0] = 0.0  # under a quarter of the entries nonzero
        cases = [(taxi, True), (QuadraticForm(np.eye(512), 512), False),
                 (QuadraticForm(below, 512), False),
                 (QuadraticForm(small @ small.T, 511), True),
                 (QuadraticForm(sparse.csr_matrix(np.ones((512, 512))), 512), True),
                 (QuadraticForm(np.ones((512, 512)), 512), False)]
        for form, csr in cases:
            solve_normalized_quadratic(form, np.full(form.dim, 1.0 / form.dim), iters=1)
            assert used[-1] is form.entries
            if csr:
                assert_same_csr(form.entries, sparse.csr_matrix(form.matrix))
            else:
                assert isinstance(form.entries, np.ndarray)

    def test_form_sorts_csr_indices_in_a_copy(self):
        # CSR matvecs add in stored order, so the form owns sorted indices;
        # a caller's unsorted matrix is copied, not sorted in place
        m = sparse.random(600, 600, density=0.01, random_state=5, format="csr")
        sorted_csr = (m + m.T).tocsr()
        sorted_csr.sort_indices()
        indptr, indices, data = (a.copy() for a in (sorted_csr.indptr, sorted_csr.indices,
                                                    sorted_csr.data))
        for lo, hi in zip(indptr[:-1], indptr[1:]):  # reverse each row's order
            indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1], data[lo:hi][::-1]
        unsorted = sparse.csr_matrix((data, indices, indptr), shape=(600, 600))
        assert not unsorted.has_sorted_indices
        stored = [a.copy() for a in (unsorted.indptr, unsorted.indices, unsorted.data)]
        qf = QuadraticForm(unsorted, 600)
        assert_same_csr(qf.entries, sorted_csr)
        for name, before in zip(("indptr", "indices", "data"), stored):
            assert np.array_equal(getattr(unsorted, name), before), name
        x = np.random.default_rng(5).random(600)
        assert qf.value(x) == QuadraticForm(sorted_csr, 600).value(x)

    def test_form_keeps_dense_and_sparse_entries(self):
        dense = np.array([[2.0, -1.0], [-1.0, 2.0]])
        dense_form = QuadraticForm(dense, 2, scale=0.5)
        coo_form = QuadraticForm(sparse.coo_matrix(dense), 2, scale=0.5)
        assert isinstance(dense_form.entries, np.ndarray)
        assert_same_csr(coo_form.entries, sparse.csr_matrix(dense))
        for qf in (dense_form, coo_form):
            assert np.array_equal(qf.matrix, dense)
            assert qf.value([1.0, 2.0]) == 0.5 * 6.0
        x = np.random.default_rng(2).random(2)
        assert coo_form.value(x) == dense_form.value(x)
        with pytest.raises(ValueError):
            QuadraticForm(sparse.eye(3), 2)


class TestDenseQuadraticForms:
    """Forms below SPARSE_MIN_DIM variables are assembled dense: the factor
    from np.bincount, the form as the one BLAS product left @ left.T."""

    # (dim, records) per state form; (states, actions, records) per
    # state-action form of 5, 16 and 511 variables
    STATE_CASES = [(5, 200), (16, 120), (511, 25)]
    STATE_ACTION_CASES = [(5, 1, 200), (4, 4, 120), (73, 7, 25)]

    @staticmethod
    def check_dense_form(qf, left, frozen_left):
        assert isinstance(qf.entries, np.ndarray) and isinstance(left, np.ndarray)
        mat = qf.matrix
        assert np.array_equal(mat, mat.T)
        # the frozen path sums the factor's duplicate entries in another order
        frozen = reference_delta_quadratic(frozen_left)
        assert np.abs(mat - frozen).max() <= 1e-12 * np.abs(frozen).max()

    @pytest.mark.parametrize("dim, n", STATE_CASES)
    @pytest.mark.parametrize("unit_weights", [True, False])
    def test_state_form(self, monkeypatch, dim, n, unit_weights):
        rng = np.random.default_rng(dim)
        data = random_dataset(rng, dim, 2, n, unit_weights)
        target, denom = random_soft_policy(rng, dim, 2), random_soft_policy(rng, dim, 2)
        qf, left = assemble_with_factor(monkeypatch, assemble_state_quadratic, data, target,
                                        denom, KernelSpec.state_delta(), dim)
        self.check_dense_form(qf, left,
                              reference_delta_factors(data, target, denom, None, dim, 2))
        # the factor adds each entry's terms in record order: every record's
        # rho term, then every record's -1
        rho = importance_ratios(data, target, denom)
        c = np.zeros((dim, dim))
        for i in range(n):
            c[data.sp[i], data.s[i]] += data.weights[i] * rho[i]
        for i in range(n):
            c[data.sp[i], data.sp[i]] -= data.weights[i]
        assert np.array_equal(left, c.T)
        naive = naive_state_quadratic(data, target, denom, lambda x, y: float(x == y), dim)
        np.testing.assert_allclose(qf.scale * qf.matrix, naive, rtol=0,
                                   atol=1e-12 * np.abs(naive).max())

    @pytest.mark.parametrize("num_states, num_actions, n", STATE_ACTION_CASES)
    @pytest.mark.parametrize("unit_weights", [True, False])
    def test_state_action_form(self, monkeypatch, num_states, num_actions, n, unit_weights):
        rng = np.random.default_rng(num_states * num_actions)
        data = random_dataset(rng, num_states, num_actions, n, unit_weights)
        target = random_soft_policy(rng, num_states, num_actions)
        nu = rng.dirichlet(np.ones(num_actions))
        qf, left = assemble_with_factor(monkeypatch, assemble_state_action_quadratic, data,
                                        target, nu, KernelSpec.state_action_delta(),
                                        num_states, num_actions)
        self.check_dense_form(qf, left, reference_delta_factors(data, target, None, nu,
                                                                num_states, num_actions))
        u = rng.random((num_states, num_actions))
        naive = naive_state_action_objective(
            data, target, nu, lambda x, y: float(x == y), u)
        assert qf.value(u.ravel()) == pytest.approx(naive, rel=1e-10, abs=1e-14)

    def test_512_variables_stay_csr(self, monkeypatch):
        rng = np.random.default_rng(512)
        data = random_dataset(rng, 512, 2, 40)
        target, denom = random_soft_policy(rng, 512, 2), random_soft_policy(rng, 512, 2)
        qf, left = assemble_with_factor(monkeypatch, assemble_state_quadratic, data, target,
                                        denom, KernelSpec.state_delta(), 512)
        assert sparse.issparse(left) and sparse.issparse(qf.entries)
        data = random_dataset(rng, 128, 4, 40)
        qf, left = assemble_with_factor(monkeypatch, assemble_state_action_quadratic, data,
                                        random_soft_policy(rng, 128, 4), np.full(4, 0.25),
                                        KernelSpec.state_action_delta(), 128, 4)
        assert sparse.issparse(left) and sparse.issparse(qf.entries)


def enumerate_active_sets(matrix, reference):
    """Constrained-QP oracle for small dimensions: solve the KKT system for
    every candidate set of free coordinates and keep the best feasible
    stationary point."""
    dim = len(reference)
    best = np.inf
    for mask in range(1, 2**dim):
        free = [i for i in range(dim) if mask >> i & 1]
        sub = matrix[np.ix_(free, free)]
        ref = reference[free]
        kkt = np.block([[2 * sub, ref[:, None]], [ref[None, :], np.zeros((1, 1))]])
        rhs = np.zeros(len(free) + 1)
        rhs[-1] = 1.0
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x_free = sol[:-1]
        if np.abs(kkt @ sol - rhs).max() > 1e-8 or np.any(x_free < -1e-10):
            continue
        x = np.zeros(dim)
        x[free] = np.maximum(x_free, 0.0)
        best = min(best, float(x @ matrix @ x))
    return best


class TestSolver:
    def test_zero_matrix_returns_initial_point(self):
        qf = QuadraticForm(np.zeros((3, 3)), 3)
        x = solve_normalized_quadratic(qf, np.full(3, 1 / 3))
        np.testing.assert_array_equal(x, np.ones(3))

    def test_mass_flees_penalized_coordinate(self):
        qf = QuadraticForm(np.diag([0.0, 1.0]), 2)
        x = solve_normalized_quadratic(qf, np.array([0.5, 0.5]))
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-6)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            b = rng.normal(size=(5, 5))
            matrix = b.T @ b
            reference = rng.dirichlet(np.ones(5))
            qf = QuadraticForm(matrix, 5)
            x = solve_normalized_quadratic(qf, reference, iters=50000)
            oracle = enumerate_active_sets(matrix, reference)
            assert qf.value(x) <= oracle + 1e-4

    def test_constraints_hold(self):
        rng = np.random.default_rng(14)
        b = rng.normal(size=(6, 6))
        qf = QuadraticForm(b.T @ b, 6)
        reference = rng.dirichlet(np.ones(6))
        x = solve_normalized_quadratic(qf, reference)
        assert np.all(x >= 0)
        assert reference @ x == pytest.approx(1.0, abs=1e-6)

    def test_objective_monotone_on_accepted_iterates(self):
        rng = np.random.default_rng(15)
        b = rng.normal(size=(8, 8))
        qf = QuadraticForm(b.T @ b, 8)
        trace = []
        solve_normalized_quadratic(qf, rng.dirichlet(np.ones(8)), trace=trace)
        diffs = np.diff(trace)
        assert np.all(diffs <= 0)

    def test_empty_reference_raises(self):
        qf = QuadraticForm(np.eye(2), 2)
        with pytest.raises(DegenerateReference):
            solve_normalized_quadratic(qf, np.zeros(2))

    def test_reference_collapsing_to_clipped_coordinate_raises(self, monkeypatch):
        # an underestimated lambda_max makes the step 0.5 / 0.05 = 10, which
        # clips away the only coordinate the reference weights
        monkeypatch.setattr(corrections, "_lambda_max", lambda *args: 0.05)
        qf = QuadraticForm(np.array([[1.0, -2.0], [-2.0, 5.0]]), 2)
        with pytest.raises(DegenerateReference):
            solve_normalized_quadratic(qf, np.array([0.0, 1.0]))


def random_forms(rng):
    """Dense forms of 2 to 40 variables and CSR forms of 600 and 2000, each
    with a random reference and scale."""
    forms = []
    for dim in (2, 5, 16, 40):
        b = rng.normal(size=(dim, dim))
        forms.append(QuadraticForm(b.T @ b, dim, scale=rng.random()))
    for dim in (600, 2000):
        m = sparse.random(dim, dim, density=3 / dim, random_state=dim)
        forms.append(QuadraticForm((m @ m.T).tocsr(), dim, scale=rng.random() / dim))
    return [(form, rng.dirichlet(np.ones(form.dim))) for form in forms]


class TestBufferedSolver:
    """The allocation-free loop reproduces the original allocating loop
    (tests/helpers.py) bit for bit: the solution and every accepted
    objective."""

    def test_random_forms_match_the_frozen_loop(self):
        for form, reference in random_forms(np.random.default_rng(17)):
            for iters in (1, 150, 3000):
                trace, frozen_trace = [], []
                x = solve_normalized_quadratic(form, reference, iters=iters, trace=trace)
                frozen = reference_pgd_solve(form, reference, iters=iters,
                                             trace=frozen_trace)
                assert np.array_equal(x, frozen), (form.dim, iters)
                assert trace == frozen_trace, (form.dim, iters)
                assert isinstance(form.entries, np.ndarray) == (form.dim < 512)

    def test_taxi_and_learner_forms_match_the_frozen_loop(self, taxi_cell, singlepath_policies):
        mdp, target, behaviors, data = taxi_cell
        cases = [(assemble_state_quadratic(data, target, behaviors, KernelSpec.state_delta(),
                                           2000), empirical_state_distribution(data, 2000).probs)]
        sp_mdp, b1, b2, sp_target = singlepath_policies
        sp_data = population_dataset(sp_mdp, [b1, b2])
        cases.append((assemble_state_quadratic(sp_data, sp_target, [b1, b2],
                                               KernelSpec.state_delta(), 5),
                      empirical_state_distribution(sp_data, 5).probs))
        for form, reference in cases:
            trace, frozen_trace = [], []
            x = solve_normalized_quadratic(form, reference, iters=2000, trace=trace)
            frozen = reference_pgd_solve(form, reference, iters=2000, trace=frozen_trace)
            assert np.array_equal(x, frozen) and trace == frozen_trace


class TestSolveProblems:
    """Forms stored as CSR are solved on a pool capped at their number,
    dense ones in the calling thread; the solutions do not depend on the
    thread count."""

    def test_threads_do_not_change_the_solutions(self, monkeypatch):
        forms = random_forms(np.random.default_rng(18))
        problems = [corrections.CorrectionProblem(form, reference, lambda x: x)
                    for form, reference in forms]
        expected = [reference_pgd_solve(form, reference, iters=300)
                    for form, reference in forms]
        pools, names = [], []
        solve = corrections.solve_normalized_quadratic

        def spy(form, reference, iters):  # the solver takes iters by keyword
            names.append((form.dim, threading.current_thread().name))
            return solve(form, reference, iters=iters)

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(corrections, "solve_normalized_quadratic", spy)
        monkeypatch.setattr(corrections, "ThreadPoolExecutor", Pool)
        for threads, made in ((1, []), (2, [2]), (8, [2])):
            pools.clear()
            names.clear()
            solved = corrections.solve_problems(problems, 300, threads)
            assert pools == made
            assert all(np.array_equal(x, e) and seconds >= 0
                       for (x, seconds), e in zip(solved, expected))
            on_main = sorted(dim for dim, name in names if name == "MainThread")
            assert on_main == ([2, 5, 16, 40, 600, 2000] if threads == 1 else [2, 5, 16, 40])

    def test_no_pool_without_csr_forms(self, monkeypatch):
        monkeypatch.setattr(corrections, "ThreadPoolExecutor", None)
        problem = corrections.CorrectionProblem(QuadraticForm(np.eye(3), 3),
                                                np.full(3, 1 / 3), lambda x: x)
        [(x, _)] = corrections.solve_problems([problem], 10, threads=4)
        np.testing.assert_array_equal(x, np.ones(3))


@pytest.fixture(scope="module")
def singlepath_policies():
    mdp = build_singlepath()
    b1 = TabularPolicy(np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5],
                                 [0.7, 0.3], [0.4, 0.6]]))
    b2 = TabularPolicy(np.array([[0.3, 0.7], [0.8, 0.2], [0.6, 0.4],
                                 [0.1, 0.9], [0.9, 0.1]]))
    target = TabularPolicy(np.array([[0.8, 0.2], [0.4, 0.6], [0.7, 0.3],
                                     [0.5, 0.5], [0.6, 0.4]]))
    return mdp, b1, b2, target


class TestLearnBch:
    def test_on_policy_correction_is_one(self, singlepath_policies):
        mdp, behavior, _, _ = singlepath_policies
        data = TransitionDataset.concatenate(
            sample_trajectories(stationary_start(mdp, behavior),
                                [SampleGroup(behavior, 100, 0)], 1000))
        omega = learn_bch(data, behavior, behavior)
        visits = np.bincount(data.s, minlength=5)
        assert np.abs(omega.values[visits >= 200] - 1.0).max() <= 0.05

    def test_population_quadratic_recovers_true_ratio(self):
        rng = np.random.default_rng(16)
        for trial in range(4):
            mdp = random_mdp(rng, 4, 3)
            behavior = random_policy(rng, 4, 3)
            target = random_policy(rng, 4, 3)
            data = population_dataset(mdp, behavior)
            omega = learn_bch(data, target, behavior)
            truth = (stationary_distribution(mdp, target).probs
                     / stationary_distribution(mdp, behavior).probs)
            assert np.abs(omega.values - truth).max() <= 1e-3

    @settings(max_examples=25, deadline=None)
    @given(num_states=st.integers(2, 4), num_actions=st.integers(2, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_population_data_recovers_the_exact_ratio(self, num_states, num_actions, seed):
        # 300 seeds of this setup gave a worst L-inf error of 3.7e-7
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, num_states, num_actions)
        behavior = random_soft_policy(rng, num_states, num_actions)
        target = random_soft_policy(rng, num_states, num_actions)
        omega = learn_bch(population_dataset(mdp, behavior), target, behavior)
        truth = (stationary_distribution(mdp, target).probs
                 / stationary_distribution(mdp, behavior).probs)
        np.testing.assert_allclose(omega.values, truth, rtol=0, atol=1e-5)

    def test_population_objective_vanishes_at_true_ratio(self):
        rng = np.random.default_rng(17)
        for num_states in (3, 4, 5):
            mdp = random_mdp(rng, num_states, 2)
            behavior = random_policy(rng, num_states, 2)
            target = random_policy(rng, num_states, 2)
            data = population_dataset(mdp, behavior)
            qf = assemble_state_quadratic(data, target, behavior,
                                          KernelSpec.state_delta(), num_states)
            truth = (stationary_distribution(mdp, target).probs
                     / stationary_distribution(mdp, behavior).probs)
            assert qf.value(truth) <= 1e-8

    def test_normalization_and_nonnegativity(self, singlepath_policies):
        mdp, behavior, _, target = singlepath_policies
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 20, 1)], 50))
        omega = learn_bch(data, target, behavior)
        assert np.all(omega.values >= 0)
        assert omega.reference_dist.probs @ omega.values == pytest.approx(1.0, abs=1e-6)


class TestLearnBchPooled:
    """learn_bch with a list of per-label behaviors as the denominator."""

    def test_single_label_bit_identical_to_plain(self, singlepath_policies):
        mdp, behavior, _, target = singlepath_policies
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 30, 2)], 60))
        plain = learn_bch(data, target, behavior)
        pooled = learn_bch(data, target, [behavior])
        assert np.array_equal(plain.values, pooled.values)

    def test_identical_behaviors_match_plain(self, singlepath_policies):
        mdp, behavior, _, target = singlepath_policies
        data = TransitionDataset.concatenate(sample_trajectories(
            mdp, [SampleGroup(behavior, 15, 3, 0), SampleGroup(behavior, 15, 4, 1)], 60))
        pooled = learn_bch(data, target, [behavior, behavior])
        plain = learn_bch(data, target, behavior)
        assert np.array_equal(pooled.values, plain.values)

    def test_missing_labels_raise(self, singlepath_policies):
        mdp, behavior, _, target = singlepath_policies
        data = TransitionDataset(s=[0, 1], a=[0, 1], sp=[1, 1], r=[1.0, -1.0])
        from empbench import MissingLabel
        with pytest.raises(MissingLabel):
            learn_bch(data, target, [behavior])

    def test_two_behavior_population_objective_is_optimal(self, singlepath_policies):
        # the per-label-ratio objective has its own fixed point; verify the
        # solver drives the population objective to (numerical) zero rather
        # than asserting a closed-form target
        mdp, b1, b2, target = singlepath_policies
        data = population_dataset(mdp, [b1, b2], weights=[0.5, 0.5])
        omega = learn_bch(data, target, [b1, b2], solver=SolverParams(iters=60000))
        stacked = np.stack([b1.probs, b2.probs])
        rho = target.probs[data.s, data.a] / stacked[data.labels, data.s, data.a]
        # independent objective evaluation on the returned correction
        delta = omega.values[data.s] * rho - omega.values[data.sp]
        total = 0.0
        for t in np.unique(data.sp):
            group = data.sp == t
            total += float((data.weights[group] * delta[group]).sum()) ** 2
        assert total / data.weights.sum() ** 2 <= 1e-8


class TestLearnEmp:
    def test_on_policy_correction_is_one(self, singlepath_policies):
        mdp, behavior, _, _ = singlepath_policies
        data = TransitionDataset.concatenate(
            sample_trajectories(stationary_start(mdp, behavior),
                                [SampleGroup(behavior, 100, 5)], 1000))
        omega = learn_emp(data, behavior)
        visits = np.bincount(data.s, minlength=5)
        assert np.abs(omega.values[visits >= 200] - 1.0).max() <= 0.05

    def test_pooled_two_behaviors_recovers_target_distribution(self, singlepath_policies):
        mdp, b1, b2, target = singlepath_policies
        parts = sample_trajectories(stationary_start(mdp, b1),
                                    [SampleGroup(b1, 50, 6, 0)], 1000)
        parts += sample_trajectories(stationary_start(mdp, b2), [SampleGroup(b2, 50, 7, 1)], 1000)
        data = TransitionDataset.concatenate(parts)
        omega = learn_emp(data, target)
        d_target = stationary_distribution(mdp, target)
        assert tv_distance(omega.implied_distribution(), d_target) <= 0.05


class TestLearnSadl:
    def test_on_policy_correction_inverts_behavior(self, singlepath_policies):
        mdp, behavior, _, _ = singlepath_policies
        data = TransitionDataset.concatenate(
            sample_trajectories(stationary_start(mdp, behavior),
                                [SampleGroup(behavior, 100, 8)], 1000))
        u = learn_sadl(data, behavior)
        product = u.values * behavior.probs
        visits = np.zeros((5, 2))
        np.add.at(visits, (data.s, data.a), 1)
        assert np.abs(product[visits >= 200] - 1.0).max() <= 0.1

    def test_population_quadratic_recovers_state_action_ratio(self):
        # softened policies keep the true state-action ratio bounded, as in
        # every experiment this library targets
        rng = np.random.default_rng(18)
        for trial in range(4):
            mdp = random_mdp(rng, 3, 2)
            behavior = random_soft_policy(rng, 3, 2)
            target = random_soft_policy(rng, 3, 2)
            data = population_dataset(mdp, behavior)
            u = learn_sadl(data, target, solver=SolverParams(iters=60000))
            d_pi = stationary_distribution(mdp, target).probs
            d_b = stationary_distribution(mdp, behavior).probs
            truth = d_pi[:, None] / (d_b[:, None] * behavior.probs)
            assert np.abs(u.values - truth).max() <= 1e-2

    def test_invariants(self, singlepath_policies):
        mdp, behavior, _, target = singlepath_policies
        data = TransitionDataset.concatenate(
            sample_trajectories(mdp, [SampleGroup(behavior, 30, 9)], 100))
        u = learn_sadl(data, target)
        assert np.all(u.values >= 0)
        assert np.sum(u.reference * u.values) == pytest.approx(1.0, abs=1e-6)


class TestCorrectionVector:
    def test_normalization_validated(self):
        ref = empirical_state_distribution(
            TransitionDataset(s=[0, 1], a=[0, 0], sp=[1, 0], r=[0.0, 0.0]), 2)
        with pytest.raises(ValueError):
            CorrectionVector(np.array([5.0, 5.0]), ref)

    def test_implied_distribution_renormalizes(self):
        ref = empirical_state_distribution(
            TransitionDataset(s=[0, 0, 0, 1], a=[0] * 4, sp=[1] * 4, r=[0.0] * 4), 2)
        omega = CorrectionVector(np.array([1.0, 1.0]), ref)
        dist = omega.implied_distribution()
        np.testing.assert_allclose(dist.probs, [0.75, 0.25])
