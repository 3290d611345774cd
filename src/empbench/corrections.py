"""Stationary distribution correction learners.

The learners here recover the ratio between the target policy's stationary
state (or state-action) distribution and the one underlying the logged
data.  Each learner is a min-max problem whose inner maximization over a
unit ball of a reproducing-kernel space has a closed form, turning the
whole thing into the minimization of a positive semidefinite quadratic
form over the correction's index set, subject to nonnegativity and a
normalization constraint fixing the correction's scale.

Variants differ only in the action-probability denominator used for the
per-record importance ratio:

* exact behavior policy (policy aware),
* maximum-likelihood estimate of the pooled mixture (estimated mixture),
* exact per-record behavior via labels (policy aware, pooled),
* no denominator at all for the state-action correction, which absorbs the
  behavior policy into the learned quantity (fully policy agnostic).

The first three are one learner, :func:`learn_bch`, given that denominator.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sparse

from .mdp import (StateDistribution, TabularPolicy, TransitionDataset, check_probabilities,
                  matvec_into)
from .policies import empirical_state_distribution, estimate_policy_mle, state_action_counts

RATIO_FLOOR = 1e-12

# forms of at least this many variables are assembled as CSR, smaller ones dense
SPARSE_MIN_DIM = 512

KERNEL_KINDS = ("state-delta", "state-action-delta", "gaussian-on-embedding")


class DegenerateReference(RuntimeError):
    """The normalization constraint cannot be satisfied: the reference puts
    zero mass on every index where a positive value is feasible."""


@dataclass(frozen=True)
class KernelSpec:
    """Positive semidefinite kernel choice for the quadratic-form assembly.

    ``state-delta`` and ``state-action-delta`` are Kronecker deltas on the
    respective index sets; they are universal on finite spaces and admit
    grouped O(N) assembly.  ``gaussian-on-embedding`` is
    exp(-||e(x) - e(y)||^2 / (2 h^2)) over one-hot state embeddings (actions
    appended one-hot for state-action use), which is a delta kernel on a
    lifted index set (see :meth:`lift`): every form is one factor's product.
    """

    kind: str = "state-delta"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian-on-embedding":
            if self.bandwidth is None or not 0 < self.bandwidth < np.inf:
                raise ValueError("gaussian kernel requires a positive finite bandwidth")
        elif self.bandwidth is not None:
            raise ValueError(f"kernel kind {self.kind!r} takes no bandwidth")

    @classmethod
    def state_delta(cls) -> "KernelSpec":
        return cls("state-delta")

    @classmethod
    def state_action_delta(cls) -> "KernelSpec":
        return cls("state-action-delta")

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls("gaussian-on-embedding", bandwidth)

    def lift(self, tests, others, vals, sizes):
        """Factor entries (test index, other index, value), lifted so that the
        plain product ``left @ left.T`` is the kernel's form, and the number of
        test indices; a test index has the parts ``sizes``, (S,) or (S, A).
        Delta kernels return their inputs.  The gaussian kernel of a one-hot
        part is (1 - q)[x = y] + q, q = exp(-1 / h^2): each entry moves to its
        own index with weight sqrt(1 - q) and to the shared index ``size`` with
        weight sqrt(q); a pair's lifted index is s_l * (A + 1) + a_l."""
        if self.kind != "gaussian-on-embedding":
            return tests, others, vals, math.prod(sizes)
        q = math.exp(-1.0 / self.bandwidth**2)
        own, shared = math.sqrt(1.0 - q), math.sqrt(q)
        lifted, weighted = np.zeros((1, len(tests)), dtype=np.int64), vals[None, :]
        for part, size in zip(np.unravel_index(tests, sizes), sizes):
            lifted = np.concatenate([lifted * (size + 1) + part, lifted * (size + 1) + size])
            weighted = np.concatenate([own * weighted, shared * weighted])
        return (lifted.ravel(), np.tile(others, len(lifted)), weighted.ravel(),
                math.prod(size + 1 for size in sizes))


@dataclass
class QuadraticForm:
    """Symmetric PSD form representing an objective x -> scale * x' A x.

    ``entries`` holds A as the solver multiplies by it, stored as given: an
    array, or CSR with sorted indices (a copy if unsorted: CSR matvecs add
    in stored order); :attr:`matrix` is dense.  ``scale`` keeps the factor
    1 / W^2 (W the total weight) out of the entries: with unit weights A is
    integer-valued, so exact cancellations (for example a residual that is
    identically zero on on-policy data) survive in floating point.
    """

    entries: np.ndarray | sparse.csr_matrix
    dim: int
    scale: float = 1.0

    def __post_init__(self):
        if sparse.issparse(self.entries):
            entries = self.entries.tocsr().astype(np.float64, copy=False)
            self.entries = entries if entries.has_sorted_indices else entries.sorted_indices()
            values = entries.data
        else:
            self.entries = values = np.asarray(self.entries, dtype=np.float64)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be ({self.dim}, {self.dim})")
        if not np.isfinite(values).all():
            raise ValueError("quadratic form entries must be finite")

    @property
    def matrix(self) -> np.ndarray:
        """A as a dense array; built on every access when the entries are
        sparse."""
        if sparse.issparse(self.entries):
            return self.entries.toarray()
        return self.entries

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return self.scale * float(x @ (self.entries @ x))


@dataclass
class SolverParams:
    """Projected-gradient settings: the iteration budget.  The solve has no
    other input, so equal problems give equal corrections."""

    iters: int = 20000


@dataclass
class CorrectionVector:
    """Learned state ratio omega(s) with the reference distribution that
    fixes its scale via sum_s reference(s) omega(s) = 1."""

    values: np.ndarray
    reference_dist: StateDistribution

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        check_probabilities(self.values, "correction values", atol=None)
        check_probabilities(self.reference_dist.probs * self.values,
                            "normalization E_ref[omega]", atol=1e-6)

    def implied_distribution(self) -> StateDistribution:
        """The state distribution omega * reference, renormalized."""
        mass = self.values * self.reference_dist.probs
        return StateDistribution(mass / mass.sum())


@dataclass
class StateActionCorrection:
    """Learned state-action ratio u(s, a), normalized so that the empirical
    average of u(s, a) pi(a|s) over the data equals 1."""

    values: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.reference = np.asarray(self.reference, dtype=np.float64)
        if self.values.shape != self.reference.shape or self.values.ndim != 2:
            raise ValueError("values and reference must both be (S, A)")
        check_probabilities(self.values, "correction values", atol=None)
        check_probabilities(self.reference * self.values, "normalization E_ref[u]", atol=1e-6)


def importance_ratios(data: TransitionDataset, target: TabularPolicy,
                      denom_policy) -> np.ndarray:
    """Per-record ratios pi(a|s) / denom(a|s), the denominator floored at
    1e-12.

    ``denom_policy`` is one policy for every record, or a list of per-label
    policies indexed by the records' behavior labels.
    """
    if isinstance(denom_policy, TabularPolicy):
        denom = denom_policy.probs[data.s, data.a]
    else:
        labels = data.require_labels(len(denom_policy))
        denom = np.stack([p.probs for p in denom_policy])[labels, data.s, data.a]
    return target.probs[data.s, data.a] / np.maximum(denom, RATIO_FLOOR)


def _factor(vals, rows, cols, shape):
    """The residual factor: the matrix of ``shape`` holding the sum of ``vals``
    at each (row, col).  A square (delta-kernel) factor of at least
    ``SPARSE_MIN_DIM`` variables is CSR, through scipy's COO to CSR
    conversion; any other is dense, each entry's terms added in input order by
    ``np.bincount``: a lifted factor's shared index makes its form dense."""
    if shape[0] == shape[1] >= SPARSE_MIN_DIM:
        return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    return np.bincount(rows * shape[1] + cols, weights=vals,
                       minlength=math.prod(shape)).reshape(shape)


def _kernel_quadratic(left, w_total: float) -> QuadraticForm:
    """The form left left' / W^2 of the factor ``left`` (a row per variable),
    dense or CSR: one product, exactly symmetric as BLAS ``syrk`` and SpGEMM."""
    return QuadraticForm(left @ left.T, left.shape[0], scale=1.0 / w_total**2)


def assemble_state_quadratic(data: TransitionDataset, target: TabularPolicy,
                             denom_policy, kernel: KernelSpec,
                             num_states: int) -> QuadraticForm:
    """Quadratic form A with omega' A omega equal to the kernelized squared
    residual of the stationary balance equation under importance weighting:

    (1/W^2) sum_{i,j} w_i w_j (rho_i omega(s_i) - omega(s'_i))
                              (rho_j omega(s_j) - omega(s'_j)) k(s'_i, s'_j)

    where rho_i = pi(a_i|s_i) / denom(a_i|s_i) (see :func:`importance_ratios`)
    and W = sum_i w_i.
    """
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    if kernel.kind == "state-action-delta":
        raise ValueError(f"kernel kind {kernel.kind!r} is not a state kernel")
    rho = importance_ratios(data, target, denom_policy)
    # Each record contributes the linear-in-omega residual
    # rho_i omega(s_i) - omega(s'_i), paired through the kernel at the next
    # states.  Rows of C group records by (lifted) next state, so
    # A = C' C / W^2 never materializes an N x N Gram matrix.
    rows = np.concatenate([data.sp, data.sp])
    cols = np.concatenate([data.s, data.sp])
    vals = np.concatenate([data.weights * rho, -data.weights])
    rows, cols, vals, width = kernel.lift(rows, cols, vals, (num_states,))
    c = _factor(vals, rows, cols, (width, num_states))
    return _kernel_quadratic(c.T, float(data.weights.sum()))


def assemble_state_action_quadratic(data: TransitionDataset, target: TabularPolicy,
                                    action_weighting, kernel: KernelSpec,
                                    num_states: int, num_actions: int) -> QuadraticForm:
    """Quadratic form over (s, a) pairs (indexed s * A + a) for the
    state-action correction u.

    Record i contributes the linear functional
    u(s_i, a_i) [nu(a_i) f(s_i, a_i) - pi(a_i|s_i) sum_a' nu(a') f(s'_i, a')]
    on test functions f; pairing two records through the kernel expands into
    four kernel terms, with the expectation over a' taken as an explicit sum
    over actions.  ``action_weighting`` nu is any probability vector over
    actions.
    """
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    if kernel.kind == "state-delta":
        raise ValueError("state-action assembly needs a state-action kernel")
    nu = np.asarray(action_weighting, dtype=np.float64)
    if nu.shape != (num_actions,):
        raise ValueError("action_weighting must be a vector over actions")
    check_probabilities(nu, "action_weighting", atol=1e-9)
    dim = num_states * num_actions
    pair = data.s * num_actions + data.a
    pi_sa = target.probs[data.s, data.a]
    # row p of M accumulates w_i times record i's functional coefficients
    rows = np.concatenate([pair, np.repeat(pair, num_actions)])
    cols = np.concatenate([pair,
                           (data.sp[:, None] * num_actions
                            + np.arange(num_actions)[None, :]).ravel()])
    vals = np.concatenate([data.weights * nu[data.a],
                           (-(data.weights * pi_sa)[:, None] * nu[None, :]).ravel()])
    cols, rows, vals, width = kernel.lift(cols, rows, vals, (num_states, num_actions))
    m = _factor(vals, rows, cols, (dim, width))
    return _kernel_quadratic(m, float(data.weights.sum()))


def _lambda_max(matrix, dim: int) -> float:
    product = matvec_into(matrix)
    v = np.random.default_rng(0).standard_normal(dim)
    v /= math.sqrt(v @ v)
    w = np.empty(dim)
    for _ in range(200):
        product(v, w)
        norm = math.sqrt(w @ w)
        if norm <= 1e-300:
            return 0.0
        np.divide(w, norm, out=v)
    return float(v @ product(v, w))


def solve_normalized_quadratic(A: QuadraticForm, reference, iters: int = 20000,
                               trace: list | None = None) -> np.ndarray:
    """Approximately minimize x' A x subject to x >= 0 and reference . x = 1.

    Projected gradient descent from x = 1: gradient step, clip at zero,
    rescale to restore the linear constraint.  The gradient is taken of the
    rescaled objective x -> f(x / reference.x), i.e. 2 A x - 2 f(x) ref at a
    feasible point; the plain gradient's radial component would be undone by
    the rescale and leave spurious fixed points wherever A x is parallel
    to x.  The step starts at 0.5 / lambda_max(A), with lambda_max
    estimated by 200 power iterations from one fixed pseudo-random start
    (A maps the ones vector to zero on on-policy data); iterates
    that would increase the objective are rejected and the step halved,
    accepted steps let it grow again (up to 50x the initial step, which
    speeds up badly conditioned problems without weakening the safeguard),
    so the objective is non-increasing across accepted iterates.  Stops
    after ``iters`` iterations or when the objective decrease over 100
    iterations falls below 1e-12.  Pass a list as ``trace`` to record
    accepted objective values.

    The loop allocates no arrays: every vector lives in a buffer made
    before it, and a rejected step keeps the gradient, since x, A x and f(x)
    are unchanged.  Each buffered operation rounds as the expression it
    replaces, so the iterates are those of the plain expressions.
    """
    reference = np.asarray(reference, dtype=np.float64)
    check_probabilities(reference, "reference", atol=None)
    if reference.sum() <= 0:
        raise DegenerateReference("reference has no mass anywhere")
    matrix, scale, dim = A.entries, A.scale, A.dim
    x = np.ones(dim)
    x /= reference @ x
    lam = scale * _lambda_max(matrix, dim)
    if lam <= 1e-300:
        return x
    product = matvec_into(matrix)
    step = 0.5 / lam
    step_cap = 50.0 * step
    y = product(x, np.empty(dim))
    f = scale * float(x @ y)
    if trace is not None:
        trace.append(f)
    gradient, shift, cand, y_cand = (np.empty(dim) for _ in range(4))
    moved = True  # x has changed since the gradient was taken
    f_checkpoint = f
    for it in range(1, iters + 1):
        if moved:  # gradient = 2 scale y - 2 f reference
            np.multiply(y, 2.0 * scale, out=gradient)
            np.subtract(gradient, np.multiply(reference, 2.0 * f, out=shift), out=gradient)
        np.multiply(gradient, step, out=cand)  # cand = max(x - step gradient, 0)
        np.subtract(x, cand, out=cand)
        np.maximum(cand, 0.0, out=cand)
        total = reference @ cand
        if total <= 0:
            raise DegenerateReference(
                "all mass of the reference fell on clipped coordinates")
        cand /= total
        product(cand, y_cand)
        f_cand = scale * float(cand @ y_cand)
        moved = f_cand <= f
        if moved:
            x, cand = cand, x
            y, y_cand = y_cand, y
            f = f_cand
            step = min(1.1 * step, step_cap)
            if trace is not None:
                trace.append(f)
        else:
            step *= 0.5
        if it % 100 == 0:
            if f_checkpoint - f < 1e-12:
                break
            f_checkpoint = f
    return x


@dataclass(frozen=True)
class CorrectionProblem:
    """One quadratic program a learner poses: minimize ``form`` over x >= 0
    with ``reference`` . x = 1.  ``correction`` turns the solution into the
    learned correction."""

    form: QuadraticForm
    reference: np.ndarray
    correction: Callable[[np.ndarray], object]


def solve_problems(problems, iters: int, threads: int = 1) -> list:
    """(solution, seconds) for each problem, in order, each solved by a call
    to :func:`solve_normalized_quadratic` through this module's global name.

    Forms stored as CSR are solved on a pool of ``threads`` threads (capped
    at their number), made here and shut down before returning: their
    matvec releases the GIL.  Dense forms are solved in the calling thread,
    since their solves spend most of their time holding it.  The solves are
    independent, so the solutions do not depend on ``threads``, and an
    error is raised for the first failing problem in order.
    """
    def timed(problem):
        start = time.perf_counter()
        x = solve_normalized_quadratic(problem.form, problem.reference, iters=iters)
        return x, time.perf_counter() - start

    csr = [i for i, p in enumerate(problems) if sparse.issparse(p.form.entries)]
    threads = min(threads, len(csr))
    if threads <= 1:
        return [timed(p) for p in problems]
    pool = ThreadPoolExecutor(threads, thread_name_prefix="empbench-solve")
    try:
        futures = {i: pool.submit(timed, problems[i]) for i in csr}
        return [futures[i].result() if i in futures else timed(p)
                for i, p in enumerate(problems)]
    finally:
        pool.shutdown(cancel_futures=True)


def assemble_bch(data: TransitionDataset, target: TabularPolicy, denom_policy,
                 kernel: KernelSpec | None = None) -> CorrectionProblem:
    """The problem :func:`learn_bch` solves: the state form of
    :func:`assemble_state_quadratic`, normalized against the data's
    empirical state distribution."""
    kernel = kernel or KernelSpec.state_delta()
    qf = assemble_state_quadratic(data, target, denom_policy, kernel, target.num_states)
    reference = empirical_state_distribution(data, target.num_states)
    return CorrectionProblem(qf, reference.probs, lambda x: CorrectionVector(x, reference))


def learn_bch(data: TransitionDataset, target: TabularPolicy, denom_policy,
              kernel: KernelSpec | None = None,
              solver: SolverParams | None = None) -> CorrectionVector:
    """State correction learner with ``denom_policy`` in the importance-ratio
    denominator: the exact behavior policy (policy aware), a list of exact
    per-label behaviors for pooled labeled data, or an estimate of the
    behavior (see :func:`learn_emp`)."""
    solver = solver or SolverParams()
    problem = assemble_bch(data, target, denom_policy, kernel)
    [(x, _)] = solve_problems([problem], solver.iters)
    return problem.correction(x)


def learn_emp(data: TransitionDataset, target: TabularPolicy,
              kernel: KernelSpec | None = None,
              solver: SolverParams | None = None) -> CorrectionVector:
    """:func:`learn_bch` with the denominator policy estimated from the data
    by maximum likelihood.

    Works unchanged for data pooled from several unknown behavior policies:
    the count-frequency estimate converges to the stationary-weighted
    mixture of them, which is exactly the denominator the pooled balance
    equation calls for.
    """
    num_states, num_actions = target.probs.shape
    pi_hat = estimate_policy_mle(data, num_states, num_actions)
    return learn_bch(data, target, pi_hat, kernel, solver)


def assemble_sadl(data: TransitionDataset, target: TabularPolicy,
                  kernel: KernelSpec | None = None) -> CorrectionProblem:
    """The problem :func:`learn_sadl` solves, over (s, a) pairs indexed
    s * A + a: the state-action form with uniform action weights, normalized
    against the data's (s, a) frequencies times pi(a|s), rescaled to sum
    to 1."""
    num_states, num_actions = target.probs.shape
    kernel = kernel or KernelSpec.state_action_delta()
    qf = assemble_state_action_quadratic(data, target, np.full(num_actions, 1.0 / num_actions),
                                         kernel, num_states, num_actions)
    freq = state_action_counts(data, num_states, num_actions)
    freq /= freq.sum()
    reference = freq * target.probs
    scale = reference.sum()
    return CorrectionProblem(
        qf, reference.ravel() / scale,
        lambda x: StateActionCorrection((x / scale).reshape(num_states, num_actions),
                                        reference))


def learn_sadl(data: TransitionDataset, target: TabularPolicy,
               kernel: KernelSpec | None = None,
               solver: SolverParams | None = None) -> StateActionCorrection:
    """State-action correction learner; fully policy agnostic.

    The learned u(s, a) absorbs the behavior policy, so no behavior policy
    (exact or estimated) appears anywhere.  Normalized so the weighted data
    average of u(s_i, a_i) pi(a_i|s_i) equals 1, which makes the matching
    reward estimator self-normalizing.  Test functions weight actions uniformly.
    """
    solver = solver or SolverParams()
    problem = assemble_sadl(data, target, kernel)
    [(x, _)] = solve_problems([problem], solver.iters)
    return problem.correction(x)
