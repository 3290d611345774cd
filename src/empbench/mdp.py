"""Tabular MDP primitives: domain types, exact oracles, and simulation.

States are 0..S-1, actions 0..A-1.  Transitions are stored as one sparse
(S*A, S) matrix whose row s * A + a is the next-state distribution
T[s, a, :], rewards are (S, A) tables, and every stochastic operation takes
an explicit integer seed so experiments are bit-reproducible.
"""

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, pairwise
from numbers import Integral
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
from scipy.sparse import _sparsetools  # the kernel behind CSR @ vector

PROB_ATOL = 1e-12


class NonErgodicChain(RuntimeError):
    """Power iteration did not reach the residual tolerance.

    Signals that the policy-induced chain has no unique stationary
    distribution reachable by iteration (periodic or reducible chain).
    """


class MissingLabel(ValueError):
    """An operation that needs behavior-policy labels got unlabeled records."""


def check_probabilities(values, name: str, axis=None, atol: float | None = PROB_ATOL) -> None:
    """Raise ValueError naming ``name`` unless every (stored) entry of ``values``
    is finite and nonnegative and, unless ``atol`` is None, every sum along
    ``axis`` is within ``atol`` of 1.  Each comparison is false for NaN."""
    entries = values.data if sparse.issparse(values) else values
    if entries.size and not 0 <= entries.min() <= entries.max() < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative")
    if atol is not None and not (abs(values.sum(axis=axis) - 1.0) <= atol).all():
        raise ValueError(f"{name} must sum to 1 (within {atol:g})")


@dataclass
class TabularMDP:
    """Finite MDP with transitions T[s, a, s'], rewards r[s, a] and an
    initial state distribution.

    ``transition_rows`` is given either as a dense (S, A, S) array or as a
    sparse (S*A, S) matrix, and is stored as a CSR matrix in canonical form
    (sorted indices, no duplicates, no explicit zeros) whose row s * A + a
    is T[s, a, :].
    """

    transition_rows: sparse.csr_matrix
    reward: np.ndarray
    initial_dist: np.ndarray

    def __post_init__(self):
        self.reward = np.asarray(self.reward, dtype=np.float64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        rows = self.transition_rows
        if sparse.issparse(rows):
            rows = sparse.csr_matrix(rows, dtype=np.float64, copy=True)
        else:
            rows = np.asarray(rows, dtype=np.float64)
            if rows.ndim != 3 or rows.shape[0] != rows.shape[2]:
                raise ValueError(f"transition must be (S, A, S), got {rows.shape}")
            rows = sparse.csr_matrix(rows.reshape(-1, rows.shape[2]))
        rows.sum_duplicates()
        rows.eliminate_zeros()
        self.transition_rows = rows
        s = rows.shape[1]
        if s == 0 or rows.shape[0] % s:
            raise ValueError(f"transition rows must be (S*A, S), got {rows.shape}")
        a = rows.shape[0] // s
        if self.reward.shape != (s, a):
            raise ValueError(f"reward must be (S, A) = ({s}, {a}), got {self.reward.shape}")
        if not np.isfinite(self.reward).all():
            raise ValueError("reward must be finite")
        if self.initial_dist.shape != (s,):
            raise ValueError(f"initial_dist must have length {s}")
        check_probabilities(rows, "every transition row T[s, a, :]", axis=1)
        check_probabilities(self.initial_dist, "initial_dist")

    @property
    def num_states(self) -> int:
        return self.transition_rows.shape[1]

    @property
    def num_actions(self) -> int:
        return self.transition_rows.shape[0] // self.num_states

    @property
    def transition(self) -> np.ndarray:
        """Dense (S, A, S) copy of the transitions, built on every access."""
        return self.transition_rows.toarray().reshape(
            self.num_states, self.num_actions, self.num_states)

    @cached_property
    def transition_cdf(self):
        """:func:`support_cdf_table` of the transition rows, built on first
        use; the transitions must not change afterwards."""
        return support_cdf_table(self.transition_rows)


@dataclass
class TabularPolicy:
    """Row-stochastic action probability table pi[s, a]."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise ValueError("policy table must be 2-D (S, A)")
        check_probabilities(self.probs, "every policy row", axis=1)

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]


def uniform_policy(num_states: int, num_actions: int) -> TabularPolicy:
    return TabularPolicy(np.full((num_states, num_actions), 1.0 / num_actions))


def greedy_policy(policy: TabularPolicy) -> TabularPolicy:
    """Deterministic policy picking each row's most probable action
    (ties broken by lowest action index)."""
    probs = np.zeros_like(policy.probs)
    probs[np.arange(policy.num_states), np.argmax(policy.probs, axis=1)] = 1.0
    return TabularPolicy(probs)


def soften_policy(policy: TabularPolicy, epsilon: float) -> TabularPolicy:
    """Mix a policy with the uniform policy: (1 - eps) * pi + eps * uniform."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    num_actions = policy.num_actions
    return TabularPolicy((1.0 - epsilon) * policy.probs + epsilon / num_actions)


@dataclass
class StateDistribution:
    """Probability vector over states."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError("state distribution must be 1-D")
        check_probabilities(self.probs, "state distribution", atol=1e-9)


@dataclass
class TransitionDataset:
    """Flat collection of logged transitions.

    Columns: state s, action a, next state sp, reward r, an optional
    behavior-policy label per record, a nonnegative sample weight
    (default 1), and an optional index of the trajectory each record came
    from (filled by :func:`sample_trajectories`).  Weighted records let
    population-level expectations be represented exactly, see
    :func:`population_dataset`.
    """

    s: np.ndarray
    a: np.ndarray
    sp: np.ndarray
    r: np.ndarray
    labels: np.ndarray | None = None
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    trajectory_ids: np.ndarray | None = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.int64)
        self.a = np.asarray(self.a, dtype=np.int64)
        self.sp = np.asarray(self.sp, dtype=np.int64)
        self.r = np.asarray(self.r, dtype=np.float64)
        n = len(self.s)
        if not (len(self.a) == len(self.sp) == len(self.r) == n):
            raise ValueError("dataset columns must have equal length")
        if not np.isfinite(self.r).all():
            raise ValueError("rewards must be finite")
        if n and min(self.s.min(), self.a.min(), self.sp.min()) < 0:
            raise ValueError("state and action indices must be nonnegative")
        for name in ("labels", "trajectory_ids"):  # optional integer columns
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
                if len(getattr(self, name)) != n:
                    raise ValueError(f"{name} must have one entry per record")
        if n and self.trajectory_ids is not None and self.trajectory_ids.min() < 0:
            raise ValueError("trajectory ids must be nonnegative")
        if self.weights is None:
            self.weights = np.ones(n, dtype=np.float64)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if len(self.weights) != n:
                raise ValueError("weights must have one entry per record")
            check_probabilities(self.weights, "weights", atol=None)

    def __len__(self) -> int:
        return len(self.s)

    def require_labels(self, num_policies: int) -> np.ndarray:
        """The labels, checked to index a list of ``num_policies`` policies."""
        if self.labels is None:
            raise MissingLabel("this operation requires per-record behavior labels")
        if len(self.labels) and not (0 <= self.labels.min() and self.labels.max() < num_policies):
            raise ValueError(f"labels must index the {num_policies} behavior policies")
        return self.labels

    def subset(self, mask: np.ndarray) -> "TransitionDataset":
        columns = (getattr(self, f.name) for f in fields(self))
        return TransitionDataset(*(None if c is None else c[mask] for c in columns))

    @classmethod
    def concatenate(cls, parts) -> "TransitionDataset":
        """The records of ``parts``, one part after another.  Each part's
        trajectory ids (nonnegative, as :func:`sample_trajectories` numbers
        them) are shifted past the largest id of the parts before it, so the
        trajectories of different parts never merge.  An optional column must
        be set in every part or in none; no parts give an empty dataset."""
        parts = list(parts)
        if not parts:
            return cls([], [], [], [])
        columns = {}
        for f in fields(cls):
            values = [getattr(part, f.name) for part in parts]
            if all(v is None for v in values):
                columns[f.name] = None
            elif any(v is None for v in values):
                raise ValueError(f"{f.name} must be set in every part or in none")
            else:
                columns[f.name] = values
        ids = columns["trajectory_ids"]
        if ids is not None:
            offsets = np.cumsum([0] + [part.max() + 1 if len(part) else 0 for part in ids])
            columns["trajectory_ids"] = [part + offset for part, offset in zip(ids, offsets)]
        return cls(**{name: None if values is None else np.concatenate(values)
                      for name, values in columns.items()})


def chain_matrix(mdp: TabularMDP, policy: TabularPolicy) -> sparse.csr_matrix:
    """State-to-state transition matrix M[s, s'] of the policy-induced chain,
    sum_a pi(a|s) T[s, a, s'], as a CSR matrix.  The sparse product adds each
    entry's terms in action order, which gives the same doubles as
    ``einsum("sa,sat->st", ...)`` on the dense tensor."""
    num_states, num_actions = policy.probs.shape
    size = num_states * num_actions
    weights = sparse.csr_matrix(
        (policy.probs.ravel(), np.arange(size), np.arange(0, size + 1, num_actions)),
        shape=(num_states, size))
    return weights @ mdp.transition_rows


# power iterations between two checks that the balance residual still shrinks
_RESIDUAL_WINDOW = 1000
# power iteration stops once the balance residual ||d M - d||_1 is this small
_BALANCE_TOL = 1e-10
# and gives up after this many iterations
_MAX_POWER_ITERS = 10**6


def matvec_into(matrix):
    """The product v, out -> ``out`` = matrix @ v into a preallocated vector,
    rounded as ``matrix @ v`` is: the same BLAS call for a dense array, and
    for CSR the kernel scipy's ``@`` runs, which adds each row's products in
    stored order into a zeroed vector, without the wrapper's per-call cost."""
    if not sparse.issparse(matrix):
        return lambda v, out: np.matmul(matrix, v, out=out)
    rows, cols = matrix.shape

    def product(v, out):
        out.fill(0.0)
        _sparsetools.csr_matvec(rows, cols, matrix.indptr, matrix.indices, matrix.data, v, out)
        return out
    return product


def stationary_distribution(mdp: TabularMDP, policy: TabularPolicy) -> StateDistribution:
    """Stationary distribution of the policy-induced chain by power iteration.

    Starts from the uniform vector and iterates d <- d M, as the sparse
    product M^T d (:func:`matvec_into`, into reused buffers), until the
    balance residual ||d M - d||_1 drops below ``_BALANCE_TOL``.  M is
    stochastic, so the residual never grows; it stays put on a periodic
    chain.  Raises :class:`NonErgodicChain` when the residual has not shrunk
    over ``_RESIDUAL_WINDOW`` iterations, or has not converged within
    ``_MAX_POWER_ITERS`` iterations.
    """
    product = matvec_into(chain_matrix(mdp, policy).T.tocsr())
    d = np.full(mdp.num_states, 1.0 / mdp.num_states)
    d_next, diff = np.empty_like(d), np.empty_like(d)
    checkpoint = np.inf
    for k in range(_MAX_POWER_ITERS):
        product(d, d_next)
        residual = np.abs(np.subtract(d_next, d, out=diff), out=diff).sum()
        if residual <= _BALANCE_TOL:
            return StateDistribution(d / d.sum())
        if k % _RESIDUAL_WINDOW == 0:
            if residual >= checkpoint:
                raise NonErgodicChain(
                    f"balance residual stopped shrinking at {residual:.3g} after {k} "
                    "iterations: the chain is periodic or reducible")
            checkpoint = residual
        d, d_next = d_next, d
    raise NonErgodicChain(
        f"balance residual did not reach {_BALANCE_TOL} within {_MAX_POWER_ITERS} iterations")


def average_reward(mdp: TabularMDP, policy: TabularPolicy,
                   dist: StateDistribution | None = None) -> float:
    """Long-run average reward sum_{s,a} d(s) pi(a|s) r(s,a).

    Pass the policy's stationary distribution as ``dist`` when it is already
    known; otherwise it is computed by :func:`stationary_distribution`.
    """
    if dist is None:
        dist = stationary_distribution(mdp, policy)
    per_state = np.einsum("sa,sa->s", policy.probs, mdp.reward)
    return float(dist.probs @ per_state)


def support_cdf_table(table):
    """Inverse-CDF lookup table over the rows of a nonnegative 2-D table,
    dense or a canonical CSR matrix (as ``TabularMDP.transition_rows``).

    Returns ``(cum, cols, counts)``.  Row i of ``cum`` holds the running sums
    of row i's nonzero entries in column order, padded with +inf; ``cols``
    holds their column indices, padded with the last column index; and
    ``counts`` the number of nonzero entries.  Adding 0.0 is exact, so the
    running sums equal ``np.cumsum(table[i])`` at the nonzero columns, and
    ``cols[i, k]`` with k = #{cum[i] <= u} is the column that the dense
    ``min(searchsorted(cumsum(row), u, "right"), K - 1)`` picks.  A draw at
    or past the row's last sum lands on the padding, which is column K - 1.
    """
    num_rows, num_cols = table.shape
    if sparse.issparse(table):
        counts = np.diff(table.indptr).astype(np.int64)
        rows = np.repeat(np.arange(num_rows), counts)
        entry_cols, entries = table.indices, table.data
    else:  # the nonzero entries row by row, each row's in column order
        flat = np.flatnonzero(table)
        rows, entry_cols = np.divmod(flat, num_cols)
        entries = table.ravel()[flat]
        counts = np.bincount(rows, minlength=num_rows)
    width = int(counts.max()) + 1
    pos = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    cum = np.zeros((num_rows, width))
    cum[rows, pos] = entries
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(width) >= counts[:, None]] = np.inf
    col_table = np.full((num_rows, width), num_cols - 1, dtype=np.int64)
    col_table[rows, pos] = entry_cols
    return cum, col_table, counts


def _draw(cum: np.ndarray, cols: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One inverse-CDF draw per entry of ``rows`` from a
    :func:`support_cdf_table` table, with uniforms ``u``."""
    k = np.add.reduce(cum.take(rows, axis=0) <= u[:, None], axis=1)
    return cols.take(rows * cols.shape[1] + k)


class SampleGroup(NamedTuple):
    """``num_traj`` rollouts of ``policy`` labeled ``label``, drawn from
    ``np.random.default_rng(seed)``."""

    policy: TabularPolicy
    num_traj: int
    seed: int
    label: int = 0


def sample_trajectories(mdp: TabularMDP, groups, horizon: int) -> list[TransitionDataset]:
    """Simulate rollouts of exactly ``horizon`` steps for each of ``groups``
    (:class:`SampleGroup` or equal tuples) and return one dataset per group.

    A group's dataset holds its rollouts one after another, each in step
    order, labeled with the group's label, with trajectory ids 0..n-1; every
    rollout starts from the MDP's initial distribution.  Equal seeds give
    bit-identical output.  A rollout reads one row of 1 + 2 * horizon
    uniforms from its group's generator (initial state, then action and next
    state per step), the group's rows in stream order, all drawn up front.
    Every group's rollouts advance together, one vectorized inverse-CDF draw
    per step over the stacked action tables, so no group affects another.
    """
    groups = [SampleGroup(*group) for group in groups]
    num_states, num_actions = mdp.num_states, mdp.num_actions
    if horizon < 1 or any(group.num_traj < 0 for group in groups):
        raise ValueError("horizon must be >= 1 and num_traj >= 0")
    if any(group.policy.probs.shape != (num_states, num_actions) for group in groups):
        raise ValueError(f"every policy must be ({num_states}, {num_actions})")
    if not groups:
        return []
    counts = [group.num_traj for group in groups]
    bounds = list(pairwise(np.cumsum([0] + counts).tolist()))  # each group's rollouts
    # one row of uniforms per rollout, each group's rows in its stream order
    u = np.empty((sum(counts), 1 + 2 * horizon))
    for group, (lo, hi) in zip(groups, bounds):
        np.random.default_rng(group.seed).random(out=u[lo:hi])
    # group g's action row for state s is row g * S + s
    act_cum, act_cols, _ = support_cdf_table(np.concatenate([g.policy.probs for g in groups]))
    act_rows = np.repeat(np.arange(len(groups)) * num_states, counts)
    next_cum, next_cols, _ = mdp.transition_cdf
    # time-major: column i of paths is rollout i's states, ending with its last next state
    paths = np.empty((horizon + 1, len(u)), dtype=np.int64)
    actions = np.empty((horizon, len(u)), dtype=np.int64)
    init_cdf = np.cumsum(mdp.initial_dist)
    paths[0] = np.minimum(np.searchsorted(init_cdf, u[:, 0], side="right"), num_states - 1)
    for t in range(horizon):
        s = paths[t]
        actions[t] = _draw(act_cum, act_cols, act_rows + s, u[:, 1 + 2 * t])
        paths[t + 1] = _draw(next_cum, next_cols, s * num_actions + actions[t], u[:, 2 + 2 * t])
    states, nexts, actions = paths[:-1].T, paths[1:].T, actions.T
    rewards = mdp.reward[states, actions]
    return [TransitionDataset(states[lo:hi].ravel(), actions[lo:hi].ravel(),
                              nexts[lo:hi].ravel(), rewards[lo:hi].ravel(),
                              np.full((hi - lo) * horizon, group.label),
                              trajectory_ids=np.repeat(np.arange(hi - lo), horizon))
            for group, (lo, hi) in zip(groups, bounds)]


# the valid range of each Q-learning parameter: (test, description)
Q_LEARNING_RANGES = {
    "episodes": (lambda v: isinstance(v, Integral) and v >= 1, ">= 1 and an integer"),
    "epsilon": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "alpha": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "gamma": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
}
STEPS_PER_EPISODE = 100  # the length of one Q-learning episode


def check_q_learning_params(prefix: str = "", **params) -> None:
    """Raise ValueError naming the first parameter outside its
    ``Q_LEARNING_RANGES`` range, as ``prefix + name``."""
    for name, value in params.items():
        in_range, description = Q_LEARNING_RANGES[name]
        if not in_range(value):
            raise ValueError(f"{prefix}{name} must be {description}")


def train_q_learning_policy(mdp: TabularMDP, episodes: int, epsilon: float,
                            alpha: float, gamma: float, seed: int) -> TabularPolicy:
    """Tabular Q-learning followed by epsilon-softening of the greedy policy.

    Exploration during training is epsilon-greedy with the same ``epsilon``
    that softens the returned policy:
    pi(a|s) = (1 - eps) * 1{a = argmax Q(s, .)} + eps / |A|,
    argmax ties broken by lowest action index.  The environments here are
    continuing, so an episode is a fixed-length segment of
    ``STEPS_PER_EPISODE`` = 100 steps from the initial distribution.
    """
    check_q_learning_params(episodes=episodes, epsilon=epsilon, alpha=alpha, gamma=gamma)
    q = _q_learning_table(mdp, episodes, epsilon, alpha, gamma, seed, STEPS_PER_EPISODE)
    num_states, num_actions = q.shape
    probs = np.full((num_states, num_actions), epsilon / num_actions)
    probs[np.arange(num_states), np.argmax(q, axis=1)] += 1.0 - epsilon
    return TabularPolicy(probs)


# raw 64-bit words that _q_learning_table reads from the generator at a time
# (32 KB); at least the three words one step keeps in stock
_RAW_BATCH = 1 << 12

_LOW32 = 0xFFFFFFFF


def _bounded_draw(draw: int, bound: int) -> int | None:
    """The value that ``Generator.integers(bound)`` takes from the 32-bit
    draw ``draw``, for 2 <= bound <= 2**32, or None if it draws again.

    numpy (``buffered_bounded_lemire_uint32``) maps a 32-bit draw x to
    (x * bound) >> 32 by Lemire's method and draws again while the low 32
    bits of x * bound fall below 2**32 % bound, which removes the bias.
    """
    scaled = draw * bound
    if scaled & _LOW32 < (1 << 32) % bound:
        return None
    return scaled >> 32


def _read_more(bit_generator, words: np.ndarray, pos: int):
    """The words of ``words`` from ``pos`` on followed by a fresh batch of
    ``_RAW_BATCH`` raw words, and each word decoded as ``random()``."""
    words = np.concatenate([words[pos:], bit_generator.random_raw(_RAW_BATCH)])
    return words, ((words >> 11) * 2.0**-53).tolist()


def _q_learning_table(mdp: TabularMDP, episodes: int, epsilon: float, alpha: float,
                      gamma: float, seed: int, steps_per_episode: int) -> np.ndarray:
    """The Q table that :func:`train_q_learning_policy` softens.

    The loop reads the PCG64 raw stream of ``default_rng(seed)`` in batches
    and decodes it as the generator would, so it uses the same draws as one
    ``random()`` per uniform and one ``integers(num_actions)`` per
    exploratory action: a uniform is (word >> 11) * 2**-53, and a 32-bit
    draw is the low half of a fresh word, whose high half is kept for the
    next 32-bit draw.  :func:`_bounded_draw` turns 32-bit draws into an
    action, and ``integers(1)`` draws nothing.

    Each state's greedy value max Q(s, .) and action, the first maximal
    index as ``np.argmax`` picks, are cached.  An update raises the cached
    pair when the new value is larger, or equal at a lower action index,
    and rescans the row only when the cached action's own value fell.
    """
    bit_generator = np.random.default_rng(seed).bit_generator
    num_states, num_actions = mdp.num_states, mdp.num_actions
    # the loop is scalar, so it runs on Python lists: the same float64
    # arithmetic as numpy scalars, without their per-operation overhead.
    # Each transition row's running sums, added in column order as
    # support_cdf_table adds them, end with the same +inf padding; the
    # column lists share the int objects of one list of state indices.
    rows = mdp.transition_rows
    state_ids = list(range(num_states))
    bounds = rows.indptr.tolist()
    cdf_rows, col_rows = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cdf_rows.append(list(accumulate(rows.data[lo:hi].tolist())) + [np.inf])
        col_rows.append([state_ids[c] for c in rows.indices[lo:hi].tolist()]
                        + [state_ids[-1]])
    reward = mdp.reward.ravel().tolist()  # indexed by row s * A + a
    init_cdf = np.cumsum(mdp.initial_dist).tolist()
    q = [[0.0] * num_actions for _ in range(num_states)]
    best_value, best_action = [0.0] * num_states, [0] * num_states

    # a uniform never falls below 0, so one action never explores and never
    # reads a 32-bit draw
    explore_below = epsilon if num_actions > 1 else 0.0
    words, uniforms, pos, end = np.empty(0, dtype=np.uint64), [], 0, 0
    high = None  # the unused high half of the last word split into 32-bit draws
    last_state = num_states - 1
    for _ in range(episodes):
        if pos == end:
            words, uniforms = _read_more(bit_generator, words, pos)
            pos, end = 0, len(uniforms)
        s = min(bisect_right(init_cdf, uniforms[pos]), last_state)
        pos += 1
        for _ in range(steps_per_episode):
            # a step reads at most three words unless a bounded draw is
            # rejected; the rejection loop keeps the next-state word unread
            if pos + 3 > end:
                words, uniforms = _read_more(bit_generator, words, pos)
                pos, end = 0, len(uniforms)
            greedy = best_action[s]
            explore = uniforms[pos] < explore_below
            pos += 1
            if explore:
                a = None
                while a is None:
                    if high is None:
                        if pos + 2 > end:
                            words, uniforms = _read_more(bit_generator, words, pos)
                            pos, end = 0, len(uniforms)
                        word = int(words[pos])
                        pos += 1
                        a, high = _bounded_draw(word & _LOW32, num_actions), word >> 32
                    else:
                        a, high = _bounded_draw(high, num_actions), None
            else:
                a = greedy
            row = s * num_actions + a
            sp = col_rows[row][bisect_right(cdf_rows[row], uniforms[pos])]
            pos += 1
            q_s = q[s]
            old = q_s[a]
            new = q_s[a] = old + alpha * (reward[row] + gamma * best_value[sp] - old)
            if a == greedy:
                if new >= old:
                    best_value[s] = new
                else:
                    best_value[s] = top = max(q_s)
                    best_action[s] = q_s.index(top)
            elif new > best_value[s] or new == best_value[s] and a < greedy:
                best_value[s], best_action[s] = new, a
            s = sp
    return np.array(q)


def population_dataset(mdp: TabularMDP, behaviors, weights=None) -> TransitionDataset:
    """Weighted enumeration of all supported (s, a, s') triples.

    Record weights equal w_j * d_j(s) * pi_j(a|s) * T(s'|s, a), where d_j is
    the exact stationary distribution of behavior j, so weighted sample
    averages over this dataset reproduce population expectations exactly.
    Used as the testing oracle for the correction learners.
    """
    if isinstance(behaviors, TabularPolicy):
        behaviors = [behaviors]
    m = len(behaviors)
    if weights is None:
        weights = np.full(m, 1.0 / m)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m,):
        raise ValueError(f"weights has shape {weights.shape}; {m} behaviors need "
                         f"shape ({m},), one weight each")
    check_probabilities(weights, "behavior weights", atol=None)
    num_actions = mdp.num_actions
    rows = mdp.transition_rows
    # row s * A + a of each stored entry; the entries run in (s, a, s') order
    entry_row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
    parts = []
    for j, pol in enumerate(behaviors):
        d = stationary_distribution(mdp, pol).probs
        joint = (weights[j] * d[:, None] * pol.probs).ravel()[entry_row] * rows.data
        keep = joint != 0
        s_idx, a_idx = np.divmod(entry_row[keep], num_actions)
        parts.append(TransitionDataset(s_idx, a_idx, rows.indices[keep], mdp.reward[s_idx, a_idx],
                                       np.full(len(s_idx), j), joint[keep]))
    return TransitionDataset.concatenate(parts)
