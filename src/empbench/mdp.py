"""Tabular MDP primitives: domain types, exact oracles, and simulation.

States are 0..S-1, actions 0..A-1.  Transitions are stored as one sparse
(S*A, S) matrix whose row s * A + a is the next-state distribution
T[s, a, :], rewards are (S, A) tables, and every stochastic operation takes
an explicit integer seed so experiments are bit-reproducible.
"""

from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate

import numpy as np
import scipy.sparse as sparse

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
class Trajectory:
    """One rollout: parallel arrays of (state, action, reward, next_state)
    plus the index of the behavior policy that generated it."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    policy_label: int = 0

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.next_states = np.asarray(self.next_states, dtype=np.int64)
        n = len(self.states)
        if not (len(self.actions) == len(self.rewards) == len(self.next_states) == n):
            raise ValueError("trajectory arrays must have equal length")
        if n > 1 and not np.array_equal(self.next_states[:-1], self.states[1:]):
            raise ValueError("steps must chain: next_state[t] == state[t+1]")

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class TransitionDataset:
    """Flat collection of logged transitions.

    Columns: state s, action a, next state sp, reward r, an optional
    behavior-policy label per record, a nonnegative sample weight
    (default 1), and an optional index of the trajectory each record came
    from (filled by :meth:`from_trajectories`).  Weighted records let
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
        if n and min(self.s.min(), self.a.min(), self.sp.min()) < 0:
            raise ValueError("state and action indices must be nonnegative")
        for name in ("labels", "trajectory_ids"):  # optional integer columns
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
                if len(getattr(self, name)) != n:
                    raise ValueError(f"{name} must have one entry per record")
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

    def with_weights(self, weights: np.ndarray) -> "TransitionDataset":
        return replace(self, weights=weights)

    @classmethod
    def from_trajectories(cls, trajectories) -> "TransitionDataset":
        s = np.concatenate([t.states for t in trajectories])
        a = np.concatenate([t.actions for t in trajectories])
        sp = np.concatenate([t.next_states for t in trajectories])
        r = np.concatenate([t.rewards for t in trajectories])
        lengths = [len(t) for t in trajectories]
        labels = np.repeat([t.policy_label for t in trajectories], lengths)
        ids = np.repeat(np.arange(len(lengths)), lengths)
        return cls(s, a, sp, r, labels, trajectory_ids=ids)


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


def stationary_distribution(mdp: TabularMDP, policy: TabularPolicy,
                            tol: float = 1e-10, max_iters: int = 10**6) -> StateDistribution:
    """Stationary distribution of the policy-induced chain by power iteration.

    Starts from the uniform vector and iterates d <- d M, as the sparse
    product M^T d, until the balance residual ||d M - d||_1 drops below
    ``tol``.  M is stochastic, so the residual never grows; it stays put on
    a periodic chain.  Raises :class:`NonErgodicChain` when the residual
    has not shrunk over ``_RESIDUAL_WINDOW`` iterations, or has not
    converged within ``max_iters`` iterations.
    """
    m_t = chain_matrix(mdp, policy).T.tocsr()
    d = np.full(mdp.num_states, 1.0 / mdp.num_states)
    checkpoint = np.inf
    for k in range(max_iters):
        d_next = m_t @ d
        residual = np.abs(d_next - d).sum()
        if residual <= tol:
            return StateDistribution(d / d.sum())
        if k % _RESIDUAL_WINDOW == 0:
            if residual >= checkpoint:
                raise NonErgodicChain(
                    f"balance residual stopped shrinking at {residual:.3g} after {k} "
                    "iterations: the chain is periodic or reducible")
            checkpoint = residual
        d = d_next
    raise NonErgodicChain(
        f"balance residual did not reach {tol} within {max_iters} iterations")


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
    table = sparse.csr_matrix(table)
    num_rows, num_cols = table.shape
    counts = np.diff(table.indptr).astype(np.int64)
    rows = np.repeat(np.arange(num_rows), counts)
    width = int(counts.max()) + 1
    pos = np.arange(len(rows)) - np.repeat(table.indptr[:-1], counts)
    cum = np.zeros((num_rows, width))
    cum[rows, pos] = table.data
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(width) >= counts[:, None]] = np.inf
    col_table = np.full((num_rows, width), num_cols - 1, dtype=np.int64)
    col_table[rows, pos] = table.indices
    return cum, col_table, counts


def _draw(cum: np.ndarray, cols: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One inverse-CDF draw per entry of ``rows`` from a
    :func:`support_cdf_table` table, with uniforms ``u``."""
    k = np.add.reduce(cum.take(rows, axis=0) <= u[:, None], axis=1)
    return cols.take(rows * cols.shape[1] + k)


# uniforms drawn at once by sample_trajectories: 2**19 doubles (4 MB)
_UNIFORM_BUFFER = 1 << 19


def sample_trajectories(mdp: TabularMDP, policy: TabularPolicy, num_traj: int,
                        horizon: int, seed: int, label: int = 0) -> list[Trajectory]:
    """Simulate ``num_traj`` rollouts of exactly ``horizon`` steps each.

    Every trajectory starts from the MDP's initial distribution.  Identical
    seeds produce bit-identical output.  Each trajectory consumes 1 + 2 *
    horizon uniforms in the order (initial state, then action and next
    state per step); the rollouts of a block advance in lockstep, one
    vectorized inverse-CDF draw per time step.
    """
    if num_traj < 1 or horizon < 1:
        raise ValueError("num_traj and horizon must be >= 1")
    rng = np.random.default_rng(seed)
    act_cum, act_cols, _ = support_cdf_table(policy.probs)
    next_cum, next_cols, _ = mdp.transition_cdf
    init_cdf = np.cumsum(mdp.initial_dist)
    num_states, num_actions = mdp.num_states, mdp.num_actions
    block = max(1, _UNIFORM_BUFFER // (1 + 2 * horizon))
    out = []
    for first in range(0, num_traj, block):
        n = min(block, num_traj - first)
        u = rng.random((n, 1 + 2 * horizon))
        path = [np.minimum(np.searchsorted(init_cdf, u[:, 0], side="right"), num_states - 1)]
        actions = []
        for t in range(horizon):
            s = path[-1]
            a = _draw(act_cum, act_cols, s, u[:, 1 + 2 * t])
            actions.append(a)
            path.append(_draw(next_cum, next_cols, s * num_actions + a, u[:, 2 + 2 * t]))
        path, actions = np.stack(path, axis=1), np.stack(actions, axis=1)
        states, nexts = path[:, :-1], path[:, 1:].copy()
        rewards = mdp.reward[states, actions]
        out.extend(Trajectory(states[i], actions[i], rewards[i], nexts[i], policy_label=label)
                   for i in range(n))
    return out


# the valid range of each Q-learning parameter: (test, description)
Q_LEARNING_RANGES = {
    "episodes": (lambda v: v >= 1, ">= 1"),
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
# (32 KB); at least the three words one step can read
_RAW_BATCH = 1 << 12

_LOW32 = 0xFFFFFFFF


def _bounded_draw(next32, bound: int) -> int:
    """``Generator.integers(bound)`` for 1 <= bound <= 2**32, from a source
    of 32-bit draws.

    numpy (``buffered_bounded_lemire_uint32``) maps a 32-bit draw x to
    (x * bound) >> 32 by Lemire's method and draws again while the low 32
    bits of x * bound fall below 2**32 % bound, which removes the bias.
    ``integers(1)`` draws nothing.
    """
    if bound == 1:
        return 0
    threshold = (1 << 32) % bound
    m = next32() * bound
    while (m & _LOW32) < threshold:
        m = next32() * bound
    return m >> 32


def _q_learning_table(mdp: TabularMDP, episodes: int, epsilon: float, alpha: float,
                      gamma: float, seed: int, steps_per_episode: int) -> np.ndarray:
    """The Q table that :func:`train_q_learning_policy` softens.

    The loop reads the PCG64 raw stream of ``default_rng(seed)`` in batches
    and decodes it as the generator would, so it uses the same draws as one
    ``random()`` per uniform and one ``integers(num_actions)`` per
    exploratory action: a uniform is (word >> 11) * 2**-53, and a 32-bit
    draw is the low half of a fresh word, whose high half is kept for the
    next 32-bit draw.
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
    for start, end in zip(bounds[:-1], bounds[1:]):
        cdf_rows.append(list(accumulate(rows.data[start:end].tolist())) + [np.inf])
        col_rows.append([state_ids[c] for c in rows.indices[start:end].tolist()]
                        + [state_ids[-1]])
    reward = mdp.reward.tolist()
    init_cdf = np.cumsum(mdp.initial_dist).tolist()
    q = [[0.0] * num_actions for _ in range(num_states)]

    words, uniforms, pos = np.empty(0, dtype=np.uint64), [], 0
    high = None  # the unused high half of the last word split into 32-bit draws

    def refill():
        """Append a fresh batch of words to the unread ones."""
        nonlocal words, uniforms, pos
        words = np.concatenate([words[pos:], bit_generator.random_raw(_RAW_BATCH)])
        uniforms = ((words >> 11) * 2.0**-53).tolist()
        pos = 0

    def next32():
        """The next 32-bit draw, as PCG64's buffered next_uint32."""
        nonlocal pos, high
        if high is not None:
            low, high = high, None
            return low
        if pos == len(uniforms):
            refill()
        word = int(words[pos])
        pos += 1
        high = word >> 32
        return word & _LOW32

    last_state = num_states - 1
    for _ in range(episodes):
        if pos == len(uniforms):
            refill()
        s = min(bisect_right(init_cdf, uniforms[pos]), last_state)
        pos += 1
        for _ in range(steps_per_episode):
            # a step reads at most three words; a rejected bounded draw
            # takes more, and next32 refills for those
            if pos + 3 > len(uniforms):
                refill()
            q_s = q[s]
            explore = uniforms[pos] < epsilon
            pos += 1
            if explore:
                a = _bounded_draw(next32, num_actions)
            else:
                a = q_s.index(max(q_s))  # first maximal action, as np.argmax
            row = s * num_actions + a
            sp = col_rows[row][bisect_right(cdf_rows[row], uniforms[pos])]
            pos += 1
            q_s[a] += alpha * (reward[s][a] + gamma * max(q[sp]) - q_s[a])
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
    check_probabilities(weights, "behavior weights", atol=None)
    num_actions = mdp.num_actions
    rows = mdp.transition_rows
    # row s * A + a of each stored entry; the entries run in (s, a, s') order
    entry_row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
    cols_s, cols_a, cols_sp, cols_r, cols_l, cols_w = [], [], [], [], [], []
    for j, pol in enumerate(behaviors):
        d = stationary_distribution(mdp, pol).probs
        joint = (weights[j] * d[:, None] * pol.probs).ravel()[entry_row] * rows.data
        keep = joint != 0
        s_idx, a_idx = np.divmod(entry_row[keep], num_actions)
        cols_s.append(s_idx)
        cols_a.append(a_idx)
        cols_sp.append(rows.indices[keep])
        cols_r.append(mdp.reward[s_idx, a_idx])
        cols_l.append(np.full(len(s_idx), j, dtype=np.int64))
        cols_w.append(joint[keep])
    return TransitionDataset(np.concatenate(cols_s), np.concatenate(cols_a),
                             np.concatenate(cols_sp), np.concatenate(cols_r),
                             np.concatenate(cols_l), np.concatenate(cols_w))
