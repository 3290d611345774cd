"""Shared test fixtures: small random MDPs and independent oracles."""

import dataclasses

import numpy as np
import scipy.sparse as sparse

from empbench import (StateDistribution, TabularMDP, TabularPolicy, TransitionDataset,
                      importance_ratios, stationary_distribution)
from empbench.mdp import chain_matrix


def random_mdp(rng, num_states, num_actions, reward_scale=1.0):
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    reward = reward_scale * rng.normal(size=(num_states, num_actions))
    initial = rng.dirichlet(np.ones(num_states))
    return TabularMDP(transition, reward, initial)


def random_policy(rng, num_states, num_actions):
    return TabularPolicy(rng.dirichlet(np.ones(num_actions), size=num_states))


def random_soft_policy(rng, num_states, num_actions, epsilon=0.2):
    """Random policy mixed with uniform, so every action keeps probability
    at least epsilon / num_actions (bounded importance ratios)."""
    probs = rng.dirichlet(np.ones(num_actions), size=num_states)
    return TabularPolicy((1 - epsilon) * probs + epsilon / num_actions)


def two_state_symmetric(rewards=(0.0, 1.0)):
    # one action per state, both states hop to the other with prob 0.5
    transition = np.array([[[0.5, 0.5]], [[0.5, 0.5]]])
    reward = np.array([[rewards[0]], [rewards[1]]])
    return TabularMDP(transition, reward, np.array([1.0, 0.0]))


def solve_stationary_exactly(chain: np.ndarray) -> np.ndarray:
    """Independent oracle: solve the balance equations d P = d with one of
    them replaced by sum d = 1, by dense LU (no power iteration)."""
    n = chain.shape[0]
    a = chain.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def stationary_start(mdp: TabularMDP, policy: TabularPolicy) -> TabularMDP:
    """Copy of the MDP whose initial distribution is the policy's stationary
    distribution, so sampled states are stationary from step one."""
    d = stationary_distribution(mdp, policy)
    return dataclasses.replace(mdp, initial_dist=d.probs)


def naive_state_quadratic(data, target, denom, kfunc, num_states):
    """O(N^2) double-sum oracle for the state quadratic form."""
    n = len(data)
    w = data.weights
    a = np.zeros((num_states, num_states))
    basis = []
    for i in range(n):
        b = np.zeros(num_states)
        b[data.s[i]] += target.probs[data.s[i], data.a[i]] / denom.probs[data.s[i], data.a[i]]
        b[data.sp[i]] -= 1.0
        basis.append(b)
    for i in range(n):
        for j in range(n):
            a += w[i] * w[j] * kfunc(data.sp[i], data.sp[j]) * np.outer(basis[i], basis[j])
    return a / w.sum() ** 2


def naive_state_action_objective(data, target, nu, kfunc, u):
    """Direct four-kernel-term double sum for the state-action objective."""
    n = len(data)
    num_actions = len(nu)
    w = data.weights
    total = 0.0
    for i in range(n):
        si, ai, spi = int(data.s[i]), int(data.a[i]), int(data.sp[i])
        ui, pii = u[si, ai], target.probs[si, ai]
        for j in range(n):
            sj, aj, spj = int(data.s[j]), int(data.a[j]), int(data.sp[j])
            uj, pij = u[sj, aj], target.probs[sj, aj]
            t1 = nu[ai] * nu[aj] * kfunc((si, ai), (sj, aj))
            t2 = pii * pij * sum(nu[a1] * nu[a2] * kfunc((spi, a1), (spj, a2))
                                 for a1 in range(num_actions) for a2 in range(num_actions))
            t3 = -nu[ai] * pij * sum(nu[a2] * kfunc((si, ai), (spj, a2))
                                     for a2 in range(num_actions))
            t4 = -nu[aj] * pii * sum(nu[a1] * kfunc((spi, a1), (sj, aj))
                                     for a1 in range(num_actions))
            total += w[i] * w[j] * ui * uj * (t1 + t2 + t3 + t4)
    return total / w.sum() ** 2


def one_hot_gaussian_gram(bandwidth, num_states, num_actions=None):
    """Gaussian Gram matrix from explicit one-hot embeddings, one row per
    state or, with ``num_actions``, per (s, a) pair indexed s * A + a with the
    action's one-hot block appended; O(n^3) memory, small sizes only."""
    emb = np.eye(num_states)
    if num_actions is not None:
        emb = np.hstack([np.repeat(emb, num_actions, axis=0),
                         np.tile(np.eye(num_actions), (num_states, 1))])
    sq = np.sum((emb[:, None, :] - emb[None, :, :]) ** 2, axis=2)
    return np.exp(-sq / (2.0 * bandwidth**2))

def _reference_draw(cdf_cache, table, key, rng) -> int:
    cdf = cdf_cache.get(key)
    if cdf is None:
        cdf = cdf_cache[key] = np.cumsum(table[key])
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)


def reference_sample_trajectories(mdp, policy, num_traj, horizon, seed, label=0):
    """Frozen copy of the original per-step sampler: one scalar uniform for
    each trajectory's initial state, then one for the action and one for the
    next state per step, each drawn from the dense row's cumulative sums.
    Returns the rollouts one after another as one dataset labeled ``label``
    with trajectory ids 0..num_traj-1.  Oracle for the lockstep sampler,
    which must reproduce it bit for bit."""
    rng = np.random.default_rng(seed)
    actions_cdf, next_cdf = {}, {}
    transition = mdp.transition  # dense, built on each access
    init_cdf = np.cumsum(mdp.initial_dist)
    size = num_traj * horizon
    states = np.empty(size, dtype=np.int64)
    actions = np.empty(size, dtype=np.int64)
    rewards = np.empty(size, dtype=np.float64)
    nexts = np.empty(size, dtype=np.int64)
    for i in range(num_traj):
        s = min(int(np.searchsorted(init_cdf, rng.random(), side="right")),
                mdp.num_states - 1)
        for t in range(i * horizon, (i + 1) * horizon):
            a = _reference_draw(actions_cdf, policy.probs, s, rng)
            sp = _reference_draw(next_cdf, transition, (s, a), rng)
            states[t], actions[t], rewards[t], nexts[t] = s, a, mdp.reward[s, a], sp
            s = sp
    return TransitionDataset(states, actions, nexts, rewards, np.full(size, label),
                             trajectory_ids=np.repeat(np.arange(num_traj), horizon))


def reference_q_table(mdp, episodes, epsilon, alpha, gamma, seed, steps_per_episode=100):
    """Frozen copy of the original numpy Q-learning loop; returns the final
    Q table.  Oracle for the list-based loop behind train_q_learning_policy."""
    rng = np.random.default_rng(seed)
    num_states, num_actions = mdp.num_states, mdp.num_actions
    q = np.zeros((num_states, num_actions))
    next_cdf = {}
    transition = mdp.transition  # dense, built on each access
    init_cdf = np.cumsum(mdp.initial_dist)
    for _ in range(episodes):
        s = min(int(np.searchsorted(init_cdf, rng.random(), side="right")),
                num_states - 1)
        for _ in range(steps_per_episode):
            if rng.random() < epsilon:
                a = int(rng.integers(num_actions))
            else:
                a = int(np.argmax(q[s]))
            sp = _reference_draw(next_cdf, transition, (s, a), rng)
            q[s, a] += alpha * (mdp.reward[s, a] + gamma * q[sp].max() - q[s, a])
            s = sp
    return q



def reference_taxi_arrays():
    """Frozen copy of the original dense taxi builder: returns the (S, A, S)
    transition tensor, the reward table and the initial distribution, each
    transition entry accumulated with ``+=`` in a Python loop.  Oracle for
    the sparse triplet builder, which must reproduce it bit for bit."""
    grid, corners, rate = 5, (0, 4, 20, 24), 0.05
    num_states, num_actions = 25 * 16 * 5, 6

    def state(cell, passengers, status):
        return cell * 80 + passengers * 5 + status

    transition = np.zeros((num_states, num_actions, num_states))
    reward = np.full((num_states, num_actions), -1.0)
    flip_probs = np.empty(16)
    for pattern in range(16):
        k = bin(pattern).count("1")
        flip_probs[pattern] = rate**k * (1.0 - rate) ** (4 - k)
    corner_of_cell = {cell: i for i, cell in enumerate(corners)}
    for cell in range(25):
        row, col = divmod(cell, grid)
        moved = [cell - grid if row > 0 else cell, cell + 1 if col < grid - 1 else cell,
                 cell + grid if row < grid - 1 else cell, cell - 1 if col > 0 else cell]
        for passengers in range(16):
            for status in range(5):
                s = state(cell, passengers, status)
                for action in range(num_actions):
                    if action < 4:
                        outcomes = [(1.0, moved[action], passengers, status)]
                    elif action == 4:
                        corner = corner_of_cell.get(cell)
                        if status == 0 and corner is not None and passengers >> corner & 1:
                            reward[s, action] = 20.0
                            cleared = passengers & ~(1 << corner)
                            outcomes = [(0.25, cell, cleared, 1 + d) for d in range(4)]
                        else:
                            outcomes = [(1.0, cell, passengers, status)]
                    else:
                        if status > 0 and cell == corners[status - 1]:
                            reward[s, action] = 20.0
                            outcomes = [(1.0, cell, passengers, 0)]
                        else:
                            outcomes = [(1.0, cell, passengers, status)]
                    for prob, cell2, pass2, status2 in outcomes:
                        for pattern in range(16):
                            s2 = state(cell2, pass2 ^ pattern, status2)
                            transition[s, action, s2] += prob * flip_probs[pattern]
    initial = np.zeros(num_states)
    for passengers in range(16):
        initial[state(12, passengers, 0)] = 1.0 / 16.0
    return transition, reward, initial


def reference_chain_matrix(transition, policy):
    """The original dense chain matrix: einsum over the (S, A, S) tensor."""
    return np.einsum("sa,sat->st", policy.probs, transition)


def reference_support_cdf_table(table):
    """Frozen copy of the original dense inverse-CDF table builder."""
    num_rows, num_cols = table.shape
    rows, cols = np.divmod(np.flatnonzero(table != 0), num_cols)
    counts = np.bincount(rows, minlength=num_rows)
    width = int(counts.max()) + 1
    pos = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    cum = np.zeros((num_rows, width))
    cum[rows, pos] = table[rows, cols]
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(width) >= counts[:, None]] = np.inf
    col_table = np.full((num_rows, width), num_cols - 1, dtype=np.int64)
    col_table[rows, pos] = cols
    return cum, col_table, counts


def reference_population_columns(transition, reward, stationary, behaviors, weights):
    """Frozen copy of the original dense population enumeration: the
    (s, a, s', r, label, weight) columns, given each behavior's stationary
    distribution."""
    columns = [[] for _ in range(6)]
    for j, (pol, d) in enumerate(zip(behaviors, stationary)):
        joint = weights[j] * d[:, None, None] * pol.probs[:, :, None] * transition
        s_idx, a_idx, sp_idx = np.nonzero(joint)
        for column, values in zip(columns, (s_idx, a_idx, sp_idx, reward[s_idx, a_idx],
                                            np.full(len(s_idx), j, dtype=np.int64),
                                            joint[s_idx, a_idx, sp_idx])):
            column.append(values)
    return [np.concatenate(column) for column in columns]


def reference_delta_quadratic(left):
    """Frozen copy of the original dense delta-kernel form: the sparse
    product densified, then symmetrized in dense.  A dense factor is
    multiplied as CSR."""
    if isinstance(left, np.ndarray):
        left = sparse.csr_matrix(left)
    mat = (left @ left.T).toarray()
    return 0.5 * (mat + mat.T)


def reference_delta_factors(data, target, denom, nu, num_states, num_actions):
    """Frozen copy of the original delta-kernel factors, each built by
    scipy's COO to CSR conversion: without ``nu``, the state form's ``left``
    (the transpose of the CSR matrix whose row s' holds the residuals of the
    records ending in s'); with ``nu``, the state-action form's CSR
    ``left``."""
    if nu is None:
        rho = importance_ratios(data, target, denom)
        vals = np.concatenate([data.weights * rho, -data.weights])
        rows, cols = np.concatenate([data.sp, data.sp]), np.concatenate([data.s, data.sp])
        return sparse.coo_matrix((vals, (rows, cols)),
                                 shape=(num_states, num_states)).tocsr().T
    dim = num_states * num_actions
    pair = data.s * num_actions + data.a
    pi_sa = target.probs[data.s, data.a]
    rows = np.concatenate([pair, np.repeat(pair, num_actions)])
    cols = np.concatenate([pair, (data.sp[:, None] * num_actions
                                  + np.arange(num_actions)[None, :]).ravel()])
    vals = np.concatenate([data.weights * nu[data.a],
                           (-(data.weights * pi_sa)[:, None] * nu[None, :]).ravel()])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def reference_policy_mle(data, num_states, num_actions):
    """Frozen copy of the original maximum-likelihood policy estimate, which
    counted with ``np.add.at``."""
    counts = np.zeros((num_states, num_actions))
    np.add.at(counts, (data.s, data.a), data.weights)
    row_sums = counts.sum(axis=1)
    probs = np.full((num_states, num_actions), 1.0 / num_actions)
    visited = row_sums > 0
    probs[visited] = counts[visited] / row_sums[visited, None]
    return TabularPolicy(probs)


def reference_stationary_distribution(mdp, policy, tol=1e-10):
    """Frozen copy of the original power iteration, which multiplied through
    scipy's ``m_t @ d`` into a new vector at each step (its non-ergodicity
    checks left out)."""
    m_t = chain_matrix(mdp, policy).T.tocsr()
    d = np.full(mdp.num_states, 1.0 / mdp.num_states)
    while True:
        d_next = m_t @ d
        if np.abs(d_next - d).sum() <= tol:
            return StateDistribution(d / d.sum())
        d = d_next


def reference_lambda_max(matrix, dim):
    """Frozen copy of the original power iteration behind the solver's
    first step."""
    v = np.random.default_rng(0).standard_normal(dim)
    v /= np.linalg.norm(v)
    for _ in range(200):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm <= 1e-300:
            return 0.0
        v = w / norm
    return float(v @ (matrix @ v))


def reference_pgd_solve(form, reference, iters=20000, trace=None):
    """Frozen copy of the original projected-gradient loop, which allocated
    every vector and retook the gradient after a rejected step.  Oracle for
    the buffered loop of solve_normalized_quadratic, which must reproduce it
    bit for bit, accepted objectives included."""
    reference = np.asarray(reference, dtype=np.float64)
    matrix, scale = form.entries, form.scale
    x = np.ones(form.dim)
    x /= reference @ x
    lam = scale * reference_lambda_max(matrix, form.dim)
    if lam <= 1e-300:
        return x
    step = 0.5 / lam
    step_cap = 50.0 * step
    y = matrix @ x
    f = scale * float(x @ y)
    if trace is not None:
        trace.append(f)
    f_checkpoint = f
    for it in range(1, iters + 1):
        gradient = (2.0 * scale) * y - (2.0 * f) * reference
        cand = np.maximum(x - step * gradient, 0.0)
        cand /= reference @ cand
        y_cand = matrix @ cand
        f_cand = scale * float(cand @ y_cand)
        if f_cand <= f:
            x, y, f = cand, y_cand, f_cand
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
