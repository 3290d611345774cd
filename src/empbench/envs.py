"""The three discrete benchmark environments.

All environments are continuing (ergodic under any everywhere-positive
policy), so infinite-horizon average reward is well defined.
"""

import numpy as np
import scipy.sparse as sparse

from .mdp import TabularMDP

TAXI_GRID = 5
TAXI_CORNERS = (0, 4, 20, 24)  # cell indices of the four corners, row-major
TAXI_PASSENGER_RATE = 0.05     # per-corner appearance/disappearance probability


def build_taxi() -> TabularMDP:
    """5x5 taxi world: 2000 states (25 cells x 16 passenger masks x 5 taxi
    statuses) and 6 actions (move N/E/S/W, pick up, drop off).

    State index = cell * 80 + passengers * 5 + status, where passengers is
    a 4-bit mask over the corners and status 0 = empty taxi and 1 + d =
    carrying a passenger bound for corner d.

    Rewards: +20 for a valid pickup or for dropping a passenger at their
    destination corner, -1 otherwise.  Between steps every corner gains or
    loses a waiting passenger with probability 0.05, independently, which
    keeps the chain ergodic.  A picked-up passenger's destination corner is
    drawn uniformly.

    Episodes start with the empty taxi at the center cell and the passenger
    mask drawn from its own stationary law (uniform over the 16 masks, since
    appearance and disappearance rates are equal), so early steps are not
    systematically passenger-starved.

    The transitions are built as sparse triplets: every (s, a) has one core
    outcome, or four for a valid pickup, each spread over the 16 passenger
    flip patterns, and no (s, a, s') is reached twice.
    """
    num_states = 25 * 16 * 5
    num_actions = 6

    # probability of each 4-bit flip pattern applied to the passenger mask
    rate = TAXI_PASSENGER_RATE
    flip_probs = np.array([rate**k * (1.0 - rate) ** (4 - k)
                           for k in (bin(pattern).count("1") for pattern in range(16))])

    s = np.arange(num_states)
    cell, passengers, status = s // 80, s // 5 % 16, s % 5
    row, col = np.divmod(cell, TAXI_GRID)
    corners = np.array(TAXI_CORNERS)
    corner_of_cell = np.full(25, -1)
    corner_of_cell[corners] = np.arange(4)
    corner = corner_of_cell[cell]  # -1 off the corners
    can_pick = (status == 0) & (corner >= 0) & (passengers >> np.maximum(corner, 0) & 1 == 1)
    can_drop = (status > 0) & (cell == corners[np.maximum(status - 1, 0)])
    reward = np.full((num_states, num_actions), -1.0)
    reward[can_pick, 4] = 20.0
    reward[can_drop, 5] = 20.0

    # core outcomes: (row s * 6 + a, probability, cell', passengers', status')
    moved = [
        np.where(row > 0, cell - TAXI_GRID, cell),              # north
        np.where(col < TAXI_GRID - 1, cell + 1, cell),          # east
        np.where(row < TAXI_GRID - 1, cell + TAXI_GRID, cell),  # south
        np.where(col > 0, cell - 1, cell),                      # west
    ]
    ones = np.ones(num_states)
    outcomes = [(s * num_actions + a, ones, moved[a], passengers, status) for a in range(4)]
    stay = ~can_pick
    outcomes.append((s[stay] * num_actions + 4, ones[stay], cell[stay], passengers[stay],
                     status[stay]))
    picked = s[can_pick]
    cleared = passengers[can_pick] & ~(1 << corner[can_pick])
    outcomes += [(picked * num_actions + 4, np.full(len(picked), 0.25), cell[can_pick],
                  cleared, np.full(len(picked), 1 + d)) for d in range(4)]
    outcomes.append((s * num_actions + 5, ones, cell, passengers,
                     np.where(can_drop, 0, status)))
    rows, probs, cell2, pass2, status2 = (np.concatenate(part) for part in zip(*outcomes))

    pattern = np.arange(16)
    next_states = cell2[:, None] * 80 + (pass2[:, None] ^ pattern) * 5 + status2[:, None]
    transitions = sparse.coo_matrix(
        ((probs[:, None] * flip_probs).ravel(), (np.repeat(rows, 16), next_states.ravel())),
        shape=(num_states * num_actions, num_states))

    initial = np.zeros(num_states)
    initial[12 * 80 + np.arange(16) * 5] = 1.0 / 16.0
    return TabularMDP(transitions, reward, initial)


GRIDWORLD_SIDE = 4
GRIDWORLD_REWARD_STATE = 3
GRIDWORLD_FIRE_STATE = 12
GRIDWORLD_TERMINATE_STATE = 15
GRIDWORLD_START_STATE = 0


def build_gridworld() -> TabularMDP:
    """4x4 grid world, actions up/down/left/right, deterministic moves.

    State rewards: -1 in the thirteen normal states, +1 in the reward state,
    +100 in the terminate state, -11 in the fire state.  The terminate state
    pays its reward and then resets to the start, turning the episodic task
    into an ergodic chain.
    """
    n = GRIDWORLD_SIDE
    num_states = n * n
    num_actions = 4
    state_reward = np.full(num_states, -1.0)
    state_reward[GRIDWORLD_REWARD_STATE] = 1.0
    state_reward[GRIDWORLD_FIRE_STATE] = -11.0
    state_reward[GRIDWORLD_TERMINATE_STATE] = 100.0

    initial = np.zeros(num_states)
    initial[GRIDWORLD_START_STATE] = 1.0

    transition = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        if s == GRIDWORLD_TERMINATE_STATE:
            transition[s, :, :] = initial  # reset after the terminal payout
            continue
        row, col = divmod(s, n)
        moves = [
            s - n if row > 0 else s,      # up
            s + n if row < n - 1 else s,  # down
            s - 1 if col > 0 else s,      # left
            s + 1 if col < n - 1 else s,  # right
        ]
        for a, s2 in enumerate(moves):
            transition[s, a, s2] = 1.0

    reward = np.tile(state_reward[:, None], (1, num_actions))
    return TabularMDP(transition, reward, initial)


SINGLEPATH_ADVANCE = 0
SINGLEPATH_STAY = 1


def build_singlepath() -> TabularMDP:
    """Five-state chain with two actions: advance to the next state (+1
    reward) or remain in place (-1 reward).

    The final state wraps back to state 0 on advance, which keeps every
    policy that advances with positive probability ergodic.
    """
    num_states = 5
    num_actions = 2
    transition = np.zeros((num_states, num_actions, num_states))
    reward = np.empty((num_states, num_actions))
    for s in range(num_states):
        transition[s, SINGLEPATH_ADVANCE, (s + 1) % num_states] = 1.0
        transition[s, SINGLEPATH_STAY, s] = 1.0
        reward[s, SINGLEPATH_ADVANCE] = 1.0
        reward[s, SINGLEPATH_STAY] = -1.0
    initial = np.zeros(num_states)
    initial[0] = 1.0
    return TabularMDP(transition, reward, initial)


ENVIRONMENTS = {
    "taxi": build_taxi,
    "gridworld": build_gridworld,
    "singlepath": build_singlepath,
}


def build_environment(name: str) -> TabularMDP:
    try:
        return ENVIRONMENTS[name]()
    except KeyError:
        raise ValueError(f"unknown environment {name!r}; "
                         f"expected one of {sorted(ENVIRONMENTS)}") from None
