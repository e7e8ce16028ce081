"""Small synthetic MDPs and tabular oracles for the Bellman machinery.

Value iteration and tabular Q-learning on random dense MDPs cross-check the
TD rule that the linear learner builds on (acceptance criterion 2).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import add

import numpy as np


@dataclass(frozen=True)
class ToyMDP:
    """Small discrete MDP used as a test fixture for the Bellman machinery."""

    transitions: np.ndarray  # (S, A, S), rows sum to 1
    rewards: np.ndarray  # (S, A)
    discount: float

    def __post_init__(self):
        object.__setattr__(self, "transitions", np.asarray(self.transitions, dtype=float))
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=float))
        row_sums = self.transitions.sum(axis=2)
        if not np.allclose(row_sums, 1.0, atol=1e-12):
            raise ValueError("every (s, a) transition row must sum to 1")

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]


def random_mdp(rng: np.random.Generator, n_states: int = 5, n_actions: int = 2,
               discount: float = 0.9) -> ToyMDP:
    """Random dense MDP with rewards in [0, 1]."""
    raw = rng.uniform(0.1, 1.0, size=(n_states, n_actions, n_states))
    transitions = raw / raw.sum(axis=2, keepdims=True)
    rewards = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    return ToyMDP(transitions=transitions, rewards=rewards, discount=discount)


def bellman_residual(mdp: ToyMDP, q: np.ndarray) -> float:
    backup = mdp.rewards + mdp.discount * mdp.transitions @ q.max(axis=1)
    return float(np.max(np.abs(backup - q)))


def value_iteration(mdp: ToyMDP, tol: float = 1e-10) -> np.ndarray:
    """Iterate the Bellman operator until the sup-norm residual drops below tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = np.zeros((mdp.n_states, mdp.n_actions))
    while True:
        backup = mdp.rewards + mdp.discount * mdp.transitions @ q.max(axis=1)
        if np.max(np.abs(backup - q)) <= tol:
            return backup
        q = backup


def tabular_q_update(q_sa: float, r: float, next_values, lr: float, gamma: float,
                     terminal: bool = False) -> float:
    """One tabular TD update of the entry ``q_sa``, given the next state's action
    values; returns the new entry. Terminal next states bootstrap 0."""
    bootstrap = 0.0 if terminal else gamma * max(next_values)
    return q_sa + lr * (r + bootstrap - q_sa)


def choice_cdf(row) -> list[float]:
    """The cumulative sums of ``row`` over their total, as floats.

    ``rng.choice(len(row), p=row)`` draws one ``rng.random()`` and searches it
    in these sums (``side="right"``), so ``bisect_right(choice_cdf(row),
    rng.random())`` draws the same index from the same stream.
    """
    cdf = np.asarray(row, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def tabular_q_learning(mdp: ToyMDP, steps: int, epsilon: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Tabular Q-learning with exploring starts and averaged iterates.

    Each step draws a uniform start state (so no state-action pair starves),
    picks the action epsilon-greedily, and applies a TD update with a
    1/sqrt(visit-count) learning rate. The returned table is the average of
    the iterates over the last 80% of the run, which suppresses the residual
    sampling noise of the final iterate. The tables are flat lists of floats
    (entry s * n_actions + a) and the next state is drawn through
    ``choice_cdf``: the values of ``rng.choice``, bit for bit, without an
    array per step.
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    cdfs = [choice_cdf(row) for row in mdp.transitions.reshape(-1, n_states)]
    rewards = mdp.rewards.ravel().tolist()
    q = [0.0] * (n_states * n_actions)
    visits = [0] * len(q)
    acc = [0.0] * len(q)
    acc_n = 0
    burn_in = steps - int(0.8 * steps)
    for t in range(steps):
        s = int(rng.integers(n_states))
        if rng.random() < epsilon:
            a = int(rng.integers(n_actions))
        else:
            row = q[s * n_actions:(s + 1) * n_actions]
            a = row.index(max(row))
        sa = s * n_actions + a
        s_next = bisect_right(cdfs[sa], rng.random())
        visits[sa] += 1
        q[sa] = tabular_q_update(q[sa], rewards[sa],
                                 q[s_next * n_actions:(s_next + 1) * n_actions],
                                 visits[sa] ** -0.5, mdp.discount)
        if t >= burn_in:
            acc = list(map(add, acc, q))
            acc_n += 1
    table = np.array(acc if acc_n else q).reshape(n_states, n_actions)
    return table / acc_n if acc_n else table
