"""Small synthetic MDPs and tabular oracles for the Bellman machinery.

Value iteration and tabular Q-learning on random dense MDPs cross-check the
TD rule that the linear learner builds on (acceptance criterion 2).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def tabular_q_update(q: np.ndarray, transition, lr: float, gamma: float,
                     terminal: bool = False) -> np.ndarray:
    """One tabular TD update; returns a new table. Terminal next states bootstrap 0."""
    s, a, r, s_next = transition
    q = q.copy()
    bootstrap = 0.0 if terminal else gamma * q[s_next].max()
    q[s, a] += lr * (r + bootstrap - q[s, a])
    return q


def tabular_q_learning(mdp: ToyMDP, steps: int, epsilon: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Tabular Q-learning with exploring starts and averaged iterates.

    Each step draws a uniform start state (so no state-action pair starves),
    picks the action epsilon-greedily, and applies a TD update with a
    1/sqrt(visit-count) learning rate. The returned table is the average of
    the iterates over the last 80% of the run, which suppresses the residual
    sampling noise of the final iterate.
    """
    q = np.zeros((mdp.n_states, mdp.n_actions))
    visits = np.zeros((mdp.n_states, mdp.n_actions), dtype=int)
    acc = np.zeros_like(q)
    acc_n = 0
    burn_in = steps - int(0.8 * steps)
    for t in range(steps):
        s = int(rng.integers(mdp.n_states))
        if rng.random() < epsilon:
            a = int(rng.integers(mdp.n_actions))
        else:
            a = int(np.argmax(q[s]))
        s_next = int(rng.choice(mdp.n_states, p=mdp.transitions[s, a]))
        r = mdp.rewards[s, a]
        visits[s, a] += 1
        q = tabular_q_update(q, (s, a, r, s_next), visits[s, a] ** -0.5, mdp.discount)
        if t >= burn_in:
            acc += q
            acc_n += 1
    return acc / acc_n if acc_n else q
