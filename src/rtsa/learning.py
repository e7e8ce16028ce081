"""Linear Q-learning for the switching policy.

One weight column per action, epsilon-greedy exploration with a persistent
floor, and a warm start that fits the weights on distance-threshold demos
before any online learning. Both run in ``fastpath.train``, on the episode
loop that ``rollout`` also drives, so a policy trains on exactly the
dynamics it is evaluated on. ``train`` runs all online episodes in one call
under the weights policy. ``warm_start`` runs its passes in one call (more
only past ``MAX_EPISODES`` episodes) under the baseline switch, with no
exploration, through the same TD update.
A baseline episode does not depend on the weights, so each pass learns from
the same demos: the kernel flies each demo once and replays its recorded
transitions on the later passes (experience replay, Lin 1992), which gives
the weights that flying it on every pass gives, bit for bit. Both run on the
C kernel (``rtsa_train``) when it loads, on its pure-Python twin otherwise,
with bit-identical weights and logs; the compiled learner seeds each
episode's exploration stream as numpy's ``default_rng`` does.
``linear_q_update`` and ``epsilon_greedy`` are the array-level statements of
that update and of the exploration draws.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fastpath
from .policy import Action, RewardConfig, greedy_action
from .sim import MAX_EPISODES, SEED_BOUND, finite_fields, is_seed, seed_array, wind_rows

# Not called here: the learning loops run in the episode kernels, in wind from the
# wind table. These stay module attributes because rtsabench/tracer.py wraps them by name.
from .policy import compose_controller, extract_features, reward  # noqa: F401
from .sim import episode_terminated, sample_wind_field, step, wind_at  # noqa: F401

__all__ = [
    "Transition",
    "LearnConfig",
    "linear_q_update",
    "epsilon_greedy",
    "warm_start",
    "train",
    "TrainingLog",
]


@dataclass(frozen=True)
class Transition:
    """One experience tuple in feature space."""

    phi_s: np.ndarray
    action: Action
    reward: float
    phi_next: np.ndarray
    terminal: bool


@dataclass(frozen=True)
class LearnConfig:
    learning_rate: float = 3e-3
    epsilon0: float = 0.1
    epsilon_decay: float = 0.99
    epsilon_floor: float = 0.01
    episodes: int = 3000
    warm_start_passes: int = 5
    seed: int = 0

    def validate(self) -> list:
        problems = []
        counts = set()
        for name in ("episodes", "warm_start_passes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                problems.append(f"learn.{name}: counts must be non-negative integers")
            else:
                counts.add(name)
        if "episodes" in counts and self.episodes > MAX_EPISODES:
            problems.append(f"learn.episodes must be at most {MAX_EPISODES}")
        finite = finite_fields(
            self, "learn", ("learning_rate", "epsilon0", "epsilon_decay", "epsilon_floor"),
            problems,
        )
        if "learning_rate" in finite and self.learning_rate <= 0:
            problems.append("learn.learning_rate must be positive")
        for name in ("epsilon0", "epsilon_floor"):
            if name in finite and not 0.0 <= getattr(self, name) <= 1.0:
                problems.append(f"learn.{name} must lie in [0, 1]")
        if "epsilon_decay" in finite and not 0.0 < self.epsilon_decay <= 1.0:
            problems.append("learn.epsilon_decay must lie in (0, 1]")
        if not is_seed(self.seed):
            problems.append("learn.seed must be an integer in [0, 2**64)")
        elif "episodes" in counts and self.seed + max(self.episodes, 1) > SEED_BOUND:
            # train's default wind seeds run from seed to seed + episodes - 1.
            problems.append("learn.seed plus learn.episodes must not exceed 2**64")
        return problems


def linear_q_update(theta: np.ndarray, tr: Transition, lr: float, gamma: float) -> np.ndarray:
    """One linear TD update on the taken action's weight column; returns a new matrix."""
    q_sa = float(tr.phi_s @ theta[:, tr.action])
    if tr.terminal:
        target = tr.reward
    else:
        target = tr.reward + gamma * float(np.max(tr.phi_next @ theta))
    theta = theta.copy()
    theta[:, tr.action] += lr * (target - q_sa) * tr.phi_s
    return theta


def epsilon_greedy(theta: np.ndarray, phi: np.ndarray, epsilon: float,
                   rng: np.random.Generator) -> Action:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return Action(int(rng.integers(len(Action))))
    return greedy_action(theta, phi)


def _checked_config(cfg: LearnConfig, rc: RewardConfig) -> None:
    problems = cfg.validate() + rc.validate()
    if problems:
        raise ValueError("invalid learning configuration: " + "; ".join(problems))


def _check_finite(columns: np.ndarray, where: str) -> None:
    if not np.isfinite(columns).all():
        raise RuntimeError(
            f"weights became non-finite in {where}; lower the learning rate"
        )


def warm_start(seeds, delta: float, theta0: np.ndarray, cfg: LearnConfig, scenario,
               rc: RewardConfig) -> np.ndarray:
    """Batch-fit the weights on distance-threshold demos through the TD update.

    The ``cfg.warm_start_passes`` passes fly the demos under the baseline
    switch at ``delta``, with no exploration, updating the weights at every
    step. Each pass takes one demo per seed of ``seeds``, in order. The
    passes run in as few ``fastpath.train`` calls as keep each call within
    ``MAX_EPISODES`` episodes (one call at the defaults); each call flies
    every demo once and replays its transitions on its later passes. The
    demos' wind is drawn once for all passes. Raises ValueError for an
    invalid ``cfg`` or ``rc``, an empty or invalid seed list, a threshold
    that is not finite and positive or a ``theta0`` that is not a (9, 2)
    array of numbers, and RuntimeError naming the first pass that left the
    weights non-finite.
    """
    _checked_config(cfg, rc)
    seeds = seed_array(seeds)
    if not seeds.size:
        raise ValueError("warm start needs a non-empty demo seed list")
    delta = fastpath.one_threshold(fastpath.POLICY_BASELINE, delta)
    theta = fastpath.weight_columns(theta0)
    demos = dict(wind=wind_rows(fastpath.wind_draws(seeds), scenario.sim),
                 policy_mode=fastpath.POLICY_BASELINE, delta=delta,
                 scales=scenario.feature_scales, alert_penalty=rc.alert_penalty,
                 **fastpath.scenario_args(scenario))
    per_call = max(1, MAX_EPISODES // seeds.size)
    for first in range(0, cfg.warm_start_passes, per_call):
        passes = min(per_call, cfg.warm_start_passes - first)
        # Episode ep flies demo ep % len(seeds). The baseline never explores, so
        # the exploration seed is never drawn from.
        rows = fastpath.train(theta, rc.discount, cfg.learning_rate,
                              np.zeros(passes * seeds.size), 0, **demos)
        _check_finite(theta, f"warm-start pass {first + (len(rows) - 1) // seeds.size}")
    return theta.T.copy()


@dataclass
class TrainingLog:
    """Per-episode training statistics; rows align with episode index."""

    episodes: list = field(default_factory=list)

    COLUMNS = ("episode", "return", "outcome", "deploy_step", "epsilon", "steps",
               "deploy_greedy", "max_abs_td_error", "theta_norm")

    def append(self, episode, ret, outcome, deploy_step, epsilon, steps, deploy_greedy,
               max_abs_td_error, theta_norm):
        self.episodes.append(
            {
                "episode": episode,
                "return": ret,
                "outcome": outcome,
                "deploy_step": deploy_step,
                "epsilon": epsilon,
                "steps": steps,
                # Whether the first deployment was the greedy choice rather
                # than an exploration draw; None when the switch never flipped.
                "deploy_greedy": deploy_greedy,
                # Divergence diagnostics: the episode's largest absolute TD
                # error and the weights' Euclidean norm after it.
                "max_abs_td_error": max_abs_td_error,
                "theta_norm": theta_norm,
            }
        )

    def __len__(self):
        return len(self.episodes)


def train(scenario, rc: RewardConfig, cfg: LearnConfig, theta0: np.ndarray,
          wind_seeds=None):
    """On-policy linear Q-learning over seeded episodes, in one ``fastpath.train`` call.

    Wind fields come from ``wind_seeds`` (cycled; defaults to a range starting
    at ``cfg.seed``); exploration and update randomness comes from a separate
    stream, so the same wind seeds can be reused for evaluation comparisons
    elsewhere without touching exploration. Returns (theta, TrainingLog).
    Raises ValueError for an invalid ``cfg``, ``rc`` or wind seed, or a
    ``theta0`` that is not (9, 2), before any episode runs, and RuntimeError
    naming the first episode that left the weights non-finite.
    """
    _checked_config(cfg, rc)
    if wind_seeds is None:
        wind_seeds = range(cfg.seed, cfg.seed + max(cfg.episodes, 1))
    seeds = seed_array(wind_seeds)
    if cfg.episodes and not seeds.size:
        raise ValueError("training needs a non-empty wind seed list")
    epsilons = []
    epsilon = cfg.epsilon0
    for _ in range(cfg.episodes):
        epsilons.append(epsilon)
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)
    theta = fastpath.weight_columns(theta0)
    # Episode ep flies seed ep % len(seeds); the first cfg.episodes seeds cover them all.
    rows = fastpath.train(
        theta, rc.discount, cfg.learning_rate, epsilons, cfg.seed,
        wind=wind_rows(fastpath.wind_draws(seeds[:cfg.episodes]), scenario.sim),
        policy_mode=fastpath.POLICY_WEIGHTS, delta=0.0,
        scales=scenario.feature_scales, alert_penalty=rc.alert_penalty,
        **fastpath.scenario_args(scenario))

    log = TrainingLog()
    lr_warned = False
    for ep, (epsilon, row) in enumerate(zip(epsilons, rows.tolist())):
        ret, outcome, deploy_step, deploy_greedy, steps, norm2_max, error_max, norm = row
        if not lr_warned and cfg.learning_rate * norm2_max >= 1.0:
            warnings.warn(
                "learning_rate times squared feature norm exceeds 1; "
                "updates may diverge",
                stacklevel=2,
            )
            lr_warned = True
        log.append(ep, ret, fastpath.VERDICTS[int(outcome)],
                   None if deploy_step < 0 else int(deploy_step), epsilon, int(steps),
                   None if deploy_greedy < 0 else bool(deploy_greedy), error_max, norm)
    if len(rows):
        _check_finite(theta, f"training episode {len(rows) - 1}")
    return theta.T.copy(), log
