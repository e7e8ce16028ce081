"""Seeded episode batches, confusion matrices, SOC sweeps and wind calibration.

Every batch is driven by an explicit seed list and the wind field of episode
i depends only on seeds[i], so any two policies evaluated on the same list
face identical wind realizations. Episodes run on the fastpath kernels
(compiled when available) along one of two paths:

- the trajectory path: ``run_episode`` runs one episode through
  ``fastpath.rollout`` and keeps its trajectory, for ``rtsa run --trace``;
- the summary path: ``run_batch``, ``sweep_baseline`` and ``exit_rate``
  run all of a policy's seeds in one kernel call and keep only each
  episode's outcome and deploy step, which is all a confusion matrix reads.
  ``sweep_baseline`` runs all of its thresholds in one ``fastpath.batch``
  call: each seed's nominal prefix, which every threshold flies until it
  deploys, is flown once; right after a nominal ``run_batch`` on the same
  seeds, only its last few steps before each deploy are (see
  ``fastpath``). It counts each threshold's confusion matrix from the
  summaries. ``exit_rate`` is one count of ``fastpath.exit_counter``, and
  ``calibrate_wind`` brackets and bisects the wind strength with one count
  per evaluation; neither keeps a fork record. Their wind comes from one
  table of unit draws per seed list (``fastpath.wind_draws``), drawn once
  and rescaled to each policy's or evaluation's wind (``sim.wind_rows``,
  whose arithmetic ``fastpath.exit_counter`` repeats).

Both paths give the same outcomes and deploy steps for the same seeds. A
seed is an integer in [0, 2**64) (``sim.seed_array``); any other raises
ValueError before an episode runs. Episodes are charged the scenario's own
``reward.alert_penalty``. Only a trajectory's reward column shows it: no
outcome or deploy step depends on it, so a summary carries no reward.
``train_policy`` alone takes an alert penalty of its own, to learn at.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import fastpath, learning
from .geometry import Envelope
from .learning import LearnConfig, _checked_config, train
from .policy import N_FEATURES, Action
from .sim import Verdict, _finite, seed_array, wind_rows
from .scenario import Scenario

# Not called here: run_episode takes its wind from the wind table, and
# train_policy calls learning.warm_start. They stay module attributes because
# rtsabench/tracer.py wraps them by name.
from .learning import warm_start  # noqa: F401
from .sim import sample_wind_field  # noqa: F401

__all__ = [
    "PolicySpec",
    "EpisodeRecord",
    "ConfusionMatrix",
    "SocPoint",
    "CalibrationResult",
    "run_episode",
    "run_batch",
    "confusion",
    "soc_point",
    "sweep_baseline",
    "sweep_learned",
    "train_policy",
    "exit_rate",
    "calibrate_wind",
]

@dataclass(frozen=True)
class PolicySpec:
    """Which controller family runs an episode: nominal, baseline:<delta>, or weights."""

    kind: str
    delta: float = 0.0
    theta: Optional[np.ndarray] = None

    @staticmethod
    def nominal() -> "PolicySpec":
        return PolicySpec(kind="nominal")

    @staticmethod
    def baseline(delta: float) -> "PolicySpec":
        delta = float(delta)
        if not 0.0 < delta < math.inf:
            raise ValueError(f"baseline delta must be positive and finite, got {delta}")
        return PolicySpec(kind="baseline", delta=delta)

    @staticmethod
    def weights(theta: np.ndarray) -> "PolicySpec":
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (N_FEATURES, len(Action)):
            raise ValueError("weight matrix must have one column per action")
        return PolicySpec(kind="weights", theta=theta)

    @property
    def policy_id(self) -> str:
        if self.kind == "nominal":
            return "nominal"
        if self.kind == "baseline":
            return f"baseline:{self.delta:g}"
        return "weights"

    def _mode(self) -> int:
        return {
            "nominal": fastpath.POLICY_NOMINAL,
            "baseline": fastpath.POLICY_BASELINE,
            "weights": fastpath.POLICY_WEIGHTS,
        }[self.kind]


@dataclass(frozen=True)
class EpisodeRecord:
    """One seeded episode: trajectory rows are (t, px, py, pz, vx, vy, vz, action, reward).

    The last row is the final state (its action column repeats the latch, its
    reward is 0); all earlier rows are transitions. ``trajectory`` is None
    for the summary records of ``run_batch``.
    """

    seed: int
    policy_id: str
    trajectory: Optional[np.ndarray]
    outcome: str
    deploy_step: Optional[int]

    @property
    def deployed(self) -> bool:
        return self.deploy_step is not None

    @property
    def episode_return(self) -> float:
        if self.trajectory is None:
            raise ValueError(f"the episode of seed {self.seed} has no trajectory: "
                             "record it with run_episode, not run_batch")
        return float(self.trajectory[:-1, 8].sum())


@dataclass(frozen=True)
class ConfusionMatrix:
    """Episode counts over {deployed, not deployed} x {safe, unsafe (ever exited)}."""

    safe_not_deployed: int = 0
    unsafe_not_deployed: int = 0
    safe_deployed: int = 0
    unsafe_deployed: int = 0

    @property
    def total(self) -> int:
        return (
            self.safe_not_deployed
            + self.unsafe_not_deployed
            + self.safe_deployed
            + self.unsafe_deployed
        )


@dataclass(frozen=True)
class SocPoint:
    alert_rate: float
    safe_rate: float
    parameter: float
    episodes: int
    policy_family: str = ""


@dataclass(frozen=True)
class CalibrationResult:
    wind_sigma: float
    gust_sigma: float
    exit_rate: float
    iterations: int


# The name benchmarks and tests import the kernels' scenario arguments by.
_kernel_scenario_args = fastpath.scenario_args


def _kernel_args(policy: PolicySpec, scenario: Scenario) -> dict:
    """The episode kernels' keyword arguments for ``policy``, all but the wind."""
    theta = policy.theta if policy.theta is not None else np.zeros((N_FEATURES, len(Action)))
    return dict(policy_mode=policy._mode(), delta=policy.delta, theta=theta,
                scales=scenario.feature_scales, alert_penalty=scenario.reward.alert_penalty,
                **fastpath.scenario_args(scenario))


def run_episode(policy: PolicySpec, scenario: Scenario, seed: int) -> EpisodeRecord:
    """Run one seeded episode under the given policy, keeping its trajectory."""
    traj, outcome, deploy_step = fastpath.rollout(
        wind_params=wind_rows(fastpath.wind_draws([seed]), scenario.sim)[0],
        **_kernel_args(policy, scenario))
    return EpisodeRecord(
        seed=seed,
        policy_id=policy.policy_id,
        trajectory=traj,
        outcome=fastpath.VERDICTS[outcome],
        deploy_step=None if deploy_step < 0 else int(deploy_step),
    )


def _real(value) -> bool:
    """Whether ``value`` is a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _seed_list(seeds) -> np.ndarray:
    """``seeds`` checked once, as ``seed_array`` returns them: non-empty and distinct.

    The wind draws take the returned array without a second check.
    """
    seeds = seed_array(seeds)
    if not seeds.size:
        raise ValueError("seed list must be non-empty")
    if len(set(seeds.tolist())) != seeds.size:
        raise ValueError("seeds must be distinct")
    return seeds


def _summary_records(policy: PolicySpec, seeds: np.ndarray, summaries: np.ndarray) -> list:
    """One summary EpisodeRecord per seed, from its row of a ``fastpath.batch`` result."""
    return [
        EpisodeRecord(seed=seed, policy_id=policy.policy_id, trajectory=None,
                      outcome=fastpath.VERDICTS[outcome],
                      deploy_step=None if deploy_step < 0 else deploy_step)
        for seed, (_, outcome, deploy_step, _) in zip(seeds.tolist(), summaries.tolist())
    ]


def run_batch(policy: PolicySpec, scenario: Scenario, seeds):
    """One summary EpisodeRecord per seed, in seed order, from one kernel call.

    The records carry no trajectory (``trajectory`` is None); their outcome
    and deploy step equal ``run_episode``'s for the same seed.
    """
    seeds = _seed_list(seeds)
    summaries = fastpath.batch(wind=wind_rows(fastpath.wind_draws(seeds), scenario.sim),
                               **_kernel_args(policy, scenario))
    return _summary_records(policy, seeds, summaries)


def _ever_exited(record: EpisodeRecord, env: Optional[Envelope]) -> bool:
    if record.outcome == Verdict.EXITED:
        return True
    if env is None or record.trajectory is None:
        return False
    pos = record.trajectory[:, 1:4]
    below = np.any(pos < env.min_corner, axis=1)
    above = np.any(pos > env.max_corner, axis=1)
    return bool(np.any(below | above))


def confusion(records, env: Optional[Envelope] = None) -> ConfusionMatrix:
    """Aggregate episode outcomes into the four-quadrant matrix.

    With an envelope given, a record that carries a trajectory is judged
    exited over its whole trajectory rather than by its terminal outcome
    label. A summary record is judged by its outcome: the kernels end an
    episode at its first state outside the envelope, with the outcome
    EXITED, so the two judgements agree on every kernel episode.
    """
    counts = {"sn": 0, "un": 0, "sd": 0, "ud": 0}
    for record in records:
        unsafe = _ever_exited(record, env)
        if record.deployed:
            counts["ud" if unsafe else "sd"] += 1
        else:
            counts["un" if unsafe else "sn"] += 1
    return ConfusionMatrix(
        safe_not_deployed=counts["sn"],
        unsafe_not_deployed=counts["un"],
        safe_deployed=counts["sd"],
        unsafe_deployed=counts["ud"],
    )


def soc_point(cm: ConfusionMatrix, parameter: float, policy_family: str = "") -> SocPoint:
    if cm.total == 0:
        raise ValueError("cannot compute rates over zero episodes")
    deployed = cm.safe_deployed + cm.unsafe_deployed
    safe = cm.safe_not_deployed + cm.safe_deployed
    return SocPoint(
        alert_rate=deployed / cm.total,
        safe_rate=safe / cm.total,
        parameter=parameter,
        episodes=cm.total,
        policy_family=policy_family,
    )


def sweep_baseline(scenario: Scenario, deltas, seeds):
    """One SOC point per threshold, all on the same seed list, from one kernel call.

    Raises ValueError before any episode runs unless every threshold is
    finite and positive and they ascend.
    """
    policies = [PolicySpec.baseline(delta) for delta in deltas]
    deltas = [policy.delta for policy in policies]
    if deltas != sorted(deltas):
        raise ValueError("deltas must be sorted ascending")
    seeds = _seed_list(seeds)
    if not policies:
        return []
    blocks = fastpath.batch(wind=wind_rows(fastpath.wind_draws(seeds), scenario.sim),
                            **{**_kernel_args(policies[0], scenario), "delta": deltas})
    points = []
    for delta, block in zip(deltas, blocks.tolist()):
        # ConfusionMatrix's counts, as ``confusion`` judges summary records:
        # deployed if it has a deploy step, unsafe if it exited.
        counts = [0, 0, 0, 0]
        for _, outcome, deploy_step, _ in block:
            counts[2 * (deploy_step >= 0) + (outcome == fastpath.OUTCOME_EXITED)] += 1
        points.append(soc_point(ConfusionMatrix(*counts), delta, policy_family="baseline"))
    return points


DEFAULT_WARMSTART_DELTA = 16.0
DEFAULT_WARMSTART_EPISODES = 500


def train_policy(scenario: Scenario, alert_penalty: float, learn_cfg: LearnConfig,
                 seeds_train, warmstart_delta: float = DEFAULT_WARMSTART_DELTA,
                 warmstart_episodes: int = DEFAULT_WARMSTART_EPISODES):
    """Warm start on baseline demos, then train online; returns (theta, log).

    The demos fly the first ``warmstart_episodes`` training seeds. Raises
    ValueError for an invalid ``learn_cfg``, alert penalty, threshold or
    training seed before any episode runs."""
    rc = replace(scenario.reward, alert_penalty=alert_penalty)
    _checked_config(learn_cfg, rc)
    seeds_train = seed_array(seeds_train)
    demo_seeds = _seed_list(seeds_train[:warmstart_episodes])
    theta0 = np.zeros((N_FEATURES, len(Action)))
    theta = learning.warm_start(demo_seeds, warmstart_delta, theta0, learn_cfg, scenario, rc)
    return train(scenario, rc, learn_cfg, theta, wind_seeds=seeds_train)


def sweep_learned(scenario: Scenario, alert_penalties, learn_cfg: LearnConfig,
                  seeds_train, seeds_eval):
    """Train one weight matrix per alert penalty and score each on the eval seeds.

    Evaluation is pure greedy (no exploration). Returns (soc_points, thetas).
    """
    seeds_train = seed_array(seeds_train)
    seeds_eval = _seed_list(seeds_eval)
    if set(seeds_train.tolist()) & set(seeds_eval.tolist()):
        raise ValueError("train and eval seed lists must be disjoint")
    points = []
    thetas = {}
    for alert_penalty in alert_penalties:
        theta, _ = train_policy(scenario, alert_penalty, learn_cfg, seeds_train)
        records = run_batch(PolicySpec.weights(theta), scenario, seeds_eval)
        cm = confusion(records, scenario.envelope)
        points.append(soc_point(cm, alert_penalty, policy_family="learned"))
        thetas[alert_penalty] = theta
    return points, thetas


def _exit_counter(scenario: Scenario, draws: np.ndarray):
    """``fastpath.exit_counter`` on ``scenario`` and the unit draws of its seeds."""
    sim = scenario.sim
    return fastpath.exit_counter(draws, wind=wind_rows(draws, sim),
                                 wind_mean=(sim.wind_mean_x, sim.wind_mean_y),
                                 scales=scenario.feature_scales,
                                 alert_penalty=scenario.reward.alert_penalty,
                                 **fastpath.scenario_args(scenario))


def exit_rate(scenario: Scenario, seeds) -> float:
    """Envelope-exit frequency of the nominal controller alone.

    One count of ``fastpath.exit_counter`` at the scenario's own wind, which
    leaves the fork record alone."""
    draws = fastpath.wind_draws(_seed_list(seeds))
    sim = scenario.sim
    return _exit_counter(scenario, draws)(sim.wind_sigma, sim.gust_sigma) / len(draws)


#: How many exit rates ``calibrate_wind`` may evaluate before it gives up.
CALIBRATION_BUDGET = 40


def calibrate_wind(scenario: Scenario, target_exit_rate: float, seeds,
                   tol: float = 0.02) -> CalibrationResult:
    """Bisect the base-wind standard deviation to hit a nominal-only exit rate.

    Gust strength is scaled proportionally to the base wind throughout. The
    seeds' wind draws are made once, and each evaluation is one count of
    ``fastpath.exit_counter``, which rescales them to the evaluated sigma. The
    bracket starts at ``max(wind_sigma, 1.0)`` and doubles while its exit rate
    is below the target; bisection then keeps the midpoint closest to the
    target and stops once that is within ``tol``. Raises ValueError, before
    any wind is drawn, unless ``target_exit_rate`` is a real number in (0, 1),
    ``tol`` a finite real number >= 0 (neither a bool) and ``seeds`` a valid
    seed list. Raises RuntimeError when ``CALIBRATION_BUDGET`` evaluations do
    not bring the exit rate within ``tol`` of the target.
    """
    if not (_real(target_exit_rate) and 0.0 < target_exit_rate < 1.0):
        raise ValueError(f"target exit rate must lie in (0, 1), got {target_exit_rate!r}")
    if not (_real(tol) and _finite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    target, tol, budget = float(target_exit_rate), float(tol), CALIBRATION_BUDGET
    draws = fastpath.wind_draws(_seed_list(seeds))
    sim = scenario.sim
    gust_ratio = sim.gust_sigma / sim.wind_sigma if sim.wind_sigma > 0 else 0.25
    count = _exit_counter(scenario, draws)

    def rate(sigma):
        return count(sigma, gust_ratio * sigma) / len(draws)

    lo, hi = 0.0, max(float(sim.wind_sigma), 1.0)
    hi_rate, iterations = rate(hi), 1
    while hi_rate < target:
        lo = hi
        hi *= 2.0
        hi_rate = rate(hi)
        iterations += 1
        if iterations >= budget:
            raise RuntimeError("wind calibration failed to bracket the target exit rate")
    best, best_sigma, best_rate = abs(hi_rate - target), hi, hi_rate
    while iterations < budget:
        mid = 0.5 * (lo + hi)
        mid_rate = rate(mid)
        iterations += 1
        if abs(mid_rate - target) < best:
            best, best_sigma, best_rate = abs(mid_rate - target), mid, mid_rate
        if best <= tol:
            break
        if mid_rate < target:
            lo = mid
        else:
            hi = mid
    if best > tol:
        raise RuntimeError(
            f"wind calibration did not reach the target within {budget} evaluations"
        )
    return CalibrationResult(wind_sigma=best_sigma, gust_sigma=gust_ratio * best_sigma,
                             exit_rate=best_rate, iterations=iterations)
