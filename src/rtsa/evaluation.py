"""Seeded episode batches, confusion matrices, SOC sweeps and wind calibration.

Every batch is driven by an explicit seed list and the wind field of episode
i depends only on seeds[i], so any two policies evaluated on the same list
face identical wind realizations. Episode rollouts go through the fastpath
kernel (compiled when available).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import fastpath
from .geometry import Envelope
from .learning import LearnConfig, train, warm_start
from .policy import N_FEATURES, Action
from .sim import Verdict, sample_wind_field
from .scenario import Scenario

__all__ = [
    "PolicySpec",
    "EpisodeRecord",
    "ConfusionMatrix",
    "SocPoint",
    "CalibrationResult",
    "run_batch",
    "confusion",
    "soc_point",
    "sweep_baseline",
    "sweep_learned",
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
        if delta <= 0:
            raise ValueError("baseline delta must be positive")
        return PolicySpec(kind="baseline", delta=float(delta))

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
    reward is 0); all earlier rows are transitions.
    """

    seed: int
    policy_id: str
    trajectory: np.ndarray
    outcome: str
    deploy_step: Optional[int]

    @property
    def deployed(self) -> bool:
        return self.deploy_step is not None

    @property
    def episode_return(self) -> float:
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


def run_episode(policy: PolicySpec, scenario: Scenario, seed: int,
                alert_penalty: Optional[float] = None) -> EpisodeRecord:
    """Run one seeded episode under the given policy."""
    field = sample_wind_field(np.random.default_rng(seed), scenario.sim)
    theta = policy.theta if policy.theta is not None else np.zeros((N_FEATURES, len(Action)))
    if alert_penalty is None:
        alert_penalty = scenario.reward.alert_penalty
    traj, outcome, deploy_step = fastpath.rollout(
        wind_params=fastpath.wind_params(field),
        policy_mode=policy._mode(),
        delta=policy.delta,
        theta=theta,
        scales=scenario.feature_scales,
        alert_penalty=alert_penalty,
        **fastpath.scenario_args(scenario),
    )
    return EpisodeRecord(
        seed=seed,
        policy_id=policy.policy_id,
        trajectory=traj,
        outcome=fastpath.VERDICTS[outcome],
        deploy_step=None if deploy_step < 0 else int(deploy_step),
    )


def run_batch(policy: PolicySpec, scenario: Scenario, seeds,
              alert_penalty: Optional[float] = None):
    """One EpisodeRecord per seed, in seed order."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed list must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    return [run_episode(policy, scenario, seed, alert_penalty) for seed in seeds]


def _ever_exited(record: EpisodeRecord, env: Optional[Envelope]) -> bool:
    if record.outcome == Verdict.EXITED:
        return True
    if env is None:
        return False
    pos = record.trajectory[:, 1:4]
    below = np.any(pos < env.min_corner, axis=1)
    above = np.any(pos > env.max_corner, axis=1)
    return bool(np.any(below | above))


def confusion(records, env: Optional[Envelope] = None) -> ConfusionMatrix:
    """Aggregate episode outcomes into the four-quadrant matrix.

    With an envelope given, exited-ness is judged over the whole trajectory
    rather than trusting the terminal outcome label.
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
    """One SOC point per threshold, all on the same seed list."""
    deltas = list(deltas)
    if deltas != sorted(deltas):
        raise ValueError("deltas must be sorted ascending")
    points = []
    for delta in deltas:
        records = run_batch(PolicySpec.baseline(delta), scenario, seeds)
        cm = confusion(records, scenario.envelope)
        points.append(soc_point(cm, delta, policy_family="baseline"))
    return points


DEFAULT_WARMSTART_DELTA = 16.0
DEFAULT_WARMSTART_EPISODES = 500


def train_policy(scenario: Scenario, alert_penalty: float, learn_cfg: LearnConfig,
                 seeds_train, warmstart_delta: float = DEFAULT_WARMSTART_DELTA,
                 warmstart_episodes: int = DEFAULT_WARMSTART_EPISODES):
    """Warm start from baseline episodes, then train online; returns (theta, log)."""
    seeds_train = list(seeds_train)
    rc = replace(scenario.reward, alert_penalty=alert_penalty)
    warm_seeds = seeds_train[:warmstart_episodes]
    warm_records = run_batch(
        PolicySpec.baseline(warmstart_delta), scenario, warm_seeds, alert_penalty=alert_penalty
    )
    theta0 = np.zeros((N_FEATURES, len(Action)))
    theta = warm_start(warm_records, theta0, learn_cfg, scenario, rc)
    return train(scenario, rc, learn_cfg, theta, wind_seeds=seeds_train)


def sweep_learned(scenario: Scenario, alert_penalties, learn_cfg: LearnConfig,
                  seeds_train, seeds_eval,
                  warmstart_delta: float = DEFAULT_WARMSTART_DELTA,
                  warmstart_episodes: int = DEFAULT_WARMSTART_EPISODES):
    """Train one weight matrix per alert penalty and score each on the eval seeds.

    Evaluation is pure greedy (no exploration). Returns (soc_points, thetas).
    """
    seeds_train = list(seeds_train)
    seeds_eval = list(seeds_eval)
    if set(seeds_train) & set(seeds_eval):
        raise ValueError("train and eval seed lists must be disjoint")
    points = []
    thetas = {}
    for alert_penalty in alert_penalties:
        theta, _ = train_policy(
            scenario, alert_penalty, learn_cfg, seeds_train,
            warmstart_delta=warmstart_delta, warmstart_episodes=warmstart_episodes,
        )
        records = run_batch(PolicySpec.weights(theta), scenario, seeds_eval,
                            alert_penalty=alert_penalty)
        cm = confusion(records, scenario.envelope)
        points.append(soc_point(cm, alert_penalty, policy_family="learned"))
        thetas[alert_penalty] = theta
    return points, thetas


def exit_rate(scenario: Scenario, seeds) -> float:
    """Envelope-exit frequency of the nominal controller alone."""
    records = run_batch(PolicySpec.nominal(), scenario, seeds)
    return sum(r.outcome == Verdict.EXITED for r in records) / len(records)


def calibrate_wind(scenario: Scenario, target_exit_rate: float, seeds,
                   tol: float = 0.02, max_steps: int = 40) -> CalibrationResult:
    """Bisect the base-wind standard deviation to hit a nominal-only exit rate.

    Gust strength is scaled proportionally to the base wind throughout.
    """
    if not 0.0 < target_exit_rate < 1.0:
        raise ValueError("target exit rate must lie in (0, 1)")
    seeds = list(seeds)
    sim = scenario.sim
    gust_ratio = sim.gust_sigma / sim.wind_sigma if sim.wind_sigma > 0 else 0.25

    def rate(sigma: float) -> float:
        return exit_rate(scenario.with_wind(sigma, gust_ratio * sigma), seeds)

    iterations = 0
    lo, hi = 0.0, max(sim.wind_sigma, 1.0)
    hi_rate = rate(hi)
    iterations += 1
    while hi_rate < target_exit_rate:
        lo = hi
        hi *= 2.0
        hi_rate = rate(hi)
        iterations += 1
        if iterations >= max_steps:
            raise RuntimeError("wind calibration failed to bracket the target exit rate")

    best = (abs(hi_rate - target_exit_rate), hi, hi_rate)
    while iterations < max_steps:
        mid = 0.5 * (lo + hi)
        mid_rate = rate(mid)
        iterations += 1
        if abs(mid_rate - target_exit_rate) < best[0]:
            best = (abs(mid_rate - target_exit_rate), mid, mid_rate)
        if best[0] <= tol:
            break
        if mid_rate < target_exit_rate:
            lo = mid
        else:
            hi = mid
    if best[0] > tol:
        raise RuntimeError(
            f"wind calibration did not reach the target within {max_steps} evaluations"
        )
    sigma = best[1]
    return CalibrationResult(
        wind_sigma=sigma,
        gust_sigma=gust_ratio * sigma,
        exit_rate=best[2],
        iterations=iterations,
    )
