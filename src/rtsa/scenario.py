"""Scenario configuration: envelope, mission, simulator and reward parameters.

Scenarios are plain JSON files. Loading revalidates every invariant and
reports all violations at once with their field paths. A short hash of the
canonical scenario JSON is embedded in every output artifact so results can
be traced back to the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .geometry import Envelope, Mission, build_path
from .policy import RewardConfig
from .sim import SimConfig

__all__ = ["Scenario", "ScenarioError", "load_scenario", "save_scenario", "default_scenario"]


class ScenarioError(ValueError):
    """Raised with the full list of validation problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    envelope: Envelope
    mission: Mission
    sim: SimConfig
    reward: RewardConfig
    feature_scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature_scales", np.asarray(self.feature_scales, dtype=float))

    def validate(self) -> list:
        problems = []
        problems.extend(self.sim.validate())
        problems.extend(f"reward: {p}" for p in self.reward.validate())
        if not np.all(np.isfinite(self.envelope.min_corner)) or not np.all(
            np.isfinite(self.envelope.max_corner)
        ):
            problems.append("envelope corners must be finite")
        if not math.isfinite(self.mission.arrival_radius):
            problems.append("mission.arrival_radius must be finite")
        for i, wp in enumerate(self.mission.waypoints):
            if not (np.all(self.envelope.min_corner < wp) and np.all(wp < self.envelope.max_corner)):
                problems.append(f"mission.waypoints[{i}] does not lie strictly inside the envelope")
        if self.feature_scales.shape != (8,):
            problems.append("feature_scales must hold exactly 8 values")
        elif not np.all(np.isfinite(self.feature_scales) & (self.feature_scales > 0)):
            problems.append("feature_scales must all be positive and finite")
        return problems

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "envelope": {
                "min_corner": self.envelope.min_corner.tolist(),
                "max_corner": self.envelope.max_corner.tolist(),
            },
            "mission": {
                "waypoints": self.mission.waypoints.tolist(),
                "arrival_radius": self.mission.arrival_radius,
            },
            "sim": asdict(self.sim),
            "reward": asdict(self.reward),
            "feature_scales": self.feature_scales.tolist(),
        }

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def with_wind(self, wind_sigma: float, gust_sigma: float) -> "Scenario":
        return replace(self, sim=replace(self.sim, wind_sigma=wind_sigma, gust_sigma=gust_sigma))


def _build(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError([f"a scenario must be a JSON object, not {type(data).__name__}"])
    problems = []

    def grab(section, key, path):
        if key not in section:
            problems.append(f"{path} is missing")
            return None
        return section[key]

    env = None
    env_data = grab(data, "envelope", "envelope")
    if env_data is not None:
        try:
            env = Envelope(np.asarray(env_data["min_corner"]), np.asarray(env_data["max_corner"]))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            problems.append(f"envelope: {exc}")

    mission = None
    mission_data = grab(data, "mission", "mission")
    if mission_data is not None:
        try:
            mission = Mission(
                waypoints=np.asarray(mission_data["waypoints"]),
                arrival_radius=float(mission_data["arrival_radius"]),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            problems.append(f"mission: {exc}")

    try:
        sim = SimConfig(**data.get("sim", {}))
    except TypeError as exc:
        problems.append(f"sim: {exc}")
        sim = None
    try:
        rc = RewardConfig(**data.get("reward", {}))
    except TypeError as exc:
        problems.append(f"reward: {exc}")
        rc = None

    try:
        scales = np.asarray(data.get("feature_scales", []), dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        problems.append(f"feature_scales: {exc}")

    if problems:
        raise ScenarioError(problems)

    scenario = Scenario(
        name=data.get("name", "unnamed"),
        description=data.get("description", ""),
        envelope=env,
        mission=mission,
        sim=sim,
        reward=rc,
        feature_scales=scales,
    )
    problems = scenario.validate()
    if not problems:
        try:
            build_path(scenario.mission)
        except ValueError as exc:
            problems.append(f"mission: {exc}")
    if problems:
        raise ScenarioError(problems)
    return scenario


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError([f"not valid JSON: {exc}"]) from exc
    return _build(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")


def default_scenario() -> Scenario:
    """Bundled demo: a four-waypoint square-ish survey mission inside a box fence.

    Feature scales keep the first eight features O(1): envelope half-extents
    for the distances, cruise speed for the velocity and three base-wind
    standard deviations for the wind components.
    """
    envelope = Envelope(min_corner=[-24.0, -24.0, -6.0], max_corner=[84.0, 84.0, 30.0])
    mission = Mission(
        waypoints=[
            [0.0, 0.0, 12.0],
            [60.0, 0.0, 12.0],
            [60.0, 60.0, 12.0],
            [0.0, 60.0, 0.0],
        ],
        arrival_radius=3.0,
    )
    sim = SimConfig()
    half = envelope.half_extent
    scales = [
        half[0], half[1], half[2],
        sim.cruise_speed, sim.cruise_speed, sim.cruise_speed,
        3.0 * sim.wind_sigma, 3.0 * sim.wind_sigma,
    ]
    return Scenario(
        name="demo-survey",
        description="Four-waypoint survey mission in a box geofence with gusty wind.",
        envelope=envelope,
        mission=mission,
        sim=sim,
        reward=RewardConfig(),
        feature_scales=scales,
    )
