from dataclasses import replace

import numpy as np
import pytest

from rtsa.geometry import Envelope, Mission
from rtsa.policy import RewardConfig
from rtsa.scenario import Scenario, default_scenario
from rtsa.sim import SimConfig


@pytest.fixture(scope="session")
def demo_scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def calibrated_scenario():
    """The bundled demo with its calibrated wind values."""
    from importlib import resources

    from rtsa.scenario import load_scenario

    with resources.as_file(
        resources.files("rtsa.data").joinpath("demo_scenario.json")
    ) as path:
        return load_scenario(path)


@pytest.fixture(scope="session")
def short_scenario(calibrated_scenario):
    """The calibrated demo cut off after 150 steps, so nominal flight times out."""
    return replace(calibrated_scenario, sim=replace(calibrated_scenario.sim, max_steps=150))


@pytest.fixture
def unit_cube():
    return Envelope(min_corner=[0.0, 0.0, 0.0], max_corner=[1.0, 1.0, 1.0])


@pytest.fixture
def calm_scenario():
    """Small scenario with zero wind for deterministic closed-form checks."""
    envelope = Envelope(min_corner=[-20.0, -20.0, -5.0], max_corner=[60.0, 60.0, 25.0])
    mission = Mission(
        waypoints=[[0.0, 0.0, 10.0], [40.0, 0.0, 10.0], [40.0, 40.0, 0.0]],
        arrival_radius=2.0,
    )
    sim = SimConfig(wind_mean_x=0.0, wind_mean_y=0.0, wind_sigma=0.0, gust_sigma=0.0)
    scales = [40.0, 40.0, 15.0, sim.cruise_speed, sim.cruise_speed, sim.cruise_speed, 1.0, 1.0]
    return Scenario(
        name="calm-test",
        description="windless mission for unit tests",
        envelope=envelope,
        mission=mission,
        sim=sim,
        reward=RewardConfig(),
        feature_scales=np.asarray(scales),
    )
