"""Backend selection for the episode rollout kernel, and the kernels' arguments.

Prefers the compiled extension; falls back to the pure-Python twin when the
extension is missing or when ``RTSA_PURE_PYTHON`` is set in the environment.
Both backends implement identical arithmetic (see tests/test_fastpath.py).
"""

from __future__ import annotations

import os

import numpy as np

from ._rollout_py import (  # noqa: F401  (re-exported constants)
    OUTCOME_COMPLETED,
    OUTCOME_EXITED,
    OUTCOME_GROUNDED,
    OUTCOME_TIMEOUT,
    POLICY_BASELINE,
    POLICY_NOMINAL,
    POLICY_WEIGHTS,
)
from ._rollout_py import rollout as rollout_python
from .sim import Verdict

if os.environ.get("RTSA_PURE_PYTHON"):
    rollout = rollout_python
    BACKEND = "python"
else:
    try:
        from ._rollout_cy import rollout as rollout_compiled

        rollout = rollout_compiled
        BACKEND = "cython"
    except ImportError:
        rollout = rollout_python
        BACKEND = "python"

#: Verdict name of each kernel outcome code.
VERDICTS = {
    OUTCOME_COMPLETED: Verdict.COMPLETED,
    OUTCOME_EXITED: Verdict.EXITED,
    OUTCOME_GROUNDED: Verdict.GROUNDED,
    OUTCOME_TIMEOUT: Verdict.TIMEOUT,
}


def scenario_args(scenario) -> dict:
    """The scenario's keyword arguments to the episode kernels."""
    sim = scenario.sim
    return {
        "env_min": scenario.envelope.min_corner,
        "env_max": scenario.envelope.max_corner,
        "waypoints": scenario.mission.waypoints,
        "arrival_radius": scenario.mission.arrival_radius,
        "dt": sim.dt,
        "a_max": sim.a_max,
        "cruise_speed": sim.cruise_speed,
        "lookahead": sim.lookahead,
        "kp": sim.kp,
        "kd": sim.kd,
        "air_drag": sim.air_drag,
        "drag_z": sim.parachute_drag_z,
        "drag_xy": sim.parachute_drag_xy,
        "max_steps": sim.max_steps,
    }


def wind_params(field) -> np.ndarray:
    """A WindField as the kernels' (base_x, base_y, amp_x, amp_y, freq_x, freq_y,
    phase_x, phase_y)."""
    return np.array(
        [
            field.base[0],
            field.base[1],
            field.gust_amplitude[0],
            field.gust_amplitude[1],
            field.gust_frequencies[0],
            field.gust_frequencies[1],
            field.gust_phases[0],
            field.gust_phases[1],
        ]
    )
