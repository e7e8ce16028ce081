"""Switching policies: feature extraction, linear Q, reward, composition.

The meta-controller observes a 9-dimensional feature vector (signed per-axis
geofence distances, velocity, horizontal wind, deployment indicator) and
scores the two actions with one weight column each. The baseline, which
only the episode kernels fly, deploys on a raw distance threshold. Both
are one-way switches: once the recovery controller is deployed it keeps
control until the episode ends.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .geometry import Envelope, Path, contains, per_axis_boundary_distances
from .sim import ControlInput, SimConfig, VehicleState, nominal_control, recovery_control

__all__ = [
    "Action",
    "RewardConfig",
    "N_FEATURES",
    "extract_features",
    "q_values",
    "greedy_action",
    "rtsa_action",
    "reward",
    "compose_controller",
    "random_weights",
    "save_weights",
    "load_weights",
]

N_FEATURES = 9

#: Serialized weight ordering, recorded in the weight-file header.
WEIGHT_ORDER = (
    "feature-major, features [dist_x, dist_y, dist_z, vel_x, vel_y, vel_z, "
    "wind_x, wind_y, deployed_indicator], actions [continue, deploy]"
)


class Action(IntEnum):
    CONTINUE = 0
    DEPLOY = 1


@dataclass(frozen=True)
class RewardConfig:
    """Step-reward parameters: cost of a (first) deployment and of leaving the fence."""

    alert_penalty: float = 0.05
    exit_penalty: float = 1.0
    discount: float = 0.995

    def validate(self) -> list:
        problems = [
            f"reward.{name} must be a number"
            for name in ("alert_penalty", "exit_penalty", "discount")
            if isinstance(getattr(self, name), bool)
            or not isinstance(getattr(self, name), numbers.Real)
        ]
        if problems:
            return problems
        if not 0 < self.alert_penalty < math.inf:
            problems.append("reward.alert_penalty must be positive and finite")
        if self.exit_penalty != 1.0:
            problems.append("reward.exit_penalty is fixed at 1")
        if not 0.0 < self.discount < 1.0:
            problems.append("reward.discount must lie in (0, 1)")
        return problems


def extract_features(s: VehicleState, env: Envelope, wind_now, scales) -> np.ndarray:
    """Feature vector for the meta-policy; depends on the state only.

    First eight entries are divided by their fixed normalization scales; the
    last is the 0/1 deployment indicator.
    """
    scales = np.asarray(scales, dtype=float)
    phi = np.empty(N_FEATURES)
    phi[0:3] = per_axis_boundary_distances(s.position, env) / scales[0:3]
    phi[3:6] = s.velocity / scales[3:6]
    phi[6:8] = np.asarray(wind_now, dtype=float)[0:2] / scales[6:8]
    phi[8] = 1.0 if s.deployed else 0.0
    return phi


def q_values(theta: np.ndarray, phi: np.ndarray):
    """(q_continue, q_deploy) from one weight column per action."""
    q = phi @ theta
    return float(q[0]), float(q[1])


def greedy_action(theta: np.ndarray, phi: np.ndarray) -> Action:
    """Action with the larger q-value; exact ties go to continue."""
    q_cont, q_dep = q_values(theta, phi)
    return Action.DEPLOY if q_dep > q_cont else Action.CONTINUE


def rtsa_action(theta: np.ndarray, s: VehicleState, env: Envelope, wind_now, scales) -> Action:
    """Learned meta-policy with the one-way deployment latch."""
    if s.deployed:
        return Action.DEPLOY
    return greedy_action(theta, extract_features(s, env, wind_now, scales))


def reward(
    s: VehicleState,
    a: Action,
    s_next: VehicleState,
    env: Envelope,
    rc: RewardConfig,
) -> float:
    """Step reward: -1 on exit, -alert_penalty once at the switching step, else 0.

    The exit penalty dominates if both apply in the same step; the deployment
    cost is charged only when the switch actually flips.
    """
    if not contains(s_next.position, env):
        return -rc.exit_penalty
    if a == Action.DEPLOY and not s.deployed:
        return -rc.alert_penalty
    return 0.0


def compose_controller(
    meta: Action,
    s: VehicleState,
    path: Path,
    wind,
    cfg: SimConfig,
) -> ControlInput:
    """System controller: nominal on continue, recovery on deploy."""
    if meta == Action.DEPLOY:
        return recovery_control(s)
    return nominal_control(s, path, wind, cfg)


def random_weights(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian random initialization of the weight matrix."""
    return scale * rng.standard_normal((N_FEATURES, len(Action)))


def save_weights(theta: np.ndarray, path) -> None:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (N_FEATURES, len(Action)):
        raise ValueError(f"weights must have shape ({N_FEATURES}, {len(Action)})")
    if not np.all(np.isfinite(theta)):
        # load_weights refuses them, and JSON has no NaN or infinity.
        raise ValueError("weights hold non-finite values")
    payload = {"order": WEIGHT_ORDER, "weights": theta.ravel().tolist()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_weights(path) -> np.ndarray:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("weights"), list):
        raise ValueError("weight file must be a JSON object holding a \"weights\" list")
    try:
        flat = np.asarray(payload["weights"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"weight file holds a weight that is not a number: {exc}") from None
    if flat.shape != (N_FEATURES * len(Action),):
        raise ValueError(f"weight file must hold {N_FEATURES * len(Action)} values")
    if not np.all(np.isfinite(flat)):
        raise ValueError("weight file holds non-finite values")
    return flat.reshape(N_FEATURES, len(Action))
