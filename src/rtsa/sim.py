"""Reduced-state multirotor simulation with stochastic wind.

The vehicle is a point mass with bounded commanded acceleration. The nominal
autopilot is a pure-pursuit PD path follower; the recovery controller cuts
thrust and opens a parachute. Wind enters through a linear air-drag coupling,
so strong wind can push the closed loop off course. Both controllers are
queried generatively and never introspected by the rest of the system.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .geometry import Envelope, Mission, Path, contains, path_target

__all__ = [
    "VehicleState",
    "ControlInput",
    "WindField",
    "SimConfig",
    "Verdict",
    "sample_wind_field",
    "is_seed",
    "seed_array",
    "wind_draws",
    "wind_rows",
    "wind_at",
    "nominal_control",
    "recovery_control",
    "step",
    "episode_terminated",
]

GRAVITY = 9.81

#: Largest accepted ``max_steps``: the C kernel's caller preallocates
#: (max_steps + 1) x 9 float64 trajectory rows, 72 MB at this bound.
MAX_STEPS = 1_000_000

#: Largest accepted episode count (a seed range, ``learn.episodes``): each
#: episode takes a row of the wind table, 64 bytes, and a training row, 64 more.
MAX_EPISODES = 1_000_000


@dataclass(frozen=True)
class VehicleState:
    position: np.ndarray
    velocity: np.ndarray
    time: float = 0.0
    deployed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))


@dataclass(frozen=True)
class ControlInput:
    commanded_acceleration: np.ndarray
    parachute: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "commanded_acceleration",
            np.asarray(self.commanded_acceleration, dtype=float),
        )


@dataclass(frozen=True)
class WindField:
    """Per-episode wind: constant horizontal base plus sinusoidal gusts.

    Purely horizontal by construction (no vertical wind), deterministic given
    the field parameters and the query time.
    """

    base: np.ndarray
    gust_amplitude: np.ndarray
    gust_frequencies: np.ndarray
    gust_phases: np.ndarray

    def __post_init__(self):
        for name in ("base", "gust_amplitude", "gust_frequencies", "gust_phases"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def finite_fields(config, section: str, names, problems: list) -> set:
    """The fields among ``names`` that hold finite real numbers (bools excluded).

    Appends a problem to ``problems`` for every other one. Range checks belong
    on the returned fields only: a string makes a comparison raise, and NaN
    passes every one of them.
    """
    finite = set()
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            problems.append(f"{section}.{name} must be a number")
        elif not _finite(value):
            problems.append(f"{section}.{name} must be finite")
        else:
            finite.add(name)
    return finite


def _finite(value) -> bool:
    """Whether the real number ``value`` is finite as a float: an integer too large
    for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.05
    a_max: float = 6.0
    cruise_speed: float = 5.0
    lookahead: float = 10.0
    kp: float = 0.4
    kd: float = 2.0
    air_drag: float = 0.4
    parachute_drag_z: float = 1.5
    parachute_drag_xy: float = 0.0
    max_steps: int = 2400
    wind_mean_x: float = 6.0
    wind_mean_y: float = 3.0
    wind_sigma: float = 8.0
    gust_sigma: float = 2.0

    def validate(self) -> list:
        problems = []
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
            problems.append("sim.max_steps must be an integer")
        elif not 1 <= steps <= MAX_STEPS:
            problems.append(f"sim.max_steps must lie in [1, {MAX_STEPS}]")
        finite = finite_fields(
            self, "sim", [f.name for f in fields(self) if f.name != "max_steps"], problems
        )
        for name in ("dt", "a_max", "cruise_speed", "lookahead"):
            if name in finite and getattr(self, name) <= 0:
                problems.append(f"sim.{name} must be positive")
        for name in ("air_drag", "parachute_drag_z", "parachute_drag_xy"):
            if name in finite and getattr(self, name) < 0:
                problems.append(f"sim.{name} must be non-negative")
        if any(n in finite and getattr(self, n) < 0 for n in ("wind_sigma", "gust_sigma")):
            problems.append("sim wind parameters must be non-negative")
        return problems


class Verdict:
    """Episode termination verdicts."""

    RUNNING = "running"
    COMPLETED = "completed"
    EXITED = "exited"
    GROUNDED = "grounded"
    TIMEOUT = "timeout"


# Gust frequency band (rad/s): periods of roughly 12 s to 2 min, so gusts
# evolve over a mission but are not noise.
_GUST_FREQ_LO = 0.05
_GUST_FREQ_HI = 0.5


def sample_wind_field(rng: np.random.Generator, cfg: SimConfig) -> WindField:
    """Draw a per-episode wind field.

    The horizontal base components are the prevailing wind (wind_mean_x/y)
    plus zero-mean Gaussian variation with std-dev wind_sigma. Draw order is
    fixed: base x, base y, then per horizontal axis the gust amplitude
    ~ U(0, 2 * gust_sigma), frequency ~ U(0.05, 0.5) rad/s and phase
    ~ U(0, 2 pi). The same seed always yields the same field.
    """
    bx, by, ax, ay, fx, fy, px, py = wind_rows(_unit_draws(rng)[np.newaxis], cfg)[0]
    return WindField(base=[bx, by, 0.0], gust_amplitude=[ax, ay, 0.0],
                     gust_frequencies=[fx, fy, 0.0], gust_phases=[px, py, 0.0])


def _unit_draws(rng: np.random.Generator) -> np.ndarray:
    """The eight unit draws behind one wind field: two standard normals (base x,
    y), then per axis the uniforms on [0, 1) for amplitude, frequency, phase."""
    return np.concatenate((rng.standard_normal(2), rng.random(6)))


#: Seeds are integers below this bound, the range of one 64-bit word.
SEED_BOUND = 2**64


def is_seed(value) -> bool:
    """Whether ``value`` is a Python or numpy integer in [0, 2**64), bools excluded."""
    # Concrete types, not numbers.Integral: an abstract-class check costs most of
    # a seed list's check, and every seed of every list is checked.
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and 0 <= value < SEED_BOUND)


def seed_array(seeds) -> np.ndarray:
    """``seeds`` as a new uint64 array, or ValueError naming the first that is not a seed.

    A writable C-contiguous 1-D uint64 array, which can hold only seeds, is
    returned as it is.
    """
    if (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1
            and seeds.flags.c_contiguous and seeds.flags.writeable):
        return seeds
    seeds = list(seeds)
    for seed in seeds:
        if not is_seed(seed):
            raise ValueError(f"seeds must be integers in [0, 2**64), got {seed!r}")
    return np.array(seeds, dtype=np.uint64)


def wind_draws(seeds) -> np.ndarray:
    """The unit draws of each seed's wind field, one (n, 8) row per seed.

    Row i is what ``sample_wind_field(np.random.default_rng(seeds[i]), cfg)``
    draws, for any ``cfg``: ``wind_rows`` scales the table to a config's wind.
    Raises ValueError as ``seed_array`` does, before drawing. This is the
    reference for ``fastpath.wind_draws``.
    """
    seeds = seed_array(seeds).tolist()
    draws = np.empty((len(seeds), 8))
    for i, seed in enumerate(seeds):
        draws[i] = _unit_draws(np.random.default_rng(seed))
    return draws


# Kernel wind order (base x/y, amplitude x/y, frequency x/y, phase x/y) by
# draw column: base x, base y, then amplitude, frequency, phase for x, then y.
_KERNEL_ORDER = [0, 1, 2, 5, 3, 6, 4, 7]


def wind_rows(draws: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Unit draws (``wind_draws``) scaled into the kernels' (n, 8) wind rows.

    Columns are the kernels' wind order: base, gust amplitude, gust
    frequency and gust phase, each x then y. Each normal z becomes
    mean + sigma * z and each uniform u becomes lo + (hi - lo) * u, the
    arithmetic numpy's ``Generator.uniform`` performs, so a row equals the
    field ``sample_wind_field`` draws for the same seed bit for bit.
    """
    uniform = ((0.0, 2.0 * cfg.gust_sigma), (_GUST_FREQ_LO, _GUST_FREQ_HI), (0.0, 2.0 * math.pi))
    bounds = [b for b in uniform for _axis in range(2)]
    offset = np.array([cfg.wind_mean_x, cfg.wind_mean_y] + [lo for lo, _ in bounds])
    scale = np.array([cfg.wind_sigma, cfg.wind_sigma] + [hi - lo for lo, hi in bounds])
    return offset + scale * np.asarray(draws, dtype=float)[:, _KERNEL_ORDER]


def wind_at(field: WindField, p, t: float) -> np.ndarray:
    """Wind velocity at position p and time t (vertical component is zero)."""
    w = field.base + field.gust_amplitude * np.sin(field.gust_frequencies * t + field.gust_phases)
    w[2] = 0.0
    return w


def nominal_control(s: VehicleState, path: Path, wind, cfg: SimConfig) -> ControlInput:
    """Black-box path follower: PD tracking of a pure-pursuit target.

    No wind feedforward; the wind argument is part of the generative query
    interface but an off-the-shelf tracker does not observe it.
    """
    target = path_target(path, s.position, cfg.lookahead)
    to_target = target - s.position
    dist = float(np.linalg.norm(to_target))
    if dist > 1e-9:
        v_des = cfg.cruise_speed * (to_target / dist)
    else:
        v_des = np.zeros(3)
    u = cfg.kp * to_target + cfg.kd * (v_des - s.velocity)
    norm = float(np.linalg.norm(u))
    if norm > cfg.a_max:
        u = u * (cfg.a_max / norm)
    return ControlInput(commanded_acceleration=u, parachute=False)


def recovery_control(s: VehicleState) -> ControlInput:
    """Terminal recovery: rotors off, parachute out."""
    return ControlInput(commanded_acceleration=np.zeros(3), parachute=True)


def step(s: VehicleState, u: ControlInput, field: WindField, cfg: SimConfig) -> VehicleState:
    """Advance the vehicle one time step with semi-implicit Euler.

    Nominal mode is hover-compensated: gravity is cancelled by thrust and the
    net acceleration is the command plus air drag against the wind-relative
    velocity. Parachute mode has no thrust: gravity, vertical parachute drag
    and (optionally) horizontal parachute drag act on the wind-relative
    velocity. Ground contact (z = 0) halts the vehicle.
    """
    w = wind_at(field, s.position, s.time)
    parachute = u.parachute or s.deployed
    if parachute:
        v_rel = w - s.velocity
        a = np.array(
            [
                cfg.parachute_drag_xy * v_rel[0],
                cfg.parachute_drag_xy * v_rel[1],
                -GRAVITY + cfg.parachute_drag_z * v_rel[2],
            ]
        )
    else:
        a = u.commanded_acceleration + cfg.air_drag * (w - s.velocity)
    v = s.velocity + cfg.dt * a
    p = s.position + cfg.dt * v
    if p[2] <= 0.0:
        p = np.array([p[0], p[1], 0.0])
        v = np.zeros(3)
    return VehicleState(position=p, velocity=v, time=s.time + cfg.dt, deployed=parachute)


def episode_terminated(
    s: VehicleState,
    env: Envelope,
    mission: Mission,
    step_count: int,
    cfg: SimConfig,
) -> str:
    """Classify the current state; precedence exited > completed > grounded > timeout."""
    if not contains(s.position, env):
        return Verdict.EXITED
    if not s.deployed:
        if np.linalg.norm(s.position - mission.waypoints[-1]) <= mission.arrival_radius:
            return Verdict.COMPLETED
    if s.deployed and s.position[2] == 0.0:
        return Verdict.GROUNDED
    if step_count >= cfg.max_steps:
        return Verdict.TIMEOUT
    return Verdict.RUNNING
