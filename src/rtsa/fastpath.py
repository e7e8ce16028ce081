"""Backend selection for the episode rollout kernel, and the kernels' arguments.

At import, loads the C kernel ``_rollout.c`` through ctypes. The kernel is
compiled once per source and flags into ``__pycache__/_rollout-<sha12>.so``
next to this file, so later imports only hash the source and load the
library. When the build fails, or ``RTSA_PURE_PYTHON`` is set in the
environment, ``rollout`` is the pure-Python twin instead and
``FALLBACK_REASON`` says why. Both kernels implement identical arithmetic
(see tests/test_fastpath.py).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

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
from .policy import N_FEATURES
from .sim import MAX_STEPS, Verdict

_SOURCE = Path(__file__).with_name("_rollout.c")
# -ffp-contract=off keeps every multiply and add separately rounded, as in
# the Python twin; a contracted FMA would break bit-identity.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_LDLIBS = ("-lm",)
_Out = ctypes.c_int * 3  # (steps, outcome, deploy_step)


def _library_path() -> Path:
    key = _SOURCE.read_bytes() + " ".join(_CFLAGS + _LDLIBS).encode()
    digest = hashlib.sha256(key).hexdigest()[:12]
    return _SOURCE.parent / "__pycache__" / f"_rollout-{digest}.so"


def _compile(target: Path) -> None:
    """Build the kernel into ``target`` (via a temporary file, then a rename).

    Tries sysconfig's ``CC``, then ``cc``; raises OSError with each
    compiler's complaint when none succeeds.
    """
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    compilers = dict.fromkeys(c for c in (sysconfig.get_config_var("CC"), "cc") if c)
    target.parent.mkdir(exist_ok=True)
    errors = []
    for cc in map(shlex.split, compilers):
        fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp", dir=target.parent)
        os.close(fd)
        try:
            subprocess.run([*cc, *_CFLAGS, "-o", tmp, str(_SOURCE), *_LDLIBS],
                           capture_output=True, text=True, errors="replace", timeout=300,
                           check=True)
            os.replace(tmp, target)
            return
        except subprocess.CalledProcessError as exc:
            errors.append(f"{' '.join(cc)} exited {exc.returncode}: {exc.stderr.strip()}")
        except (OSError, subprocess.SubprocessError) as exc:
            errors.append(f"{' '.join(cc)}: {exc}")
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    raise OSError("could not compile _rollout.c: " + "; ".join(errors))


def _load_kernel():
    """The C entry point ``rtsa_rollout``, compiled first if no build is cached."""
    target = _library_path()
    if not target.exists():
        _compile(target)
    fn = ctypes.CDLL(str(target)).rtsa_rollout
    fn.argtypes = (ctypes.POINTER(ctypes.c_double), ctypes.c_int, ctypes.c_int, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int))
    fn.restype = ctypes.c_int
    return fn


def _checked(name, value, shape):
    array = np.asarray(value, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def rollout_compiled(
    env_min,
    env_max,
    waypoints,
    arrival_radius,
    dt,
    a_max,
    cruise_speed,
    lookahead,
    kp,
    kd,
    air_drag,
    drag_z,
    drag_xy,
    max_steps,
    wind_params,
    policy_mode,
    delta,
    theta,
    scales,
    alert_penalty,
):
    """``_rollout_py.rollout`` on the C kernel: same arguments, same result.

    Checks every array's shape and ``max_steps`` before C sees them, and
    raises ValueError instead of reading or writing out of bounds.
    """
    wps = np.asarray(waypoints, dtype=float)
    if wps.ndim != 2 or wps.shape[0] < 2 or wps.shape[1] != 3:
        raise ValueError(f"waypoints must have shape (n >= 2, 3), got {wps.shape}")
    steps = int(max_steps)
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"max_steps must lie in [1, {MAX_STEPS}], got {max_steps}")
    # The packed parameter array; its layout is the P_* offsets in _rollout.c.
    params = np.concatenate(
        (
            _checked("env_min", env_min, (3,)),
            _checked("env_max", env_max, (3,)),
            (arrival_radius, dt, a_max, cruise_speed, lookahead, kp, kd, air_drag, drag_z,
             drag_xy, delta, alert_penalty),
            _checked("wind_params", wind_params, (8,)),
            _checked("scales", scales, (8,)),
            _checked("theta", theta, (N_FEATURES, 2)).ravel(),
            wps.ravel(),
        ),
        dtype=float,
    )
    traj = np.empty((steps + 1, 9))
    out = _Out()
    status = _kernel(
        ctypes.byref(ctypes.c_double.from_buffer(params)),
        wps.shape[0],
        int(policy_mode),
        steps,
        ctypes.byref(ctypes.c_double.from_buffer(traj)),
        out,
    )
    if status == -1:
        raise ValueError("waypoints hold a zero-length segment")
    if status != 0:
        raise MemoryError("the rollout kernel could not allocate its path segments")
    n, outcome, deploy_step = out
    return traj[: n + 1].copy(), outcome, deploy_step


FALLBACK_REASON = None
if os.environ.get("RTSA_PURE_PYTHON"):
    FALLBACK_REASON = "RTSA_PURE_PYTHON is set"
else:
    try:
        _kernel = _load_kernel()
    except OSError as exc:
        FALLBACK_REASON = str(exc)
if FALLBACK_REASON is None:
    rollout = rollout_compiled
    BACKEND = "c"
else:
    rollout_compiled = None
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
