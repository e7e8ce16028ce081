"""Backend selection for the episode kernels, and the ctypes calls into C.

At import, loads the C kernels in ``_rollout.c`` through ctypes. They are
compiled once per source and flags into ``__pycache__/_rollout-<sha12>.so``
next to this file, so later imports only hash the source and load the
library. When the build fails, or ``RTSA_PURE_PYTHON`` is set in the
environment, ``rollout``, ``batch``, ``learn_episode`` and ``replay`` are
the pure-Python twins in ``_rollout_py`` instead and ``FALLBACK_REASON``
says why. Both backends take the same arguments, check them with the same
``_rollout_py`` functions (``pack`` states the argument format) and give
bit-identical results (see tests/test_fastpath.py). ``rollout`` returns one
episode's trajectory; ``batch`` runs one episode per row of an (n, 8) wind
array and returns only their (n, 4) summaries. Given k ascending baseline
thresholds, ``batch`` returns (k, n, 4) summaries from one call that flies
each row's shared nominal prefix once, as one trunk that forks a parachute
tail at each threshold's deploy step. The C ``batch`` spreads the rows over
as many threads as the process may use CPUs (at most one per row), with the
same result on any count. The learning kernels update a
(2, 9) float64 array of weight columns in place; the compiled learner draws
its exploration from the numpy Generator's bit generator through numpy's
``bitgen_t`` struct, so the Generator's state advances exactly as under the
Python twin.
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
from ._rollout_py import (
    ZERO_SEGMENT,
    check_generator,
    checked,
    checked_rows,
    pack,
    replay_arrays,
    thresholds,
    weight_columns,
    weights_in_place,
)
from ._rollout_py import batch as batch_python
from ._rollout_py import learn_episode as learn_episode_python
from ._rollout_py import replay as replay_python
from ._rollout_py import rollout as rollout_python
from .sim import Verdict

_SOURCE = Path(__file__).with_name("_rollout.c")
# -ffp-contract=off keeps every multiply and add separately rounded, as in
# the Python twin; a contracted FMA would break bit-identity.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_LDLIBS = ("-lm", "-pthread")
_Out = ctypes.c_int * 4  # (steps, outcome, deploy_step, deploy_greedy)
_LearnOut = ctypes.c_double * 2  # (discounted return, largest squared feature norm)
_DOUBLES = ctypes.POINTER(ctypes.c_double)
_INT64S = ctypes.POINTER(ctypes.c_int64)
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = (ctypes.py_object, ctypes.c_char_p)
_capsule_pointer.restype = ctypes.c_void_p


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
    """The C kernels' library, compiled first if no build is cached."""
    target = _library_path()
    if not target.exists():
        _compile(target)
    lib = ctypes.CDLL(str(target))
    c_int, c_double = ctypes.c_int, ctypes.c_double
    lib.rtsa_rollout.argtypes = (_DOUBLES, c_int, c_int, c_int, c_double, _DOUBLES, _DOUBLES,
                                 _DOUBLES, ctypes.POINTER(c_int))
    lib.rtsa_rollout.restype = c_int
    lib.rtsa_batch.argtypes = (_DOUBLES, c_int, c_int, c_int, _DOUBLES, c_int, _DOUBLES, c_int,
                               _DOUBLES, ctypes.POINTER(c_int), c_int)
    lib.rtsa_batch.restype = c_int
    lib.rtsa_learn_episode.argtypes = (_DOUBLES, c_int, c_int, _DOUBLES, _DOUBLES, c_double,
                                       c_double, c_double, c_double, ctypes.c_void_p,
                                       ctypes.POINTER(c_int), _DOUBLES)
    lib.rtsa_learn_episode.restype = c_int
    lib.rtsa_replay.argtypes = (_DOUBLES, _DOUBLES, _INT64S, _DOUBLES, _INT64S, _INT64S,
                                ctypes.c_int64, c_double, c_double)
    lib.rtsa_replay.restype = None
    return lib


def _pointer(array, ctype=ctypes.c_double):
    return ctypes.byref(ctype.from_buffer(array))


def _raise_for(status):
    if status == -1:
        raise ValueError(ZERO_SEGMENT)
    if status != 0:
        raise MemoryError("the episode kernel could not allocate its path segments")


def rollout_compiled(*, wind_params, policy_mode, delta, theta, **scenario):
    """``_rollout_py.rollout`` on the C kernel: same arguments, same result."""
    params, n_waypoints, steps = pack(policy_mode, **scenario)
    threshold = float(thresholds(policy_mode, checked("delta", delta, ())))
    wind, columns = checked("wind_params", wind_params, (8,)), weight_columns(theta)
    traj = np.empty((steps + 1, 9))
    out = _Out()
    _raise_for(_lib.rtsa_rollout(_pointer(params), n_waypoints, int(policy_mode), steps,
                                 threshold, _pointer(wind), _pointer(columns), _pointer(traj),
                                 out))
    return traj[: out[0] + 1].copy(), out[1], out[2]


def batch_workers(n_rows: int) -> int:
    """Threads for a C batch of ``n_rows`` episodes: one per CPU the process may
    use, but no more than rows."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_rows)


def batch_compiled(*, wind, policy_mode, delta, theta, **scenario):
    """``_rollout_py.batch`` on the C kernel: same arguments, same result.

    Runs on ``batch_workers`` threads."""
    params, n_waypoints, steps = pack(policy_mode, **scenario)
    deltas = thresholds(policy_mode, delta)
    table, columns = checked_rows("wind", wind, 8, at_least=1), weight_columns(theta)
    n_rows = table.shape[0]
    out = np.empty(deltas.shape + (n_rows, 4), dtype=np.intc)
    _raise_for(_lib.rtsa_batch(_pointer(params), n_waypoints, int(policy_mode), steps,
                               _pointer(table), n_rows, _pointer(deltas), deltas.size,
                               _pointer(columns), _pointer(out, ctypes.c_int),
                               batch_workers(n_rows)))
    return out


def learn_episode_compiled(theta, exit_penalty, discount, learning_rate, epsilon, rng, *,
                           wind_params, **scenario):
    """``_rollout_py.learn_episode`` on the C kernel: same arguments, same result,
    same updates to ``theta`` and the same draws from ``rng``."""
    theta = weights_in_place(theta)
    check_generator(rng)
    params, n_waypoints, steps = pack(POLICY_WEIGHTS, **scenario)
    wind = checked("wind_params", wind_params, (8,))
    out = _Out()
    learn_out = _LearnOut()
    bit_generator = rng.bit_generator
    # The bitgen_t behind the Generator; the capsule is cheaper to reach than
    # bit_generator.ctypes, which builds its ctypes view on first use.
    bitgen = _capsule_pointer(bit_generator.capsule, b"BitGenerator")
    with bit_generator.lock:
        status = _lib.rtsa_learn_episode(
            _pointer(params), n_waypoints, steps, _pointer(wind), _pointer(theta), exit_penalty,
            discount, learning_rate, epsilon, bitgen, out, learn_out)
    _raise_for(status)
    n, outcome, deploy_step, deploy_greedy = out
    return (learn_out[0], outcome, deploy_step, None if deploy_greedy < 0 else bool(deploy_greedy),
            n, learn_out[1])


def replay_compiled(theta, phi, actions, rewards, ends, terminal, learning_rate, discount):
    """``_rollout_py.replay`` on the C kernel: same arguments, same updates to ``theta``."""
    theta, phi, actions, rewards, ends, terminal = replay_arrays(theta, phi, actions, rewards,
                                                                 ends, terminal)
    _lib.rtsa_replay(_pointer(theta), _pointer(phi), _pointer(actions, ctypes.c_int64),
                     _pointer(rewards), _pointer(ends, ctypes.c_int64),
                     _pointer(terminal, ctypes.c_int64), ends.size, learning_rate, discount)


FALLBACK_REASON = None
if os.environ.get("RTSA_PURE_PYTHON"):
    FALLBACK_REASON = "RTSA_PURE_PYTHON is set"
else:
    try:
        _lib = _load_kernel()
    except OSError as exc:
        FALLBACK_REASON = str(exc)
if FALLBACK_REASON is None:
    rollout, batch = rollout_compiled, batch_compiled
    learn_episode, replay = learn_episode_compiled, replay_compiled
    BACKEND = "c"
else:
    rollout_compiled = batch_compiled = learn_episode_compiled = replay_compiled = None
    rollout, batch = rollout_python, batch_python
    learn_episode, replay = learn_episode_python, replay_python
    BACKEND = "python"

#: Verdict name of each kernel outcome code.
VERDICTS = {
    OUTCOME_COMPLETED: Verdict.COMPLETED,
    OUTCOME_EXITED: Verdict.EXITED,
    OUTCOME_GROUNDED: Verdict.GROUNDED,
    OUTCOME_TIMEOUT: Verdict.TIMEOUT,
}


def scenario_args(scenario) -> dict:
    """The scenario's keyword arguments to ``_rollout_py.pack``, but for ``scales`` and
    ``alert_penalty``."""
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

