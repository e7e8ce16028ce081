"""Backend selection for the episode kernels, and the ctypes calls into C.

At import, loads the C kernels in ``_rollout.c`` through ctypes. They are
compiled and linked with numpy's ``libnpyrandom.a`` once per source, archive
and flags into ``__pycache__/_rollout-<sha12>.so`` next to this file, so
later imports only hash the inputs and load the library; a new build deletes
the older ones. When the build fails (no compiler, no ``libnpyrandom.a``), or
``RTSA_PURE_PYTHON`` is set in the environment, ``rollout``, ``batch``,
``exit_counter``, ``train`` and ``wind_draws`` are the pure-Python twins in
``_rollout_py`` and ``sim`` instead and ``FALLBACK_REASON`` says why. Both
backends take the same arguments, check them with the same functions
(``_rollout_py.pack`` states the argument format) and give bit-identical
results (see tests/test_fastpath.py). ``rollout`` returns one episode's
trajectory; ``batch`` runs one episode per row of an (n, 8) wind array and
returns only their (n, 4) summaries. Given k ascending baseline thresholds,
``batch`` returns (k, n, 4) summaries from one call that flies each row's
shared nominal prefix once, as one trunk that forks a parachute tail at each
threshold's deploy step. That trunk is the nominal flight: a nominal
``batch`` records checkpoints of each row's flight, and a baseline ``batch``
on the same scenario and wind as the last nominal one resumes each
threshold's trunk from them, fewer than ``_rollout_py.FORK_GAP`` steps
before it deploys. Both backends take and store that record through
``_rollout_py.fork_record``, which states its layout, so a record made by
either serves a sweep on the other. The C ``batch`` shares the rows out
between its calling thread and the threads of one worker pool, as many
threads in all as the process may use CPUs, at most one per row and at most
8 (``MAX_WORKERS`` in ``_rollout.c``), with the same result and the same
record on any count. The pool's threads start with the first batch that asks
for more than one and stay for the life of the process (a forked child
starts its own); between calls they spin briefly, then sleep, so
back-to-back batches start no thread and rarely wait for one to wake.
``exit_counter`` checks a nominal batch's arguments
once and returns a counter of its exits at a given wind strength: each count
is one call that rescales the seeds' wind rows from their unit draws and
flies them as a nominal batch on the same threads, which records no
checkpoints and so leaves the fork record alone. It holds no calibration
policy: ``evaluation.calibrate_wind`` brackets and bisects with it, and
``evaluation.exit_rate`` makes one count. ``train`` runs Q-learning episodes
under a given policy in one call, updating a (2, 9) float64 array of weight
columns in place: online training flies the weights policy, and warm start
the baseline, every pass in one call. Under a policy that does not read the
weights, ``train`` flies each wind row once and replays the recorded
transitions of that flight on every later pass over the rows, with the
weights and rows that flying it again would give. The C kernels seed their
random streams as numpy's ``default_rng`` does, so ``wind_draws`` and
``train`` draw exactly what their twins draw.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np

from . import _rollout_py
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
    TRAIN_COLUMNS,
    ZERO_SEGMENT,
    calibration_arrays,
    checked,
    checked_rows,
    one_threshold,
    pack,
    thresholds,
    train_arrays,
    weight_columns,
)
from ._rollout_py import batch as batch_python
from ._rollout_py import exit_counter as exit_counter_python
from ._rollout_py import rollout as rollout_python
from ._rollout_py import train as train_python
from .sim import Verdict, seed_array
from .sim import wind_draws as wind_draws_python

_SOURCE = Path(__file__).with_name("_rollout.c")
# numpy's C distributions, for its standard normal draw.
_NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
# -ffp-contract=off keeps every multiply and add separately rounded, as in
# the Python twin; a contracted FMA would break bit-identity.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_LDLIBS = (str(_NPYRANDOM), "-lm", "-pthread")
_Out = ctypes.c_int * 4  # (steps, outcome, deploy_step, deploy_greedy)
_DOUBLES = ctypes.POINTER(ctypes.c_double)
_UINT64S = ctypes.POINTER(ctypes.c_uint64)


def _library_path() -> Path:
    """Where the build of this source, archive and flags is cached; OSError without
    the archive."""
    key = (_SOURCE.read_bytes() + _NPYRANDOM.read_bytes()
           + " ".join(_CFLAGS + _LDLIBS).encode())
    digest = hashlib.sha256(key).hexdigest()[:12]
    return _SOURCE.parent / "__pycache__" / f"_rollout-{digest}.so"


def _compile(target: Path) -> None:
    """Build the kernel into ``target`` (via a temporary file, then a rename).

    Tries sysconfig's ``CC``, then ``cc``; raises OSError with each
    compiler's complaint when none succeeds. After the rename, deletes the
    other cached builds, but no temporary file, which another build may be
    writing.
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
            for stale in target.parent.glob("_rollout-*.so"):
                if stale != target:
                    with contextlib.suppress(OSError):  # another build may have deleted it
                        stale.unlink()
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
    try:
        lib = ctypes.CDLL(str(target))
    except OSError:
        if target.exists():
            raise
        # Another process's build deleted this one after the check: build it again.
        _compile(target)
        lib = ctypes.CDLL(str(target))
    c_int, c_double = ctypes.c_int, ctypes.c_double
    lib.rtsa_rollout.argtypes = (_DOUBLES, c_int, c_int, c_int, c_double, _DOUBLES, _DOUBLES,
                                 _DOUBLES, ctypes.POINTER(c_int))
    lib.rtsa_rollout.restype = c_int
    lib.rtsa_batch.argtypes = (_DOUBLES, c_int, c_int, c_int, _DOUBLES, c_int, _DOUBLES, c_int,
                               _DOUBLES, ctypes.POINTER(c_int), c_int, _DOUBLES, ctypes.c_int64,
                               ctypes.POINTER(c_int))
    lib.rtsa_batch.restype = c_int
    lib.rtsa_train.argtypes = (_DOUBLES, c_int, c_int, c_int, c_double, _DOUBLES,
                               ctypes.c_int64, _DOUBLES, c_double, c_double, _DOUBLES,
                               ctypes.c_int64, ctypes.c_uint64, ctypes.c_int64, _DOUBLES)
    lib.rtsa_train.restype = ctypes.c_int64
    lib.rtsa_wind_draws.argtypes = (_UINT64S, ctypes.c_int64, _DOUBLES)
    lib.rtsa_wind_draws.restype = None
    lib.rtsa_exit_count.argtypes = (_DOUBLES, c_int, c_int, _DOUBLES, _DOUBLES, c_int, _DOUBLES,
                                    c_double, c_double, c_int)
    lib.rtsa_exit_count.restype = c_int
    return lib


def _pointer(array, ctype=ctypes.c_double):
    return None if array is None else ctypes.byref(ctype.from_buffer(array))


def _raise_for(status):
    if status == -1:
        raise ValueError(ZERO_SEGMENT)
    if status != 0:
        raise MemoryError("the episode kernel could not allocate its working memory")


def rollout_compiled(*, wind_params, policy_mode, delta, theta, **scenario):
    """``_rollout_py.rollout`` on the C kernel: same arguments, same result."""
    params, n_waypoints, steps = pack(policy_mode, **scenario)
    threshold = one_threshold(policy_mode, delta)
    wind, columns = checked("wind_params", wind_params, (8,)), weight_columns(theta)
    traj = np.empty((steps + 1, 9))
    out = _Out()
    _raise_for(_lib.rtsa_rollout(_pointer(params), n_waypoints, int(policy_mode), steps,
                                 threshold, _pointer(wind), _pointer(columns), _pointer(traj),
                                 out))
    return traj[: out[0] + 1].copy(), out[1], out[2]


def batch_workers(n_rows: int) -> int:
    """Threads for a C batch of ``n_rows`` episodes: one per CPU the process may
    use, but no more than rows; the kernel runs at most 8 (``MAX_WORKERS``) of them."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_rows)


def batch_compiled(*, wind, policy_mode, delta, theta, **scenario):
    """``_rollout_py.batch`` on the C kernel: same arguments, same result, the same fork
    record (``_rollout_py.fork_record``), on ``batch_workers`` threads."""
    params, n_waypoints, steps = pack(policy_mode, **scenario)
    deltas = thresholds(policy_mode, delta)
    table, columns = checked_rows("wind", wind, 8, at_least=1), weight_columns(theta)
    n_rows = table.shape[0]
    out = np.empty(deltas.shape + (n_rows, 4), dtype=np.intc)
    with _rollout_py.fork_record(policy_mode, params, n_waypoints, steps, table, out) as (
            states, capacity, summaries):
        _raise_for(_lib.rtsa_batch(
            _pointer(params), n_waypoints, int(policy_mode), steps, _pointer(table), n_rows,
            _pointer(deltas), deltas.size, _pointer(columns), _pointer(out, ctypes.c_int),
            batch_workers(n_rows), _pointer(states), capacity,
            _pointer(summaries, ctypes.c_int)))
    return out


def train_compiled(theta, discount, learning_rate, epsilons, seed, *, wind, policy_mode, delta,
                   **scenario):
    """``_rollout_py.train`` on the C kernel: same arguments, same rows, same updates
    to ``theta``, in one call that records at most ``_rollout_py.RECORD_CAP`` states."""
    theta, table, epsilons, seed = train_arrays(theta, wind, epsilons, seed)
    params, n_waypoints, steps = pack(policy_mode, **scenario)
    threshold = one_threshold(policy_mode, delta)
    rows = np.empty((epsilons.size, len(TRAIN_COLUMNS)))
    if not epsilons.size:  # ctypes cannot point into an empty array
        return rows
    done = _lib.rtsa_train(_pointer(params), n_waypoints, int(policy_mode), steps, threshold,
                           _pointer(table), table.shape[0], _pointer(theta), discount,
                           learning_rate, _pointer(epsilons), epsilons.size, seed,
                           _rollout_py.RECORD_CAP, _pointer(rows))
    if done < 0:
        _raise_for(done)
    return rows[:done]


def exit_counter_compiled(draws, *, wind, wind_mean, **scenario):
    """``_rollout_py.exit_counter`` on the C kernel: same arguments, same counts, each
    count one call whose nominal batch runs on ``batch_workers`` threads."""
    params, n_waypoints, steps = pack(POLICY_NOMINAL, **scenario)
    draws, wind, mean = calibration_arrays(draws, wind, wind_mean)
    args = (_pointer(params), n_waypoints, steps, _pointer(draws), _pointer(wind), len(wind),
            _pointer(mean))
    workers = batch_workers(len(wind))

    def count(sigma, gust):
        exits = _lib.rtsa_exit_count(*args, sigma, gust, workers)
        if exits < 0:
            _raise_for(exits)
        return exits

    return count


def wind_draws_compiled(seeds):
    """``sim.wind_draws`` on the C kernel: same seeds, same table, same checks."""
    seeds = seed_array(seeds)
    draws = np.empty((seeds.size, 8))
    if seeds.size:
        _lib.rtsa_wind_draws(_pointer(seeds, ctypes.c_uint64), seeds.size, _pointer(draws))
    return draws


FALLBACK_REASON = None
if os.environ.get("RTSA_PURE_PYTHON"):
    FALLBACK_REASON = "RTSA_PURE_PYTHON is set"
else:
    try:
        _lib = _load_kernel()
    except OSError as exc:
        FALLBACK_REASON = str(exc)
if FALLBACK_REASON is None:
    rollout, batch, exit_counter = rollout_compiled, batch_compiled, exit_counter_compiled
    train, wind_draws = train_compiled, wind_draws_compiled
    BACKEND = "c"
else:
    rollout_compiled = batch_compiled = exit_counter_compiled = None
    train_compiled = wind_draws_compiled = None
    rollout, batch, exit_counter = rollout_python, batch_python, exit_counter_python
    train, wind_draws = train_python, wind_draws_python
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

