"""Pure-Python episode kernels, and the kernels' argument format.

``pack`` states that format once for both backends. It checks a scenario's
arrays, ``max_steps`` and the policy mode, and packs the scenario into one
float64 array laid out at the ``P_*`` offsets below, the enum of
``_rollout.c``. An episode's wind (8 values: base, gust amplitude, gust
frequency, gust phase, each x then y), its weight columns and the baseline's
distance threshold(s) (``thresholds``) travel beside that array. The C
wrappers in ``rtsa.fastpath`` check them, and the learner's arguments, with
the same functions as the twins here.

``_episode`` is the one scalar episode loop: wind, the one-way meta
decision, pure pursuit with a PD command or the parachute, the
semi-implicit Euler step with its ground clamp, the reward (an exit costs
-1, as a scenario fixes the exit penalty at 1) and the termination chain.
It reads the packed array by the ``P_*`` offsets, as ``episode`` in
``_rollout.c`` does. Four entry points drive it:

- ``rollout`` runs one episode under a fixed policy (never-deploy,
  distance-threshold, or greedy linear weights) and records its trajectory.
- ``batch`` runs one such episode per wind row and keeps only each
  episode's summary (steps, outcome, deploy step, deploy_greedy). Under the
  baseline policy it takes several ascending thresholds at once and, per
  wind row, flies their shared nominal prefix once (``_sweep``): one trunk
  that stops where the widest threshold not yet deployed deploys, forks
  that threshold's parachute tail from its exact state, and goes on under
  the next narrower threshold. That trunk is the nominal flight, and a
  threshold deploys at a state where the running minimum of the boundary
  distance falls (a fork state). So a nominal batch records checkpoints of
  each row's fork states, and a baseline batch on the same scenario and wind
  flies each threshold's trunk only from the last checkpoint before its
  fork, fewer than ``FORK_GAP`` steps, and then its tail. ``fork_record``
  keeps that record, one for both backends.
- ``exit_counter`` checks a nominal batch's arguments once and returns a
  counter of its exits: each count rescales the wind rows to a given wind
  strength and flies one nominal episode per row, with no fork record. It
  is one evaluation of ``evaluation.calibrate_wind`` and ``exit_rate``.
- ``train`` runs Q-learning episodes in a row under one of those policies,
  applying ``td_update``, the linear TD rule on weight columns held as float
  lists, to the weights at every step at the given discount and learning
  rate. Under the weights policy an episode explores epsilon-greedily on
  ``np.random.default_rng([seed, ep])``: that is online training. Warm
  start is one call under the baseline, which never explores, with one
  episode per demo and pass. A baseline episode does not depend on the
  weights, so every pass would fly the same demos through the same updates:
  ``train`` flies each wind row once, records the features of the states it
  observes (at most ``RECORD_CAP`` states in all), and ``_replay``s those
  transitions on every later pass, with bit-identical weights and rows.

Each entry point has a C twin in ``_rollout.c`` (``rtsa_rollout``,
``rtsa_batch``, ``rtsa_exit_count``, ``rtsa_train``) that performs the same
arithmetic in the same order and seeds the same exploration streams, so the
two backends give bit-identical trajectories, summaries, exit counts,
weights and training rows.
``rtsa.fastpath`` uses the C kernels when they build and load, these
otherwise. ``train`` takes the weights as a contiguous (2, 9) float64 array
of columns (continue, deploy), updated in place; here it is converted to
float lists and back once per call.

Scalar math only in the loop body, so the compiled twin can mirror it
operation for operation.
"""

from __future__ import annotations

import math
import mmap
import numbers
from array import array

import numpy as np

from .policy import N_FEATURES
from .sim import MAX_STEPS, is_seed

POLICY_NOMINAL = 0
POLICY_BASELINE = 1
POLICY_WEIGHTS = 2

OUTCOME_COMPLETED = 1
OUTCOME_EXITED = 2
OUTCOME_GROUNDED = 3
OUTCOME_TIMEOUT = 4

_GRAVITY = 9.81


# Offsets into the packed scenario array that ``pack`` builds.
P_ENV_MIN = 0  # 3 values
P_ENV_MAX = 3  # 3 values
P_ARRIVAL_RADIUS = 6
P_DT = 7
P_A_MAX = 8
P_CRUISE_SPEED = 9
P_LOOKAHEAD = 10
P_KP = 11
P_KD = 12
P_AIR_DRAG = 13
P_DRAG_Z = 14
P_DRAG_XY = 15
P_ALERT_PENALTY = 16
P_SCALES = 17  # 8 feature scales
P_WAYPOINTS = 25  # n_waypoints x 3, row-major

ZERO_SEGMENT = "waypoints hold a zero-length segment"

#: Most states whose features one ``train`` call records for replay (64 MB at
#: 8 float64 values per state); rows beyond it are flown on every pass. And
#: most checkpoints one nominal ``batch`` records (72 MB): row i records only
#: if its slot, checkpoints ``i * fork_slot(max_steps)`` onward, lies within
#: it; a sweep flies the other rows' whole trunks.
RECORD_CAP = 2**20
_N_RECORDED = 8  # phi[0..7] per state; phi[8] follows from the deploy step
#: A checkpoint's values: t, px, py, pz, vx, vy, vz, step and the smallest
#: boundary distance of the decision states before it.
N_FORK = 9
#: Fewest steps between two checkpoints of a row, as in ``_rollout.c``.
FORK_GAP = 8


def fork_slot(max_steps):
    """Checkpoints in each row's slot of a nominal batch's record: the most one episode
    of ``max_steps`` records, as decision states lie at steps 0..max_steps - 1 and the
    final state is one more. Row i's slot starts at checkpoint ``i * fork_slot``, and
    the rows ``i < RECORD_CAP // fork_slot`` are recorded."""
    return max_steps // FORK_GAP + 2

#: ``train``'s row of each episode, the ROW_* enum of ``_rollout.c``:
#: deploy_greedy is -1 if never deployed, 0 explored, 1 greedy; norm2_max is
#: the largest squared feature norm of a decision state, max_abs_td_error the
#: largest absolute TD error of the episode's updates and theta_norm the
#: Euclidean norm of the weights after it (``weights_norm``).
TRAIN_COLUMNS = ("return", "outcome", "deploy_step", "deploy_greedy", "steps", "norm2_max",
                 "max_abs_td_error", "theta_norm")


def pack(policy_mode, *, env_min, env_max, waypoints, arrival_radius, dt, a_max, cruise_speed,
         lookahead, kp, kd, air_drag, drag_z, drag_xy, max_steps, scales, alert_penalty):
    """The episode kernels' scenario argument: (packed array, waypoint count, max_steps).

    The new float64 array holds the scenario, the feature ``scales`` and
    ``alert_penalty`` at the ``P_*`` offsets. Raises ValueError for an
    unknown ``policy_mode``, a
    ``max_steps`` that is not an integer in [1, MAX_STEPS], or an array of
    the wrong shape or not of numbers. A zero-length path segment is left to
    the episode loop, which raises ValueError for it.
    """
    check_policy_mode(policy_mode)
    if (isinstance(max_steps, bool) or not isinstance(max_steps, numbers.Integral)
            or not 1 <= max_steps <= MAX_STEPS):
        raise ValueError(f"max_steps must be an integer in [1, {MAX_STEPS}], got {max_steps!r}")
    wps = checked_rows("waypoints", waypoints, 3, at_least=2)
    scalars = (arrival_radius, dt, a_max, cruise_speed, lookahead, kp, kd, air_drag, drag_z,
               drag_xy, alert_penalty)
    params = np.concatenate((
        checked("env_min", env_min, (3,)),
        checked("env_max", env_max, (3,)),
        checked("the scalar arguments", scalars, (len(scalars),)),
        checked("scales", scales, (8,)),
        wps.ravel(),
    ))
    return params, wps.shape[0], int(max_steps)


def _array(name, value):
    """``value`` as a writable C-contiguous float64 array, copied only if it is not one
    already; ValueError if it holds no numbers."""
    try:
        array = np.asarray(value, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None
    # ctypes can point only into writable memory.
    return array if array.flags.writeable else array.copy()


def checked(name, value, shape):
    """``value`` as a writable C-contiguous float64 array of ``shape``, or ValueError."""
    array = _array(name, value)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def checked_rows(name, value, width, at_least=0):
    """``value`` as a writable C-contiguous float64 array of shape (n >= ``at_least``,
    ``width``), or ValueError."""
    array = _array(name, value)
    if array.ndim != 2 or array.shape[0] < at_least or array.shape[1] != width:
        raise ValueError(f"{name} must have shape (n >= {at_least}, {width}), "
                         f"got {array.shape}")
    return array


def thresholds(policy_mode, delta):
    """``delta`` as a writable C-contiguous float64 array of shape () or (k,), or ValueError.

    The baseline policy takes one finite positive threshold or a non-empty
    1-D array of them in ascending order (repeats allowed). The other
    policies have no threshold: they take one number, which they ignore.
    """
    check_policy_mode(policy_mode)
    baseline = policy_mode == POLICY_BASELINE
    array = _array("delta", delta)
    if array.ndim > 1 or array.size == 0 or (array.ndim == 1 and not baseline):
        raise ValueError("delta must be one number" + (" or a non-empty 1-D array" if baseline
                                                       else "") + f", got shape {array.shape}")
    if baseline:
        values = array.reshape(-1).tolist()  # a few numbers: quicker to check as floats
        if not (all(0.0 < d < math.inf for d in values)
                and all(a <= b for a, b in zip(values, values[1:]))):
            raise ValueError(f"baseline delta must be finite positive thresholds in ascending "
                             f"order, got {values}")
    return array


def one_threshold(policy_mode, delta):
    """``delta`` as one float, checked by ``thresholds``; ValueError for an array."""
    return float(thresholds(policy_mode, checked("delta", delta, ())))


def check_policy_mode(policy_mode):
    if policy_mode not in (POLICY_NOMINAL, POLICY_BASELINE, POLICY_WEIGHTS):
        raise ValueError(f"policy_mode must be one of 0, 1, 2 (nominal, baseline, weights), "
                         f"got {policy_mode!r}")


def weight_columns(theta):
    """A fixed policy's (9, 2) weight matrix as a new C-contiguous (2, 9) array of columns."""
    return checked("theta", theta, (N_FEATURES, 2)).T.copy()


def weights_in_place(theta):
    """``theta`` itself, once it is known to be a writable C-contiguous (2, 9) float64 array."""
    if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
            and theta.shape == (2, N_FEATURES) and theta.flags.c_contiguous
            and theta.flags.writeable):
        raise ValueError("theta must be a writable C-contiguous float64 array of shape "
                         f"(2, {N_FEATURES}), updated in place")
    return theta


def train_arrays(theta, wind, epsilons, seed):
    """``train``'s arrays and seed, checked: (``theta`` itself, wind, epsilons, seed).

    Raises ValueError unless ``theta`` passes ``weights_in_place``,
    ``epsilons`` is 1-D with every value in [0, 1], ``wind`` is (n, 8) with
    n >= 1 when there are episodes, and ``seed`` is an integer in [0, 2**64).
    """
    theta = weights_in_place(theta)
    epsilons = _array("epsilons", epsilons)
    if epsilons.ndim != 1 or not np.all((epsilons >= 0.0) & (epsilons <= 1.0)):
        raise ValueError("epsilons must be a 1-D array of values in [0, 1]")
    table = checked_rows("wind", wind, 8, at_least=1 if epsilons.size else 0)
    if not is_seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return theta, table, epsilons, int(seed)


#: The last nominal batch's fork record, ``(key, states, rows)``, under "last".
_FORKS = {}


class fork_record:  # noqa: N801  (a context manager, named as contextlib's are)
    """Take a ``batch``'s fork record, on either backend: ``with`` gives (states,
    capacity, rows).

    The layout is ``rtsa_batch``'s: ``states`` holds checkpoints of ``N_FORK``
    float64 values, row i's from checkpoint ``i * fork_slot(max_steps)`` on,
    and ``rows`` (n, 3) int64 (checkpoint count or -1, steps, outcome). A
    nominal batch gets room for ``capacity`` checkpoints, in the last record's
    buffer if large enough, to store once it is done. A baseline batch gets the
    last record if its key, what the episodes depend on but the policy (the
    exact bytes of ``params`` and ``table``, ``n_waypoints``, ``max_steps``),
    is the batch's; any other batch gets (None, 0, None). Batches may
    interleave in threads (ctypes releases the GIL), so each takes the record
    with one ``pop`` and owns it while it uses it; a baseline batch puts it
    back with ``setdefault``, unless a newer one was stored meanwhile. A plain
    class, not a generator: it is entered on every batch.
    """

    def __init__(self, policy_mode, params, n_waypoints, max_steps, table):
        self.nominal, self.record = policy_mode == POLICY_NOMINAL, None
        self.taken = None, 0, None
        if policy_mode == POLICY_WEIGHTS:
            return
        self.key = params.tobytes(), n_waypoints, max_steps, table.tobytes()
        self.record = record = _FORKS.pop("last", None)
        if self.nominal:
            slot = fork_slot(max_steps)
            capacity = min(RECORD_CAP // slot, len(table)) * slot
            states = None if record is None else record[1]
            if states is None or len(states) < capacity:
                # An anonymous private mapping: only the pages written take memory,
                # where numpy would ask for huge pages for an array of 4 MiB or more.
                buffer = mmap.mmap(-1, 8 * N_FORK * max(capacity, 1), flags=mmap.MAP_PRIVATE)
                states = np.frombuffer(buffer).reshape(-1, N_FORK)
            self.taken = states, capacity, np.empty((len(table), 3), dtype=np.int64)
        elif record is not None and record[0] == self.key:
            self.taken = record[1], 0, record[2]

    def __enter__(self):
        return self.taken

    def __exit__(self, error, *_):
        if self.nominal and error is None:
            _FORKS["last"] = self.key, self.taken[0], self.taken[2]
        elif not self.nominal and self.record is not None:
            _FORKS.setdefault("last", self.record)


def rollout(*, wind_params, policy_mode, delta, theta, **scenario):
    """Run one episode; returns (trajectory, outcome, deploy_step).

    ``scenario`` holds ``pack``'s keywords. ``wind_params`` is (base_x,
    base_y, amp_x, amp_y, freq_x, freq_y, phase_x, phase_y) and ``theta`` the
    (9, 2) weight matrix of the weights policy. The trajectory has one row
    per step plus a final state row: (t, px, py, pz, vx, vy, vz, action,
    reward). ``deploy_step`` is -1 if the recovery controller was never
    deployed. ``delta`` is one number (see ``thresholds``). Raises ValueError
    for an argument that ``pack``, ``thresholds``, ``checked`` or
    ``weight_columns`` refuses, or a zero-length path segment.
    """
    params, n_waypoints, steps = pack(policy_mode, **scenario)
    threshold = one_threshold(policy_mode, delta)
    wind, columns = checked("wind_params", wind_params, (8,)), weight_columns(theta)
    rows = []
    _, outcome, deploy_step, _, _, _, _ = _episode(
        params.tolist(), n_waypoints, policy_mode, steps, threshold, wind.tolist(),
        columns.tolist(), traj=rows)
    return np.array(rows, dtype=float), outcome, deploy_step


def batch(*, wind, policy_mode, delta, theta, **scenario):
    """Run one ``rollout`` episode per row of ``wind``; returns their summaries.

    ``wind`` is (n, 8), one ``wind_params`` row per episode. Returns an
    (n, 4) ``intc`` array of (steps, outcome, deploy_step, deploy_greedy)
    rows: ``deploy_step`` is -1 if the recovery controller was never
    deployed, and ``deploy_greedy`` is then -1 too, and otherwise 1 (a
    fixed policy's deployment is always its own choice). No trajectory is
    kept. Under the baseline policy, ``delta`` may also be a 1-D array of k
    ascending thresholds (see ``thresholds``); the result is then (k, n, 4),
    block j holding the summaries at threshold j, and each wind row's
    episodes share one trunk (``_sweep``). Raises ValueError as ``rollout``
    does, and for a ``wind`` of another shape.

    A nominal batch records its rows' checkpoints, and a baseline batch reads
    them, through ``fork_record``.
    """
    params, n_waypoints, steps = pack(policy_mode, **scenario)
    deltas = thresholds(policy_mode, delta)
    table = checked_rows("wind", wind, 8, at_least=1)
    p, columns = params.tolist(), weight_columns(theta).tolist()
    n, slot = table.shape[0], fork_slot(steps)
    out = np.empty(deltas.shape + (n, 4), dtype=np.intc)
    blocks, values = out.reshape(-1, n, 4), deltas.reshape(-1).tolist()  # one block per threshold
    with fork_record(policy_mode, params, n_waypoints, steps, table) as (states, capacity, rows):
        if policy_mode == POLICY_BASELINE:
            for i, wind_params in enumerate(table.tolist()):
                count, *nominal = (-1,) if rows is None else rows[i].tolist()
                forks = None if count < 0 else states[i * slot:i * slot + count].ravel().tolist()
                blocks[:, i] = _sweep(p, n_waypoints, steps, values, wind_params, columns, forks,
                                      (*nominal, -1, -1))
            return out
        for i, wind_params in enumerate(table.tolist()):
            forks = [] if (i + 1) * slot <= capacity else None
            blocks[0, i] = row = _summary(_episode(p, n_waypoints, policy_mode, steps, 0.0,
                                                   wind_params, columns, forks=forks))
            if forks is not None:
                states.flat[i * slot * N_FORK:i * slot * N_FORK + len(forks)] = forks
            if rows is not None:
                rows[i] = -1 if forks is None else len(forks) // N_FORK, row[0], row[1]
    return out


def calibration_arrays(draws, wind, wind_mean):
    """``exit_counter``'s arrays, checked: (draws, wind, wind_mean), or ValueError unless
    ``draws`` and ``wind`` are (n >= 1, 8) of the same n and ``wind_mean`` has 2 values."""
    draws = checked_rows("draws", draws, 8, at_least=1)
    wind = checked_rows("wind", wind, 8, at_least=1)
    if wind.shape != draws.shape:
        raise ValueError(f"wind must have the shape of draws {draws.shape}, got {wind.shape}")
    return draws, wind, checked("wind_mean", wind_mean, (2,))


def exit_counter(draws, *, wind, wind_mean, **scenario):
    """``count(sigma, gust)``: how many nominal episodes, one per wind row, leave the
    envelope in a wind of strength ``sigma`` and gust strength ``gust``.

    ``draws`` are the seeds' unit draws (``sim.wind_draws``) and ``wind`` their
    kernel wind rows (``sim.wind_rows``) at any strength: their frequency and
    phase columns do not depend on it. Each count rewrites the base and
    amplitude columns of a copy of ``wind`` as ``sim.wind_rows`` scales them
    for the mean ``wind_mean``, ``sigma`` and ``gust``, and flies one nominal
    episode per row; no fork record is kept. ``scenario`` holds ``pack``'s
    keywords, which are checked once, here: this raises ValueError as
    ``pack`` and ``calibration_arrays`` do, and a count raises it for a
    zero-length path segment, before any episode runs.
    """
    params, n_waypoints, steps = pack(POLICY_NOMINAL, **scenario)
    draws, wind, mean = calibration_arrays(draws, wind, wind_mean)
    p, columns = params.tolist(), [[0.0] * N_FEATURES, [0.0] * N_FEATURES]
    rows = wind.copy()
    base, amplitude = draws[:, :2], draws[:, [2, 5]]  # z_x, z_y; per axis amplitude, ...

    def count(sigma, gust):
        rows[:, :2] = mean + float(sigma) * base
        rows[:, 2:4] = 0.0 + (2.0 * float(gust) - 0.0) * amplitude
        return sum(_episode(p, n_waypoints, POLICY_NOMINAL, steps, 0.0, row, columns)[1]
                   == OUTCOME_EXITED for row in rows.tolist())

    return count


def _summary(result):
    """An ``_episode`` result as a batch row: (steps, outcome, deploy_step, deploy_greedy)."""
    _, outcome, deploy_step, deploy_greedy, steps, _, _ = result
    return steps, outcome, deploy_step, -1 if deploy_greedy is None else deploy_greedy


def _sweep(p, n_waypoints, max_steps, deltas, wind, theta, states=None, nominal=None):
    """One wind row's baseline summaries at each of the ascending ``deltas``, in order.

    One trunk flies the nominal prefix they share, under the widest
    threshold not yet deployed, and stops where that one deploys. Its tail
    is flown from the trunk's state there, and the trunk goes on under the
    next narrower threshold. Those left when the trunk ends get the trunk's
    summary. ``states``, if given, is the row's checkpoints from a nominal
    batch on the same inputs, as a flat float list, and ``nominal`` that
    batch's summary of the row: then each threshold's trunk starts at the
    last checkpoint whose smallest earlier distance exceeds the threshold, if
    that lies ahead of it, and if that is the row's end, the threshold and
    the narrower ones get the nominal summary.
    """
    rows = [None] * len(deltas)
    trunk = _start(p)
    c = 0  # the checkpoint reached
    for k in reversed(range(len(deltas))):
        if states is not None:
            end = len(states) - N_FORK
            while c < end and states[c + N_FORK + 8] > deltas[k]:
                c += N_FORK
            if c == end:  # never deploys: nor does any narrower threshold
                rows[:k + 1] = [nominal] * (k + 1)
                break
            if states[c + 7] > trunk[7]:
                trunk = states[c:c + 7] + [int(states[c + 7])]
        stop = _summary(_episode(p, n_waypoints, POLICY_BASELINE, max_steps, deltas[k], wind,
                                 theta, state=trunk, fork=True))
        if stop[1]:  # ended before deploying: so it does at every narrower threshold
            rows[:k + 1] = [stop] * (k + 1)
            break
        rows[k] = _summary(_episode(p, n_waypoints, POLICY_BASELINE, max_steps, deltas[k], wind,
                                    theta, state=trunk))
    return rows


def _start(p):
    """At rest on the first waypoint, undeployed: [t, px, py, pz, vx, vy, vz, step]."""
    return [0.0, p[P_WAYPOINTS], p[P_WAYPOINTS + 1], p[P_WAYPOINTS + 2], 0.0, 0.0, 0.0, 0]


def train(theta, discount, learning_rate, epsilons, seed, *, wind, policy_mode, delta,
          **scenario):
    """Run one Q-learning episode per value of ``epsilons``, in order, updating ``theta``.

    ``theta`` is the (2, 9) array of weight columns (continue, deploy) and
    gets one ``td_update`` at ``discount`` and ``learning_rate`` per step.
    Episode ep flies in row ep % n of ``wind`` (n, 8) under the policy
    ``policy_mode`` with the one threshold ``delta``, as ``rollout`` would.
    Under the weights policy it acts epsilon-greedily at rate
    ``epsilons[ep]`` on ``np.random.default_rng([seed, ep])``: until the
    switch flips, each step draws ``rng.random()`` (only when epsilon > 0)
    and, on an exploring step, ``rng.integers(2)``, the draws
    ``learning.epsilon_greedy`` makes. The other policies draw nothing.

    The other policies do not read the weights. With more episodes than
    wind rows, each row's first episode records the features of the states
    it observes, up to ``RECORD_CAP`` states in all, and every later
    episode on a recorded row is that row's ``_replay``; its row copies the
    first episode's but for max_abs_td_error and theta_norm.

    Returns a float64 array with one ``TRAIN_COLUMNS`` row per episode run:
    it stops after the first episode that leaves a weight non-finite.
    Raises ValueError for arguments that ``train_arrays``, ``pack`` or
    ``one_threshold`` refuses, or a zero-length path segment, before any
    episode runs.
    """
    theta, table, epsilons, seed = train_arrays(theta, wind, epsilons, seed)
    params, n_waypoints, max_steps = pack(policy_mode, **scenario)
    threshold = one_threshold(policy_mode, delta)
    p, winds, columns = params.tolist(), table.tolist(), theta.tolist()
    rows = np.empty((epsilons.size, len(TRAIN_COLUMNS)))
    # Rows firsts[0..] are recorded, one after another, in ``record``; ``offset``
    # is where the next one to replay starts.
    record, firsts, offset = array("d"), [], 0
    recording = policy_mode != POLICY_WEIGHTS and epsilons.size > len(winds)
    for ep, epsilon in enumerate(epsilons.tolist()):
        i = ep % len(winds)
        if ep >= len(winds) and i < len(firsts):
            if i == 0:
                offset = 0
            ret, outcome, deploy_step, deploy_greedy, steps, norm2_max = firsts[i]
            error_max = _replay(columns, record, offset, steps, outcome, deploy_step,
                                p[P_ALERT_PENALTY], discount, learning_rate)
            offset += _N_RECORDED * (steps + 1)
        else:
            rng = np.random.default_rng([seed, ep]) if epsilon > 0.0 else None  # else never drawn
            start, records = len(record), recording and ep < len(winds)
            ret, outcome, deploy_step, deploy_greedy, steps, norm2_max, error_max = _episode(
                p, n_waypoints, policy_mode, max_steps, threshold, winds[i], columns,
                discount=discount, learning_rate=learning_rate, epsilon=epsilon, rng=rng,
                record=record if records else None)
            deploy_greedy = -1 if deploy_greedy is None else deploy_greedy
            if records:
                if len(record) - start == _N_RECORDED * (steps + 1):
                    firsts.append((ret, outcome, deploy_step, deploy_greedy, steps, norm2_max))
                else:  # out of room: this row and the later ones fly every pass
                    recording = False
        weights = columns[0] + columns[1]
        rows[ep] = (ret, outcome, deploy_step, deploy_greedy, steps, norm2_max, error_max,
                    weights_norm(weights))
        if not all(map(math.isfinite, weights)):
            rows = rows[:ep + 1]
            break
    theta[...] = columns
    return rows


def weights_norm(weights):
    """The Euclidean norm of the float list ``weights``.

    Where their sum of squares overflows although every weight is finite, it
    is taken again over the weights scaled by the largest magnitude, which
    keeps it finite until the norm itself exceeds the largest float.
    """
    norm2 = 0.0
    for w in weights:
        norm2 += w * w
    if math.isfinite(norm2) or not all(map(math.isfinite, weights)):
        return math.sqrt(norm2)
    largest = max(map(abs, weights))
    scaled2 = 0.0
    for w in weights:
        s = w / largest
        scaled2 += s * s
    return largest * math.sqrt(scaled2)


def boundary_distance(lo, hi, px, py, pz):
    """The baseline switch's distance to the box ``lo``-``hi`` (float lists): inside
    it the smallest of the six offsets to its faces, outside it -inf. The switch
    deploys where it is at most its threshold."""
    exn0, exn1, exn2 = lo
    exx0, exx1, exx2 = hi
    if not (exn0 <= px <= exx0 and exn1 <= py <= exx1 and exn2 <= pz <= exx2):
        return -math.inf
    d = px - exn0
    if exx0 - px < d:
        d = exx0 - px
    if py - exn1 < d:
        d = py - exn1
    if exx1 - py < d:
        d = exx1 - py
    if pz - exn2 < d:
        d = pz - exn2
    if exx2 - pz < d:
        d = exx2 - pz
    return d


def _step_reward(outside, fresh_deploy, alert_penalty):
    """A step's reward: a step that leaves the box earns -1 (the exit penalty,
    which a scenario fixes at 1), else the first deployment earns
    -``alert_penalty``, else 0. ``_episode`` and ``_replay`` both read it."""
    return -1.0 if outside else -alert_penalty if fresh_deploy else 0.0


def _replay(columns, record, offset, steps, outcome, deploy_step, alert_penalty, discount,
            learning_rate):
    """Replay a recorded episode of a policy that does not read the weights.

    Applies the TD updates of its flight to the float-list ``columns``, on
    the same transitions in the same order. ``record[offset:]`` holds its
    states' phi[0..7], states 0..``steps``. The deployed flag, each action
    and each reward follow from ``deploy_step`` and ``outcome`` as they did
    in flight: only an exit's last step leaves the box, and only the last
    transition of an episode that did not time out is terminal. Returns the
    largest absolute TD error.
    """
    t0, t1 = columns
    error_max = 0.0
    values = record[offset:offset + _N_RECORDED * (steps + 1)].tolist()
    prev = values[:_N_RECORDED]
    prev.append(0.0)
    for k in range(1, steps + 1):
        deployed = 0 <= deploy_step < k  # after step k - 1
        phi = values[_N_RECORDED * k:_N_RECORDED * (k + 1)]
        phi.append(1.0 if deployed else 0.0)
        r = _step_reward(k == steps and outcome == OUTCOME_EXITED, k - 1 == deploy_step,
                         alert_penalty)
        error = abs(td_update(t0, t1, prev, 1 if deployed else 0, r, phi,
                              k == steps and outcome != OUTCOME_TIMEOUT, learning_rate,
                              discount))
        if error > error_max:
            error_max = error
        prev = phi
    return error_max


def _episode(p, n_waypoints, policy_mode, max_steps, delta, wind, theta, *, state=None,
             fork=False, discount=1.0, learning_rate=None, epsilon=0.0, rng=None, traj=None,
             record=None, forks=None):
    """The episode loop behind ``rollout``, ``batch`` and ``train``.

    ``p`` is ``pack``'s array as a float list, ``wind`` the 8 wind values
    and ``theta`` (continue column, deploy column), all float lists. The
    baseline policy deploys outside the box or within ``delta`` of its
    boundary. Each step earns ``_step_reward``. The episode starts from the
    undeployed ``state``, a list ``[t, px, py, pz, vx, vy, vz, steps
    taken]`` (``_start(p)`` if None).
    Unless ``learning_rate`` is None, every step ends in a ``td_update`` of
    the columns. In the weights mode, an ``epsilon`` > 0 makes each
    undeployed step epsilon-greedy on ``rng``. ``traj``, if given, is a list
    that gets the trajectory rows. When learning, ``record``, if given, is
    an ``array("d")`` that gets each observed state's phi[0..7] while it
    holds fewer than ``RECORD_CAP`` states. ``forks``, if given, is a
    list that gets checkpoints of ``N_FORK`` values, [t, px, py,
    pz, vx, vy, vz, step, smallest ``boundary_distance`` before it]: each
    decision state whose distance falls below every earlier one's and that
    lies ``FORK_GAP`` or more steps after the latest checkpoint, then the
    final state with the episode's smallest distance. Returns (discounted
    return,
    outcome, deploy_step, deploy_greedy, steps, largest squared feature norm
    of a decision state, largest absolute TD error), the last two 0 unless
    learning. With ``fork``, the loop stops
    instead at its first deploy decision, before that step: it writes the
    state there into ``state`` and returns outcome 0. Raises ValueError for
    a zero-length path segment.
    """
    lo, hi = p[P_ENV_MIN:P_ENV_MIN + 3], p[P_ENV_MAX:P_ENV_MAX + 3]
    exn0, exn1, exn2 = lo
    exx0, exx1, exx2 = hi
    arrival_radius, dt, a_max = p[P_ARRIVAL_RADIUS], p[P_DT], p[P_A_MAX]
    cruise_speed, lookahead = p[P_CRUISE_SPEED], p[P_LOOKAHEAD]
    kp, kd, air_drag = p[P_KP], p[P_KD], p[P_AIR_DRAG]
    drag_z, drag_xy = p[P_DRAG_Z], p[P_DRAG_XY]
    alert_penalty = p[P_ALERT_PENALTY]
    bw0, bw1, ga0, ga1, gf0, gf1, gp0, gp1 = wind
    t0, t1 = theta
    sc0, sc1, sc2, sc3, sc4, sc5, sc6, sc7 = p[P_SCALES:P_SCALES + 8]
    wps = p[P_WAYPOINTS:]
    weights_mode = policy_mode == POLICY_WEIGHTS
    learn = learning_rate is not None
    explore = epsilon > 0.0
    record_room = _N_RECORDED * RECORD_CAP

    # The path as scalars: segment starts, deltas, squared and cumulative lengths.
    n_seg = n_waypoints - 1
    seg_a = [(wps[3 * i], wps[3 * i + 1], wps[3 * i + 2]) for i in range(n_seg)]
    seg_d = [
        (wps[3 * i + 3] - wps[3 * i], wps[3 * i + 4] - wps[3 * i + 1],
         wps[3 * i + 5] - wps[3 * i + 2])
        for i in range(n_seg)
    ]
    seg_len2 = [d[0] * d[0] + d[1] * d[1] + d[2] * d[2] for d in seg_d]
    cum = [0.0]
    for i in range(n_seg):
        if not seg_len2[i] > 0.0:
            raise ValueError(ZERO_SEGMENT)
        cum.append(cum[i] + math.sqrt(seg_len2[i]))
    total_len = cum[n_seg]
    wlx, wly, wlz = wps[3 * n_seg:3 * n_seg + 3]

    t, px, py, pz, vx, vy, vz, step_idx = _start(p) if state is None else state
    deployed = False
    deploy_step = -1
    deploy_greedy = None
    ret = 0.0
    disc = 1.0
    norm2_max = 0.0
    error_max = 0.0
    floor, last = math.inf, -FORK_GAP  # for ``forks``: the smallest distance, latest step
    outcome = 0  # still running

    # Each pass first observes the current state (wind, features) and applies
    # the TD update of the step that led to it, then stops if that step ended
    # the episode.
    while True:
        wx = bw0 + ga0 * math.sin(gf0 * t + gp0)
        wy = bw1 + ga1 * math.sin(gf1 * t + gp1)
        if learn or (weights_mode and not deployed):
            phi = [
                min(px - exn0, exx0 - px) / sc0,
                min(py - exn1, exx1 - py) / sc1,
                min(pz - exn2, exx2 - pz) / sc2,
                vx / sc3, vy / sc4, vz / sc5, wx / sc6, wy / sc7,
                1.0 if deployed else 0.0,
            ]
            if record is not None and len(record) < record_room:
                record.extend(phi[:_N_RECORDED])
            if learn and step_idx:
                # The last step's transition. Timeout is truncation, not an
                # absorbing state: keep the bootstrap.
                error = abs(td_update(t0, t1, phi_prev, action, r, phi,
                                      outcome != 0 and outcome != OUTCOME_TIMEOUT, learning_rate,
                                      discount))
                if error > error_max:
                    error_max = error
        if outcome:
            break
        if learn:
            f0, f1, f2, f3, f4, f5, f6, f7, f8 = phi
            norm2 = (
                f0 * f0 + f1 * f1 + f2 * f2 + f3 * f3 + f4 * f4
                + f5 * f5 + f6 * f6 + f7 * f7 + f8 * f8
            )
            if norm2 > norm2_max:
                norm2_max = norm2
            phi_prev = phi
        if forks is not None:
            d = boundary_distance(lo, hi, px, py, pz)
            if d < floor:
                if step_idx - last >= FORK_GAP:
                    forks.extend((t, px, py, pz, vx, vy, vz, step_idx, floor))
                    last = step_idx
                floor = d

        # Meta decision (one-way switch).
        if deployed:
            action = 1
        elif weights_mode:
            # The indicator feature is 0 before deployment.
            f0, f1, f2, f3, f4, f5, f6, f7, _ = phi
            q_cont = (
                t0[0] * f0 + t0[1] * f1 + t0[2] * f2 + t0[3] * f3
                + t0[4] * f4 + t0[5] * f5 + t0[6] * f6 + t0[7] * f7
            )
            q_dep = (
                t1[0] * f0 + t1[1] * f1 + t1[2] * f2 + t1[3] * f3
                + t1[4] * f4 + t1[5] * f5 + t1[6] * f6 + t1[7] * f7
            )
            greedy = 1 if q_dep > q_cont else 0
            if explore and rng.random() < epsilon:
                action = int(rng.integers(2))
            else:
                action = greedy
        elif policy_mode == POLICY_NOMINAL:
            action = 0
        else:  # POLICY_BASELINE
            action = 1 if boundary_distance(lo, hi, px, py, pz) <= delta else 0

        fresh_deploy = action == 1 and not deployed
        if fork and fresh_deploy:
            state[:] = t, px, py, pz, vx, vy, vz, step_idx
            return ret, 0, step_idx, True, step_idx, norm2_max, error_max
        if fresh_deploy:
            deploy_step = step_idx
            deploy_greedy = not weights_mode or greedy == 1

        # Dynamics.
        if action == 1:
            ax = drag_xy * (wx - vx)
            ay = drag_xy * (wy - vy)
            az = -_GRAVITY + drag_z * (0.0 - vz)
        else:
            # Project onto the path (earliest segment wins ties).
            best_d2 = math.inf
            best_s = 0.0
            for i in range(n_seg):
                sax, say, saz = seg_a[i]
                sdx, sdy, sdz = seg_d[i]
                tt = ((px - sax) * sdx + (py - say) * sdy + (pz - saz) * sdz) / seg_len2[i]
                if tt < 0.0:
                    tt = 0.0
                elif tt > 1.0:
                    tt = 1.0
                cx = sax + tt * sdx
                cy = say + tt * sdy
                cz = saz + tt * sdz
                d2 = (px - cx) * (px - cx) + (py - cy) * (py - cy) + (pz - cz) * (pz - cz)
                if d2 < best_d2:
                    best_d2 = d2
                    best_s = cum[i] + tt * math.sqrt(seg_len2[i])
            s_ahead = best_s + lookahead
            if s_ahead < 0.0:
                s_ahead = 0.0
            elif s_ahead > total_len:
                s_ahead = total_len
            seg = n_seg - 1
            for i in range(n_seg):
                if s_ahead < cum[i + 1]:
                    seg = i
                    break
            frac = (s_ahead - cum[seg]) / (cum[seg + 1] - cum[seg])
            tx = seg_a[seg][0] + frac * seg_d[seg][0]
            ty = seg_a[seg][1] + frac * seg_d[seg][1]
            tz = seg_a[seg][2] + frac * seg_d[seg][2]

            tox = tx - px
            toy = ty - py
            toz = tz - pz
            dist = math.sqrt(tox * tox + toy * toy + toz * toz)
            if dist > 1e-9:
                vdx = cruise_speed * (tox / dist)
                vdy = cruise_speed * (toy / dist)
                vdz = cruise_speed * (toz / dist)
            else:
                vdx = vdy = vdz = 0.0
            ux = kp * tox + kd * (vdx - vx)
            uy = kp * toy + kd * (vdy - vy)
            uz = kp * toz + kd * (vdz - vz)
            un = math.sqrt(ux * ux + uy * uy + uz * uz)
            if un > a_max:
                scale = a_max / un
                ux *= scale
                uy *= scale
                uz *= scale
            ax = ux + air_drag * (wx - vx)
            ay = uy + air_drag * (wy - vy)
            az = uz + air_drag * (0.0 - vz)

        nvx = vx + dt * ax
        nvy = vy + dt * ay
        nvz = vz + dt * az
        npx = px + dt * nvx
        npy = py + dt * nvy
        npz = pz + dt * nvz
        if npz <= 0.0:
            npz = 0.0
            nvx = nvy = nvz = 0.0

        outside = not (exn0 <= npx <= exx0 and exn1 <= npy <= exx1 and exn2 <= npz <= exx2)
        r = _step_reward(outside, fresh_deploy, alert_penalty)
        if traj is not None:
            traj.append((t, px, py, pz, vx, vy, vz, action, r))
        ret += disc * r
        disc *= discount

        px, py, pz = npx, npy, npz
        vx, vy, vz = nvx, nvy, nvz
        t += dt
        if action == 1:
            deployed = True
        step_idx += 1

        if outside:
            outcome = OUTCOME_EXITED
        elif not deployed and math.sqrt(
            (px - wlx) * (px - wlx) + (py - wly) * (py - wly) + (pz - wlz) * (pz - wlz)
        ) <= arrival_radius:
            outcome = OUTCOME_COMPLETED
        elif deployed and pz == 0.0:
            outcome = OUTCOME_GROUNDED
        elif step_idx >= max_steps:
            outcome = OUTCOME_TIMEOUT

    if traj is not None:
        traj.append((t, px, py, pz, vx, vy, vz, 1.0 if deployed else 0.0, 0.0))
    if forks is not None:
        forks.extend((t, px, py, pz, vx, vy, vz, step_idx, floor))
    return ret, outcome, deploy_step, deploy_greedy, step_idx, norm2_max, error_max


def td_update(t0, t1, phi, action, r, phi_next, terminal, learning_rate, discount):
    """One linear TD update, in place, on the taken action's weight column.

    The scalar form of ``learning.linear_q_update``: ``t0``/``t1`` are the
    continue/deploy columns and ``phi``/``phi_next`` the feature vectors, all
    lists of nine floats. Terminal transitions bootstrap 0. Returns the TD
    error, target - Q(s, a).
    """
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = phi
    col = t1 if action else t0
    q_sa = (
        col[0] * f0 + col[1] * f1 + col[2] * f2 + col[3] * f3 + col[4] * f4
        + col[5] * f5 + col[6] * f6 + col[7] * f7 + col[8] * f8
    )
    if terminal:
        target = r
    else:
        g0, g1, g2, g3, g4, g5, g6, g7, g8 = phi_next
        q_cont = (
            t0[0] * g0 + t0[1] * g1 + t0[2] * g2 + t0[3] * g3 + t0[4] * g4
            + t0[5] * g5 + t0[6] * g6 + t0[7] * g7 + t0[8] * g8
        )
        q_dep = (
            t1[0] * g0 + t1[1] * g1 + t1[2] * g2 + t1[3] * g3 + t1[4] * g4
            + t1[5] * g5 + t1[6] * g6 + t1[7] * g7 + t1[8] * g8
        )
        target = r + discount * (q_dep if q_dep > q_cont else q_cont)
    error = target - q_sa
    k = learning_rate * error
    col[0] += k * f0
    col[1] += k * f1
    col[2] += k * f2
    col[3] += k * f3
    col[4] += k * f4
    col[5] += k * f5
    col[6] += k * f6
    col[7] += k * f7
    col[8] += k * f8
    return error
