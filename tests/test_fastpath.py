import contextlib
import copy
import ctypes
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import threading
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import calibration_oracle
from rtsa import _rollout_py, evaluation, fastpath, sim
from rtsa._rollout_py import rollout as rollout_python
from rtsa.evaluation import (PolicySpec, calibrate_wind, exit_rate, run_batch, run_episode,
                             sweep_baseline, _kernel_scenario_args)
from rtsa.geometry import build_path
from rtsa.learning import LearnConfig, train
from rtsa.policy import Action, N_FEATURES, compose_controller, random_weights, rtsa_action
from rtsa.sim import (
    MAX_STEPS,
    VehicleState,
    Verdict,
    episode_terminated,
    sample_wind_field,
    step,
    wind_at,
    wind_draws,
    wind_rows,
)

rollout_compiled = fastpath.rollout_compiled
batch_compiled = fastpath.batch_compiled
train_compiled = fastpath.train_compiled
wind_draws_compiled = fastpath.wind_draws_compiled

needs_compiled = pytest.mark.skipif(
    rollout_compiled is None, reason=f"C kernel not loaded: {fastpath.FALLBACK_REASON}"
)


def _compiler_on_path():
    cc = sysconfig.get_config_var("CC")
    return any(c and shutil.which(c.split()[0]) for c in (cc, "cc"))


@pytest.mark.skipif(bool(os.environ.get("RTSA_PURE_PYTHON")), reason="RTSA_PURE_PYTHON is set")
@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
def test_c_backend_loads_when_a_compiler_exists():
    # A broken build must fail here rather than hide behind the Python fallback.
    assert fastpath.BACKEND == "c", f"fell back to Python: {fastpath.FALLBACK_REASON}"
    assert fastpath.FALLBACK_REASON is None


def wind_params_for(seed, scenario):
    field = sample_wind_field(np.random.default_rng(seed), scenario.sim)
    return field, np.array(
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


def kernel_call(backend, scenario, seed, mode, delta=0.0, theta=None):
    _, wp = wind_params_for(seed, scenario)
    if theta is None:
        theta = np.zeros((N_FEATURES, 2))
    return backend(
        wind_params=wp,
        policy_mode=mode,
        delta=delta,
        theta=theta,
        scales=scenario.feature_scales,
        alert_penalty=scenario.reward.alert_penalty,
        **_kernel_scenario_args(scenario),
    )


@needs_compiled
class TestBackendParity:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    @pytest.mark.parametrize(
        "mode,delta",
        [
            (fastpath.POLICY_NOMINAL, 0.0),
            (fastpath.POLICY_BASELINE, 4.0),
            (fastpath.POLICY_BASELINE, 16.0),
        ],
    )
    def test_bit_identical_trajectories(self, calibrated_scenario, seed, mode, delta):
        t_py, o_py, d_py = kernel_call(rollout_python, calibrated_scenario, seed, mode, delta)
        t_cy, o_cy, d_cy = kernel_call(rollout_compiled, calibrated_scenario, seed, mode, delta)
        assert o_py == o_cy
        assert d_py == d_cy
        assert np.array_equal(np.asarray(t_py), np.asarray(t_cy))

    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_bit_identical_weights_policy(self, calibrated_scenario, seed):
        theta = random_weights(np.random.default_rng(seed))
        t_py, o_py, d_py = kernel_call(
            rollout_python, calibrated_scenario, seed, fastpath.POLICY_WEIGHTS, theta=theta
        )
        t_cy, o_cy, d_cy = kernel_call(
            rollout_compiled, calibrated_scenario, seed, fastpath.POLICY_WEIGHTS, theta=theta
        )
        assert (o_py, d_py) == (o_cy, d_cy)
        assert np.array_equal(np.asarray(t_py), np.asarray(t_cy))


# One-word and two-word seeds on each side of the boundary, and the extremes.
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


@needs_compiled
@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=12),
       dtype=st.sampled_from([None, np.uint64]))
def test_compiled_wind_draws_equal_numpy_byte_for_byte(seeds, dtype):
    seeds = EDGE_SEEDS + seeds
    if dtype is not None:
        seeds = np.array(seeds, dtype=dtype)
    c = wind_draws_compiled(seeds)
    assert c.shape == (len(seeds), 8)
    assert c.tobytes() == wind_draws(seeds).tobytes()


BATCH_POLICIES = [
    PolicySpec.nominal(),
    PolicySpec.baseline(1.0),
    PolicySpec.baseline(4.0),
    PolicySpec.baseline(16.0),
    PolicySpec.weights(random_weights(np.random.default_rng(1))),
]


def batch_kwargs(scenario, policy, seeds):
    theta = policy.theta if policy.theta is not None else np.zeros((N_FEATURES, 2))
    return dict(wind=wind_rows(wind_draws(seeds), scenario.sim), policy_mode=policy._mode(),
                delta=policy.delta, theta=theta, scales=scenario.feature_scales,
                alert_penalty=scenario.reward.alert_penalty, **_kernel_scenario_args(scenario))


def sweep_kwargs(scenario, deltas, seeds):
    """``batch_kwargs`` for one baseline batch over all of ``deltas``."""
    return {**batch_kwargs(scenario, PolicySpec.baseline(deltas[0]), seeds), "delta": deltas}


# Threshold grids for baseline sweeps. On the calibrated demo the start lies
# 18 m from the box, so 18 and 30 deploy at step 0; 1e-3 never deploys before
# the episode ends; 8 and 8.0001 deploy on the same step on every seed, and
# 8, 8.05, 8.1 and 8.15 mostly one step apart.
SWEEP_GRIDS = {
    "soc": (1.0, 2.0, 4.0, 8.0, 16.0),
    "duplicates": (2.0, 2.0, 8.0, 8.0, 8.0),
    "single": (4.0,),
    "step_0": (1.0, 18.0, 30.0),
    "never_fires": (1e-3,),
    "same_step": (8.0, 8.0001),
    "next_step": (8.0, 8.05, 8.1, 8.15),
}

# Thresholds the baseline policy refuses, in a rollout and in a batch.
BAD_DELTAS = {
    "empty": [],
    "2-D": [[1.0, 8.0]],
    "unsorted": [8.0, 1.0],
    "nan": np.nan,
    "nan_in_array": [1.0, np.nan],
    "inf": np.inf,
    "zero": 0.0,
    "negative": [-1.0, 8.0],
    "object": np.array([1.0, None], dtype=object),
}


@pytest.mark.skipif(fastpath.BACKEND != "c", reason="the script compares C with Python")
def test_bench_rollout_script_finds_the_backends_bit_identical():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, str(root / "benchmarks" / "bench_rollout.py"),
                          "--episodes", "3", "--repeats", "1"], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "backends bit-identical over all episodes" in run.stdout
    assert "batch summaries byte-equal on 1 and" in run.stdout
    assert "per-call cost: 10 episodes of 1 step, median of 200 calls" in run.stdout
    assert "one-step summaries byte-equal on 1 and" in run.stdout
    assert "sweep summaries byte-equal to one batch per delta" in run.stdout
    assert "warm sweep summaries byte-equal to a cold sweep" in run.stdout
    assert "twin sweep on a C nominal batch's record byte-equal to a cold sweep" in run.stdout
    assert "calibration results byte-equal to one batch per evaluation" in run.stdout
    assert "one-call warm start weights byte-equal to one call per pass" in run.stdout


@needs_compiled
class TestBatchParity:
    @pytest.mark.parametrize("which", ["calibrated", "short"])
    @pytest.mark.parametrize("policy", BATCH_POLICIES, ids=lambda p: p.policy_id)
    def test_bit_identical_summaries(self, calibrated_scenario, short_scenario, which, policy):
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        kwargs = batch_kwargs(scenario, policy, range(40))
        c = batch_compiled(**kwargs)
        py = _rollout_py.batch(**kwargs)
        assert c.shape == py.shape == (40, 4)
        assert c.dtype == py.dtype == np.intc
        # (steps, outcome, deploy step, deploy_greedy) of every episode.
        assert c.tobytes() == py.tobytes()
        assert np.all(c[:, 0] >= 1)


@needs_compiled
class TestSweepParity:
    # A baseline batch over several thresholds flies one trunk per wind row
    # and forks each threshold's tail from it; every row must be the episode
    # that threshold flies alone.
    @pytest.mark.parametrize("which", ["calibrated", "short"])
    @pytest.mark.parametrize("grid", SWEEP_GRIDS, ids=str)
    def test_sweep_rows_equal_single_threshold_episodes(self, calibrated_scenario,
                                                        short_scenario, which, grid):
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        deltas, seeds = SWEEP_GRIDS[grid], range(40)
        kwargs = sweep_kwargs(scenario, deltas, seeds)
        c, py = batch_compiled(**kwargs), _rollout_py.batch(**kwargs)
        assert c.shape == py.shape == (len(deltas), len(seeds), 4)
        assert c.dtype == py.dtype == np.intc
        assert c.tobytes() == py.tobytes()
        for delta, block in zip(deltas, c):
            single = {**kwargs, "delta": delta}
            assert block.tobytes() == batch_compiled(**single).tobytes()
            assert block.tobytes() == _rollout_py.batch(**single).tobytes()
            for seed, (steps, outcome, deploy_step, greedy) in zip(seeds, block.tolist()):
                episode = run_episode(PolicySpec.baseline(delta), scenario, seed)
                assert steps == len(episode.trajectory) - 1
                assert fastpath.VERDICTS[outcome] == episode.outcome
                assert (None if deploy_step < 0 else deploy_step) == episode.deploy_step
                assert greedy == (-1 if deploy_step < 0 else 1)

    def test_grids_reach_every_fork_case(self, calibrated_scenario, short_scenario):
        # Each grid above must reach the case it is named for.
        calibrated = {grid: batch_compiled(**sweep_kwargs(calibrated_scenario, deltas,
                                                          range(40)))
                      for grid, deltas in SWEEP_GRIDS.items()}
        short = batch_compiled(**sweep_kwargs(short_scenario, SWEEP_GRIDS["never_fires"],
                                              range(40)))
        step_0 = calibrated["step_0"][:, :, 2]
        assert np.all(step_0[1:] == 0) and np.all(step_0[0] != 0)
        never = calibrated["never_fires"][0]
        assert np.all(never[:, 2] == -1) and set(never[:, 1]) == {fastpath.OUTCOME_COMPLETED,
                                                                 fastpath.OUTCOME_EXITED}
        assert np.all(short[0, :, 2] == -1)
        assert fastpath.OUTCOME_TIMEOUT in short[0, :, 1]
        same = calibrated["same_step"][:, :, 2]
        assert np.all(same[0] == same[1]) and np.all(same[0] > 0)
        next_step = calibrated["next_step"][:, :, 2]
        assert np.all(next_step >= 0) and np.any(next_step[:-1] - next_step[1:] == 1)
        soc = calibrated["soc"][:, :, 2]
        assert np.any((soc[0] > soc[-1]) & (soc[-1] >= 0))  # distinct forks on one trunk
        assert np.any(soc == -1) and np.any(soc >= 0)


def c_batch(kwargs, workers, out=None):
    """``batch_kwargs``' or ``sweep_kwargs``' batch through ``fastpath._lib.rtsa_batch``
    on ``workers`` threads with no fork record, written into ``out`` (if None, a new one
    of -7s, so a row no worker ran shows); raises as ``batch_compiled``."""
    kwargs = dict(kwargs)
    table = _rollout_py.checked_rows("wind", kwargs.pop("wind"), 8, at_least=1)
    theta = _rollout_py.weight_columns(kwargs.pop("theta"))
    mode, delta = kwargs.pop("policy_mode"), kwargs.pop("delta")
    params, n_waypoints, steps = _rollout_py.pack(mode, **kwargs)
    deltas = _rollout_py.thresholds(mode, delta)
    if out is None:
        out = np.full(deltas.shape + (table.shape[0], 4), -7, dtype=np.intc)
    p = fastpath._pointer
    fastpath._raise_for(fastpath._lib.rtsa_batch(
        p(params), n_waypoints, mode, steps, p(table), table.shape[0], p(deltas), deltas.size,
        p(theta), p(out, ctypes.c_int), workers, None, 0, None))
    return out


WORKER_POLICIES = [PolicySpec.nominal(), PolicySpec.baseline(1 / 16), BATCH_POLICIES[-1]]


@needs_compiled
class TestBatchWorkers:
    # Each episode writes only its own row, so no worker count may change a byte.
    @pytest.mark.parametrize("n_rows", [1, 2, 40])
    @pytest.mark.parametrize("which", ["calibrated", "short"])
    @pytest.mark.parametrize("policy", WORKER_POLICIES, ids=lambda p: p.policy_id)
    def test_summaries_equal_for_every_worker_count(self, calibrated_scenario, short_scenario,
                                                    n_rows, which, policy):
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        kwargs = batch_kwargs(scenario, policy, range(n_rows))
        expected = _rollout_py.batch(**kwargs).tobytes()
        for workers in (1, 2, 3, n_rows + 5):
            assert c_batch(kwargs, workers).tobytes() == expected, workers
        assert batch_compiled(**kwargs).tobytes() == expected

    @pytest.mark.parametrize("n_rows", [1, 2, 40])
    @pytest.mark.parametrize("which", ["calibrated", "short"])
    @pytest.mark.parametrize("grid", ["soc", "duplicates", "step_0", "same_step"])
    def test_sweeps_equal_for_every_worker_count(self, calibrated_scenario, short_scenario,
                                                 n_rows, which, grid):
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        kwargs = sweep_kwargs(scenario, SWEEP_GRIDS[grid], range(n_rows))
        expected = _rollout_py.batch(**kwargs).tobytes()
        for workers in (1, 2, 3, n_rows + 5):
            assert c_batch(kwargs, workers).tobytes() == expected, workers
        assert batch_compiled(**kwargs).tobytes() == expected

    def test_repeated_calls_on_more_workers_than_cpus(self, calibrated_scenario, short_scenario):
        # A row lost or run twice by the shared counter would show in some call.
        for kwargs in (batch_kwargs(short_scenario, PolicySpec.baseline(8.0), range(40)),
                       sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(40))):
            expected = _rollout_py.batch(**kwargs).tobytes()
            for _ in range(200):
                assert c_batch(kwargs, 8).tobytes() == expected

    def test_worker_count_follows_the_cpus_the_process_may_use(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else \
            os.cpu_count()
        assert [fastpath.batch_workers(n) for n in (1, 2, 40)] == \
            [1, min(cpus, 2), min(cpus, 40)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_gives_the_same_bytes(self, calibrated_scenario):
        # A process pinned to one CPU runs each batch on one thread; asked for
        # more, the kernel has no CPU but the caller's to place the started
        # workers on, so they run unplaced, beside the caller.
        code = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from importlib import resources\n"
            "from rtsa import fastpath\n"
            "from rtsa.evaluation import _kernel_scenario_args\n"
            "from rtsa.policy import random_weights\n"
            "from rtsa.scenario import load_scenario\n"
            "from rtsa.sim import wind_draws, wind_rows\n"
            "from test_fastpath import SWEEP_GRIDS, PolicySpec, batch_kwargs, c_batch,"
            " sweep_kwargs\n"
            "import numpy as np\n"
            "with resources.as_file(resources.files('rtsa.data')"
            ".joinpath('demo_scenario.json')) as path:\n"
            "    s = load_scenario(path)\n"
            "theta = random_weights(np.random.default_rng(1))\n"
            "out = fastpath.batch(wind=wind_rows(wind_draws(range(40)), s.sim),"
            " policy_mode=fastpath.POLICY_WEIGHTS, delta=0.0, theta=theta,"
            " scales=s.feature_scales, alert_penalty=s.reward.alert_penalty,"
            " **_kernel_scenario_args(s))\n"
            "print(fastpath.BACKEND, fastpath.batch_workers(40), out.tobytes().hex())\n"
            "for kwargs in (batch_kwargs(s, PolicySpec.nominal(), range(40)),"
            " sweep_kwargs(s, SWEEP_GRIDS['soc'], range(40))):\n"
            "    print(*(c_batch(kwargs, w).tobytes().hex() for w in (1, 2, 8)))\n"
        )
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(fastpath.__file__).resolve().parents[1]), str(tests)])}
        env.pop("RTSA_PURE_PYTHON", None)
        lines = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=300).stdout.splitlines()
        assert len(lines) == 3
        backend, workers, pinned = lines[0].split()
        unpinned = batch_compiled(**batch_kwargs(calibrated_scenario, BATCH_POLICIES[-1],
                                                 range(40)))
        assert (backend, workers) == ("c", "1")
        assert pinned == unpinned.tobytes().hex()
        expected = [batch_kwargs(calibrated_scenario, PolicySpec.nominal(), range(40)),
                    sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(40))]
        for line, kwargs in zip(lines[1:], expected):
            one, two, eight = line.split()
            assert one == two == eight == _rollout_py.batch(**kwargs).tobytes().hex()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
    def test_caller_affinity_never_changes(self, calibrated_scenario):
        # Placement sets only the started workers' CPUs, never the caller's.
        kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(40))
        for workers in (1, 2, 3, 45):
            before = os.sched_getaffinity(0)
            c_batch(kwargs, workers)
            assert os.sched_getaffinity(0) == before, workers
        before = os.sched_getaffinity(0)
        batch_compiled(**batch_kwargs(calibrated_scenario, PolicySpec.nominal(), range(40)))
        assert os.sched_getaffinity(0) == before

    def test_zero_length_segment_fails_before_any_episode(self, calibrated_scenario):
        kwargs = batch_kwargs(calibrated_scenario, PolicySpec.nominal(), range(6))
        kwargs["waypoints"] = [[0.0, 0.0, 12.0], [0.0, 0.0, 12.0], [60.0, 0.0, 0.0]]
        out = np.full((6, 4), -7, dtype=np.intc)
        with pytest.raises(ValueError, match="waypoints"):
            c_batch(kwargs, 3, out)
        assert np.all(out == -7)


MAX_WORKERS = int(re.search(r"#define MAX_WORKERS (\d+)", fastpath._SOURCE.read_text())[1])
POOL_ROWS = 12


def pool_calls(scenario, monkeypatch):
    """(call, expected) pairs that alternate a nominal, a sweep and a weights batch and an
    exit count on ``POOL_ROWS`` seeds: ``call(workers)`` runs one in C on that many
    threads, and ``expected`` is the twin's bytes."""
    seeds = range(POOL_ROWS)
    batches = [batch_kwargs(scenario, PolicySpec.nominal(), seeds),
               sweep_kwargs(scenario, SWEEP_GRIDS["soc"], seeds),
               batch_kwargs(scenario, BATCH_POLICIES[-1], seeds)]
    counter = TestArgumentChecks.counter_kwargs(scenario, seeds)
    strength = (scenario.sim.wind_sigma, scenario.sim.gust_sigma)

    def count(workers):
        monkeypatch.setattr(fastpath, "batch_workers", lambda n: workers)
        return np.intc(fastpath.exit_counter_compiled(**counter)(*strength)).tobytes()

    calls = [(lambda w, kw=kw: c_batch(kw, w).tobytes(), _rollout_py.batch(**kw).tobytes())
             for kw in batches]
    exits = _rollout_py.exit_counter(**counter)(*strength)
    assert 0 < exits < POOL_ROWS
    return calls + [(count, np.intc(exits).tobytes())]


def thread_count():
    return len(os.listdir("/proc/self/task"))


@needs_compiled
class TestWorkerPool:
    # Batches and exit counts share one pool of workers across calls; rows are
    # still claimed one at a time and written to their own slots.
    def test_back_to_back_calls_on_changing_worker_counts(self, calibrated_scenario,
                                                         monkeypatch):
        calls = pool_calls(calibrated_scenario, monkeypatch)
        for workers in (2, 3, 2, POOL_ROWS + 5):
            for round_ in range(5):
                for call, expected in calls:
                    assert call(workers) == expected, (workers, round_)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_many_calls_start_at_most_one_thread_per_worker(self, short_scenario, monkeypatch):
        # The threads live across calls: 200 calls start no more than the pool holds.
        calls = pool_calls(short_scenario, monkeypatch)
        before = thread_count()
        for k in range(200):
            call, expected = calls[k % len(calls)]
            assert call((2, 3, POOL_ROWS + 5)[k % 3]) == expected, k
        assert thread_count() - before <= MAX_WORKERS - 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_a_forked_child_starts_its_own_workers(self, calibrated_scenario):
        # The child has none of its parent's workers: it must neither wait for
        # them nor count on them. A pool that survived the fork fails here, by
        # the timeout, instead of hanging the suite.
        kwargs = batch_kwargs(calibrated_scenario, PolicySpec.nominal(), range(POOL_ROWS))
        expected = _rollout_py.batch(**kwargs).tobytes()
        for workers in (2, 3, POOL_ROWS + 5):
            assert c_batch(kwargs, workers).tobytes() == expected
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                # On Linux the child's one thread gains exactly one worker.
                ok = c_batch(kwargs, 2).tobytes() == expected
                status = 0 if ok and (not os.path.isdir("/proc/self/task")
                                      or thread_count() == 2) else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "the forked child's batch did not end within 60 s"
        assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("policy", BATCH_POLICIES, ids=lambda p: p.policy_id)
def test_batch_summaries_match_single_episodes(calibrated_scenario, policy):
    # On whichever backend loaded: the summary path against the trajectory path.
    scenario, seeds = calibrated_scenario, list(range(100, 140))
    summaries = fastpath.batch(**batch_kwargs(scenario, policy, seeds))
    records = run_batch(policy, scenario, seeds)
    outcomes = set()
    for seed, summary, record in zip(seeds, summaries.tolist(), records):
        steps, outcome, deploy_step, deploy_greedy = summary
        episode = run_episode(policy, scenario, seed)
        assert steps == len(episode.trajectory) - 1
        assert fastpath.VERDICTS[outcome] == episode.outcome
        assert (None if deploy_step < 0 else deploy_step) == episode.deploy_step
        assert deploy_greedy == (-1 if deploy_step < 0 else 1)
        assert (record.seed, record.outcome, record.deploy_step, record.trajectory) == (
            seed, episode.outcome, episode.deploy_step, None)
        outcomes.add(episode.outcome)
    assert len(outcomes) > 1


def train_call(backend, scenario, theta, epsilons, seeds=range(8), seed=3,
               learning_rate=3e-3, policy_mode=fastpath.POLICY_WEIGHTS, delta=0.0):
    """Learning episodes on ``backend``, one per epsilon: episode ep flies the wind of
    ``seeds[ep]`` under ``policy_mode`` and, under the weights policy, explores on
    ``default_rng([seed, ep])``; returns the rows."""
    return backend(theta, scenario.reward.discount, learning_rate, epsilons, seed,
                   wind=wind_rows(wind_draws(seeds[:len(epsilons)]), scenario.sim),
                   policy_mode=policy_mode, delta=delta, scales=scenario.feature_scales,
                   alert_penalty=scenario.reward.alert_penalty,
                   **fastpath.scenario_args(scenario))


@needs_compiled
class TestLearningParity:
    @staticmethod
    def assert_bit_identical(scenario, epsilon, verdicts, greedy, **policy):
        # Eight episodes in a row, each backend carrying its own weights forward.
        theta_c, theta_py = np.zeros((2, N_FEATURES)), np.zeros((2, N_FEATURES))
        c = train_call(train_compiled, scenario, theta_c, [epsilon] * 8, **policy)
        py = train_call(_rollout_py.train, scenario, theta_py, [epsilon] * 8, **policy)
        assert c.shape == py.shape == (8, len(_rollout_py.TRAIN_COLUMNS))
        assert c.tobytes() == py.tobytes()
        assert theta_c.tobytes() == theta_py.tobytes()
        columns = dict(zip(_rollout_py.TRAIN_COLUMNS, c.T))
        assert {fastpath.VERDICTS[o] for o in columns["outcome"].tolist()} == verdicts
        assert set(columns["deploy_greedy"].tolist()) == greedy
        for name in ("max_abs_td_error", "theta_norm"):
            assert np.all(columns[name] >= 0.0) and np.any(columns[name] > 0.0)
        assert np.any(theta_c != 0.0)

    @pytest.mark.parametrize(
        "which,epsilon,verdicts,greedy",
        [
            ("calibrated", 0.0, {Verdict.COMPLETED, Verdict.EXITED, Verdict.GROUNDED}, {-1, 1}),
            ("calibrated", 0.02, {Verdict.EXITED, Verdict.GROUNDED}, {-1, 1, 0}),
            ("calibrated", 1.0, {Verdict.GROUNDED}, {0}),
            ("short", 0.0, {Verdict.TIMEOUT, Verdict.EXITED, Verdict.GROUNDED}, {-1, 1}),
            ("short", 0.02, {Verdict.TIMEOUT, Verdict.EXITED, Verdict.GROUNDED}, {-1, 1, 0}),
            ("short", 1.0, {Verdict.GROUNDED}, {0}),
        ],
    )
    def test_train_bit_identical(self, calibrated_scenario, short_scenario, which, epsilon,
                                 verdicts, greedy):
        # Each episode's exploration stream is made for it and dropped after it,
        # so what it drew shows only in the rows and the weights.
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        self.assert_bit_identical(scenario, epsilon, verdicts, greedy)

    @pytest.mark.parametrize(
        "which,delta,verdicts,greedy",
        [
            ("calibrated", 4.0, {Verdict.COMPLETED, Verdict.EXITED}, {-1, 1}),
            ("calibrated", 8.0, {Verdict.EXITED, Verdict.GROUNDED}, {1}),
            ("short", 8.0, {Verdict.TIMEOUT, Verdict.EXITED}, {-1, 1}),
        ],
    )
    def test_warm_start_bit_identical(self, calibrated_scenario, short_scenario, which, delta,
                                      verdicts, greedy):
        # Warm start: the baseline switch, which never explores.
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        self.assert_bit_identical(scenario, 0.0, verdicts, greedy,
                                  policy_mode=fastpath.POLICY_BASELINE, delta=delta)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_training_log_and_weights_equal_on_both_backends(self, calibrated_scenario,
                                                            monkeypatch, epsilon):
        cfg = LearnConfig(episodes=12, epsilon0=epsilon, epsilon_decay=1.0,
                          epsilon_floor=epsilon, seed=2**40 + 3)
        runs = {}
        for name, kernel in (("c", train_compiled), ("python", _rollout_py.train)):
            monkeypatch.setattr(fastpath, "train", kernel)
            runs[name] = train(calibrated_scenario, calibrated_scenario.reward, cfg,
                               np.zeros((N_FEATURES, 2)), wind_seeds=range(50, 60))
        (theta_c, log_c), (theta_py, log_py) = runs["c"], runs["python"]
        assert theta_c.tobytes() == theta_py.tobytes()
        assert len(log_c) == 12 and log_c.episodes == log_py.episodes
        assert all(row.keys() == set(log_c.COLUMNS) for row in log_c.episodes)

    def test_diverging_training_stops_on_the_same_episode_with_the_same_warning(
            self, calibrated_scenario, monkeypatch):
        cfg = LearnConfig(episodes=40, learning_rate=1e3, seed=0)
        messages = {}
        for name, kernel in (("c", train_compiled), ("python", _rollout_py.train)):
            monkeypatch.setattr(fastpath, "train", kernel)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(RuntimeError, match=r"training episode \d+") as error:
                    train(calibrated_scenario, calibrated_scenario.reward, cfg,
                          np.zeros((N_FEATURES, 2)), wind_seeds=range(40))
            messages[name] = (str(error.value), [str(w.message) for w in caught])
        assert messages["c"] == messages["python"]
        assert len(messages["c"][1]) == 1 and "learning_rate" in messages["c"][1][0]
        # The kernels stop on that episode: the rows end there on both backends.
        theta_c, theta_py = np.zeros((2, N_FEATURES)), np.zeros((2, N_FEATURES))
        c = train_call(train_compiled, calibrated_scenario, theta_c, [0.1] * 40,
                       seeds=range(40), seed=0, learning_rate=1e3)
        py = train_call(_rollout_py.train, calibrated_scenario, theta_py, [0.1] * 40,
                        seeds=range(40), seed=0, learning_rate=1e3)
        assert c.tobytes() == py.tobytes()
        assert f"training episode {len(c) - 1}" in messages["c"][0]
        assert len(c) < 40 and not np.isfinite(theta_c).all()
        # Only the last episode left a weight non-finite, and only its norm is:
        # the earlier ones stay finite past the square root of the largest double.
        norms = c[:, _rollout_py.TRAIN_COLUMNS.index("theta_norm")]
        assert np.isfinite(norms[:-1]).all()
        assert norms[:-1].max() > np.sqrt(np.finfo(float).max)
        assert not np.isfinite(norms[-1])
        assert theta_c.tobytes() == theta_py.tobytes()

    def test_train_policy_same_weights_on_both_backends(self):
        # The whole training path (demos, warm start, online episodes) in a
        # pure-Python process and in this one.
        code = (
            "from importlib import resources\n"
            "from rtsa import fastpath\n"
            "from rtsa.evaluation import train_policy\n"
            "from rtsa.learning import LearnConfig\n"
            "from rtsa.scenario import load_scenario\n"
            "with resources.as_file(resources.files('rtsa.data')"
            ".joinpath('demo_scenario.json')) as path:\n"
            "    scenario = load_scenario(path)\n"
            "theta, log = train_policy(scenario, 0.05, LearnConfig(episodes=8, epsilon0=0.5,"
            " seed=2), range(12), warmstart_episodes=4)\n"
            "print(fastpath.BACKEND, theta.tobytes().hex(), len(log))\n"
        )
        src = str(Path(fastpath.__file__).resolve().parents[1])
        runs = {}
        for pure in ("", "1"):
            env = {**os.environ, "RTSA_PURE_PYTHON": pure, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True, timeout=300).stdout.split()
            runs[out[0]] = out[1:]
        assert runs.keys() == {"c", "python"}
        assert runs["c"] == runs["python"]


class TestBuild:
    @needs_compiled
    def test_cache_hit_never_calls_the_compiler(self, monkeypatch):
        def no_compiler(target):
            raise AssertionError(f"compiler called although {target} is built")

        monkeypatch.setattr(fastpath, "_compile", no_compiler)
        assert fastpath._load_kernel() is not None

    @pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
    def test_failed_build_raises_with_the_compiler_error(self, tmp_path, monkeypatch):
        broken = tmp_path / "_rollout.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(fastpath, "_SOURCE", broken)
        target = tmp_path / "__pycache__" / "_rollout-0.so"
        with pytest.raises(OSError, match="could not compile _rollout.c: .*error"):
            fastpath._compile(target)
        assert list(target.parent.iterdir()) == []  # no temporary file left behind

    def test_a_build_deletes_the_stale_builds_but_no_temporary_file(self, tmp_path,
                                                                      monkeypatch):
        def compiler(command, **kwargs):
            Path(command[command.index("-o") + 1]).write_bytes(b"built")

        monkeypatch.setattr(subprocess, "run", compiler)
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        kept = [cache / "_rollout-111111111111.a1b2.tmp", cache / "learning.cpython-311.pyc"]
        for path in kept + [cache / "_rollout-000000000000.so"]:
            path.write_bytes(b"")
        target = cache / "_rollout-222222222222.so"
        fastpath._compile(target)
        assert sorted(cache.iterdir()) == sorted(kept + [target])
        assert target.read_bytes() == b"built"

    @needs_compiled
    def test_a_build_deleted_before_it_loads_is_built_again(self, tmp_path, monkeypatch):
        # Another process's build deletes this one between the check and the load.
        cached = fastpath._library_path()
        target = tmp_path / "__pycache__" / cached.name
        target.parent.mkdir()
        shutil.copy(cached, target)
        built = []

        def build(path):
            built.append(path)
            shutil.copy(cached, path)

        load = ctypes.CDLL

        def racing_load(path):
            if not built:
                target.unlink()
            return load(path)

        monkeypatch.setattr(fastpath, "_library_path", lambda: target)
        monkeypatch.setattr(fastpath, "_compile", build)
        monkeypatch.setattr(ctypes, "CDLL", racing_load)
        assert fastpath._load_kernel().rtsa_train is not None
        assert built == [target]

    def test_missing_numpy_random_library_raises_os_error(self, tmp_path, monkeypatch):
        # The import turns this OSError into the Python fallback and its reason.
        missing = tmp_path / "libnpyrandom.a"
        monkeypatch.setattr(fastpath, "_NPYRANDOM", missing)
        with pytest.raises(OSError, match="libnpyrandom.a"):
            fastpath._load_kernel()

    def test_pure_python_variable_forces_the_python_kernel(self):
        src = str(Path(fastpath.__file__).resolve().parents[1])
        env = {**os.environ, "RTSA_PURE_PYTHON": "1", "PYTHONPATH": src}
        code = "from rtsa import fastpath as f; print(f.BACKEND, f.rollout_compiled, f.FALLBACK_REASON)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.split() == ["python", "None", "RTSA_PURE_PYTHON", "is", "set"]


BACKENDS = [pytest.param("c", marks=needs_compiled), "python"]


def kernels(backend):
    """One backend's ``rollout``, ``batch``, ``train``, ``wind_draws`` and
    ``exit_counter``."""
    if backend == "c":
        return SimpleNamespace(rollout=rollout_compiled, batch=batch_compiled,
                               train=train_compiled, wind_draws=wind_draws_compiled,
                               exit_counter=fastpath.exit_counter_compiled)
    return SimpleNamespace(rollout=_rollout_py.rollout, batch=_rollout_py.batch,
                           train=_rollout_py.train, wind_draws=sim.wind_draws,
                           exit_counter=_rollout_py.exit_counter)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBaselineSwitch:
    # The kernels are the only statement of the distance-threshold switch:
    # it deploys outside the box or within delta of its boundary, inclusive.
    @staticmethod
    def deploy_steps(scenario, backend, delta, **overrides):
        """Seed 0's deploy step at ``delta`` from ``rollout`` and from ``batch``."""
        kwargs = {**batch_kwargs(scenario, PolicySpec.baseline(1.0), [0]), "delta": delta,
                  **overrides}
        batched = kernels(backend).batch(**kwargs)[0, 2]
        kwargs["wind_params"] = kwargs.pop("wind")[0]
        _, _, rolled = kernels(backend).rollout(**kwargs)
        return rolled, batched

    @staticmethod
    def start_distance(scenario):
        start = scenario.mission.waypoints[0]
        return float(np.min(np.minimum(start - scenario.envelope.min_corner,
                                       scenario.envelope.max_corner - start)))

    def test_a_start_exactly_delta_from_a_face_deploys_at_step_0(self, calibrated_scenario,
                                                                 backend):
        delta = self.start_distance(calibrated_scenario)
        assert self.deploy_steps(calibrated_scenario, backend, delta) == (0, 0)

    def test_a_start_one_ulp_beyond_delta_does_not_deploy_at_step_0(self, calibrated_scenario,
                                                                    backend):
        delta = np.nextafter(self.start_distance(calibrated_scenario), 0.0)
        rolled, batched = self.deploy_steps(calibrated_scenario, backend, delta)
        assert rolled == batched != 0

    def test_a_start_outside_the_box_deploys_at_step_0(self, calibrated_scenario, backend):
        # Scenario validation refuses such a start, but the kernels take any packed scenario.
        env_min = calibrated_scenario.envelope.min_corner.copy()
        env_min[0] = calibrated_scenario.mission.waypoints[0][0] + 1.0
        assert self.deploy_steps(calibrated_scenario, backend, 1.0, env_min=env_min) == (0, 0)


# Grids for warm sweeps: SWEEP_GRIDS' repeats, step-0 deploys and a threshold
# that never fires, and one so wide that it deploys at step 0 on every seed.
WARM_GRIDS = {grid: SWEEP_GRIDS[grid] for grid in ("soc", "duplicates", "step_0",
                                                    "never_fires", "same_step")}
WARM_GRIDS["wide"] = (1.0, 8.0, 1e6)


def forget(monkeypatch):
    """Empty the one fork record slot, so the next sweep on either backend is cold."""
    monkeypatch.setattr(_rollout_py, "_FORKS", {})


def last_record():
    """The last nominal batch's fork record on either backend: (states, capacity,
    summaries)."""
    _, *record = _rollout_py._FORKS["last"]
    return record


_TAKE = _rollout_py.fork_record


class RecordSpy:
    """A stand-in for ``_rollout_py.fork_record``, which both backends' batches take
    the fork record through.

    For each baseline batch it appends to ``hits`` whether the batch was
    handed a record and passes that to ``on_sweep``, if set, while the batch
    holds the record.
    """

    def __init__(self):
        self.hits, self.on_sweep = [], None

    @contextlib.contextmanager
    def take(self, policy_mode, *args):
        with _TAKE(policy_mode, *args) as record:
            if policy_mode == fastpath.POLICY_BASELINE:
                self.hits.append(record[0] is not None)
                if self.on_sweep is not None:
                    self.on_sweep(record[0] is not None)
            yield record


def spy_records(monkeypatch):
    """Put a new ``RecordSpy`` in place of ``_rollout_py.fork_record``; returns it."""
    spy = RecordSpy()
    monkeypatch.setattr(_rollout_py, "fork_record", spy.take)
    return spy


def count_hits(monkeypatch):
    """A list that gets, for each later sweep, whether it was handed a nominal batch's
    checkpoints."""
    return spy_records(monkeypatch).hits


def nominal(kwargs):
    """``sweep_kwargs``' nominal batch."""
    return {**kwargs, "policy_mode": fastpath.POLICY_NOMINAL, "delta": 0.0}


def warm_and_cold(backend, monkeypatch, kwargs, read=True):
    """``kwargs``' sweep on ``backend`` right after a nominal batch on the same
    inputs, and again from an empty memo; asserts that only the first read the
    nominal batch's checkpoints if ``read``."""
    batch = kernels(backend).batch
    hits = count_hits(monkeypatch)
    forget(monkeypatch)
    batch(**nominal(kwargs))
    warm = batch(**kwargs)
    warm_hits = hits[:]
    hits.clear()
    forget(monkeypatch)
    cold = batch(**kwargs)
    assert hits and not any(hits)
    assert warm_hits and (all(warm_hits) or not read)
    return warm, cold


def outside_start(scenario, kwargs):
    """``kwargs`` with the box moved so that the first waypoint lies outside it."""
    env_min = scenario.envelope.min_corner.copy()
    env_min[0] = scenario.mission.waypoints[0][0] + 1.0
    return {**kwargs, "env_min": env_min}


@pytest.mark.parametrize("backend", BACKENDS)
class TestForkMemo:
    # A baseline batch right after a nominal batch on the same scenario and
    # wind flies each threshold's trunk from the nominal batch's checkpoints;
    # every byte must be what the whole trunk gives.
    @pytest.mark.parametrize("which", ["calibrated", "short", "outside"])
    @pytest.mark.parametrize("grid", WARM_GRIDS, ids=str)
    def test_a_warm_sweep_equals_a_cold_one_and_the_single_threshold_batches(
            self, calibrated_scenario, short_scenario, monkeypatch, backend, which, grid):
        scenario = short_scenario if which == "short" else calibrated_scenario
        deltas, n_rows = WARM_GRIDS[grid], 40
        kwargs = sweep_kwargs(scenario, deltas, range(n_rows))
        if which == "outside":
            kwargs = outside_start(scenario, kwargs)
        batch = kernels(backend).batch
        singles = np.stack([batch(**{**kwargs, "delta": delta}) for delta in deltas])
        for workers in (1, 2, 3, n_rows + 5) if backend == "c" else (1,):
            monkeypatch.setattr(fastpath, "batch_workers", lambda n, w=workers: w)
            warm, cold = warm_and_cold(backend, monkeypatch, kwargs)
            assert warm.tobytes() == cold.tobytes() == singles.tobytes(), workers
        if which == "outside":
            assert np.all(warm[:, :, 2] == 0)

    def test_the_memo_misses_on_other_inputs(self, calibrated_scenario, monkeypatch, backend):
        batch = kernels(backend).batch
        seeds = list(range(30))
        kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], seeds)
        windy = calibrated_scenario.with_wind(2 * calibrated_scenario.sim.wind_sigma,
                                              2 * calibrated_scenario.sim.gust_sigma)
        others = {
            "with_wind": sweep_kwargs(windy, SWEEP_GRIDS["soc"], seeds),
            "other_seeds": sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"],
                                        range(100, 130)),
            "reordered": sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], seeds[::-1]),
        }
        for name, other in others.items():
            forget(monkeypatch)
            expected = batch(**other)
            batch(**nominal(kwargs))
            hits = count_hits(monkeypatch)
            assert batch(**other).tobytes() == expected.tobytes(), name
            assert hits and not any(hits), name
        # The nominal batch's own wind table, changed in place after it ran.
        wind = kwargs["wind"].copy()
        changed = wind.copy()
        changed[3, 0] += 0.5
        forget(monkeypatch)
        expected = batch(**{**kwargs, "wind": changed})
        batch(**nominal({**kwargs, "wind": wind}))
        wind[...] = changed
        hits = count_hits(monkeypatch)
        assert batch(**{**kwargs, "wind": wind}).tobytes() == expected.tobytes()
        assert hits and not any(hits)

    def test_record_caps_give_the_same_bytes(self, calibrated_scenario, monkeypatch, backend):
        # Rows without a slot in the record fly their whole trunk.
        kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(12))
        batch = kernels(backend).batch
        forget(monkeypatch)
        expected = batch(**kwargs)
        batch(**nominal(kwargs))
        row = (int(last_record()[2][0, 0]) - 1) // _rollout_py.FORK_GAP + 2  # row 0's checkpoints
        slot = _rollout_py.fork_slot(calibrated_scenario.sim.max_steps)
        assert 2 < row < slot
        for cap in (0, 1, row - 1, row, row + 1, slot - 1, slot, slot + 1, 5 * slot,
                    12 * slot - 1, 12 * slot):
            monkeypatch.setattr(_rollout_py, "RECORD_CAP", cap)
            for workers in (1, 2) if backend == "c" else (1,):
                monkeypatch.setattr(fastpath, "batch_workers", lambda n, w=workers: w)
                warm, cold = warm_and_cold(backend, monkeypatch, kwargs, read=False)
                assert warm.tobytes() == cold.tobytes() == expected.tobytes(), (cap, workers)

    def test_threads_interleaving_batches_on_different_winds(self, calibrated_scenario,
                                                              monkeypatch, backend):
        # Thread 0 sweeps right after each of its nominal batches; the others,
        # one more than the CPUs in all, run nominal batches of as many rows
        # on other wind, often while a sweep of thread 0 reads the record.
        # Every sweep must equal its cold sweep.
        batch = kernels(backend).batch
        forget(monkeypatch)
        n_threads = (os.cpu_count() or 1) + 1
        sweeps = [sweep_kwargs(calibrated_scenario.with_wind(sigma, sigma / 4),
                               SWEEP_GRIDS["soc"], range(12))
                  for sigma in np.linspace(4.0, 6.0, n_threads)]
        expected = [batch(**kwargs).tobytes() for kwargs in sweeps]
        rounds, done, errors = 100 if backend == "c" else 3, threading.Event(), []

        def sweeper():
            for _ in range(rounds):
                batch(**nominal(sweeps[0]))
                if batch(**sweeps[0]).tobytes() != expected[0]:
                    errors.append(0)
            done.set()

        def nominal_runner(i):
            while not done.is_set():
                batch(**nominal(sweeps[i]))
            if batch(**sweeps[i]).tobytes() != expected[i]:
                errors.append(i)

        threads = [threading.Thread(target=sweeper)]
        threads += [threading.Thread(target=nominal_runner, args=(i,))
                    for i in range(1, n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

    def test_a_nominal_batch_while_a_sweep_reads_leaves_its_record_alone(
            self, calibrated_scenario, monkeypatch, backend):
        # What another thread may do while a sweep reads the record, made
        # deterministic: a nominal batch on other wind of as many rows runs
        # once the sweep holds the record, and must not write into it.
        batch = kernels(backend).batch
        first, other = (sweep_kwargs(calibrated_scenario.with_wind(sigma, sigma / 4),
                                     SWEEP_GRIDS["soc"], range(12)) for sigma in (4.0, 6.0))
        forget(monkeypatch)
        expected, expected_other = batch(**first), batch(**other)
        batch(**nominal(first))
        interruptions = []

        def interrupted(handed):
            assert handed
            interruptions.append(batch(**nominal(other)))

        spy_records(monkeypatch).on_sweep = interrupted
        assert batch(**first).tobytes() == expected.tobytes()
        assert len(interruptions) == 1
        # The interrupting batch's record is the newer, and it stands.
        hits = count_hits(monkeypatch)
        assert batch(**other).tobytes() == expected_other.tobytes()
        assert hits and all(hits)

    def test_a_baseline_batch_on_other_wind_leaves_the_record_in_place(
            self, calibrated_scenario, monkeypatch, backend):
        # A baseline batch that misses the record, run between a nominal batch
        # and its sweep, must leave the record for that sweep.
        batch = kernels(backend).batch
        first, other = (sweep_kwargs(calibrated_scenario.with_wind(sigma, sigma / 4),
                                     SWEEP_GRIDS["soc"], range(12)) for sigma in (4.0, 6.0))
        forget(monkeypatch)
        expected, expected_other = batch(**first), batch(**other)
        batch(**nominal(first))
        hits = count_hits(monkeypatch)
        assert batch(**other).tobytes() == expected_other.tobytes()
        assert hits and not any(hits)
        hits.clear()
        assert batch(**first).tobytes() == expected.tobytes()
        assert hits and all(hits)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_second_sweep_while_the_first_holds_the_record_flies_whole_trunks(
        calibrated_scenario, monkeypatch, backend):
    # The record has one owner at a time: a sweep on the same inputs that
    # starts while another holds it is handed none and flies its whole
    # trunks; once both are done, the record is back for the next sweep.
    batch = kernels(backend).batch
    kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(12))
    forget(monkeypatch)
    expected = batch(**kwargs)
    batch(**nominal(kwargs))
    spy, second = spy_records(monkeypatch), []

    def sweep_again(handed):
        spy.on_sweep = None
        second.append(batch(**kwargs))

    spy.on_sweep = sweep_again
    first = batch(**kwargs)
    assert spy.hits == [True, False]
    assert first.tobytes() == second[0].tobytes() == expected.tobytes()
    spy.hits.clear()
    assert batch(**kwargs).tobytes() == expected.tobytes()
    assert spy.hits == [True]


@needs_compiled
def test_the_c_fork_record_equals_the_twins_byte_for_byte(calibrated_scenario, monkeypatch):
    # Each row records into its own slot, so on any worker count the C record
    # is the twin's, array for array, and exactly the rows below
    # RECORD_CAP // slot are recorded.
    n = 12
    kwargs = nominal(sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(n)))
    slot = _rollout_py.fork_slot(calibrated_scenario.sim.max_steps)
    for cap in (0, slot - 1, slot, 7 * slot, _rollout_py.RECORD_CAP):
        monkeypatch.setattr(_rollout_py, "RECORD_CAP", cap)
        forget(monkeypatch)
        _rollout_py.batch(**kwargs)
        states, capacity, summaries = last_record()
        assert capacity == min(cap // slot, n) * slot, cap
        assert states[capacity:].size <= _rollout_py.N_RECORDED and not states[capacity:].any()
        for workers in (1, 2, 3, n + 5):
            monkeypatch.setattr(fastpath, "batch_workers", lambda n, w=workers: w)
            forget(monkeypatch)
            batch_compiled(**kwargs)
            c_states, c_capacity, c_summaries = last_record()
            assert c_capacity == capacity, (cap, workers)
            assert c_summaries.dtype == summaries.dtype, (cap, workers)
            assert c_summaries.tobytes() == summaries.tobytes(), (cap, workers)
            assert c_states.shape == states.shape and c_states.tobytes() == states.tobytes(), \
                (cap, workers)


@needs_compiled
@pytest.mark.parametrize("which", ["calibrated", "outside"])
def test_a_record_serves_a_sweep_on_the_other_backend(calibrated_scenario, monkeypatch, which):
    # Both backends keep one record in one layout: a C nominal batch's record
    # serves a twin sweep and a twin's a C sweep, with the cold bytes.
    kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(12))
    if which == "outside":
        kwargs = outside_start(calibrated_scenario, kwargs)
    forget(monkeypatch)
    cold = batch_compiled(**kwargs)
    assert _rollout_py.batch(**kwargs).tobytes() == cold.tobytes()
    for record, sweep in ((batch_compiled, _rollout_py.batch),
                          (_rollout_py.batch, batch_compiled)):
        forget(monkeypatch)
        record(**nominal(kwargs))
        hits = count_hits(monkeypatch)
        assert sweep(**kwargs).tobytes() == cold.tobytes(), record
        assert hits == [True], record


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_sweep_reads_the_record_it_is_handed(calibrated_scenario, monkeypatch, backend):
    # Shown with a doctored record: 1e-3 never deploys, so on every recorded
    # row the sweep copies the nominal summary from the record, not from a flight.
    batch = kernels(backend).batch
    kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["never_fires"], range(6))
    forget(monkeypatch)
    batch(**nominal(kwargs))
    last_record()[2][:, 1] = 7777  # each row's nominal outcome
    assert batch(**kwargs)[0, :, 1].tolist() == [7777] * 6


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_record_keeps_its_own_copy_of_the_summaries(calibrated_scenario, monkeypatch,
                                                        backend):
    # A caller may write into the summaries a nominal batch returned; the
    # record reads each row's steps and outcome from a copy of its own.
    batch = kernels(backend).batch
    kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(12))
    forget(monkeypatch)
    cold = batch(**kwargs)
    summaries = batch(**nominal(kwargs))
    summaries[:] = -7
    hits = count_hits(monkeypatch)
    assert batch(**kwargs).tobytes() == cold.tobytes()
    assert hits == [True]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("which", ["calibrated", "short", "outside"])
def test_the_record_holds_every_eighth_state_of_the_flight(
        calibrated_scenario, short_scenario, monkeypatch, backend, which):
    # Checked against the trajectory that fastpath.rollout flies on the same
    # wind, not against the other backend's record: checkpoint j is its row
    # FORK_GAP * j, bit for bit, with the smallest boundary distance of the
    # rows before it, and the last checkpoint is its final row, with the
    # smallest distance of all the rows before that.
    scenario, n_rows = short_scenario if which == "short" else calibrated_scenario, 8
    kwargs = nominal(sweep_kwargs(scenario, SWEEP_GRIDS["soc"], range(n_rows)))
    if which == "outside":
        kwargs = outside_start(scenario, kwargs)
    forget(monkeypatch)
    kernels(backend).batch(**kwargs)
    states, capacity, summaries = last_record()
    gap, slot = _rollout_py.FORK_GAP, _rollout_py.fork_slot(scenario.sim.max_steps)
    assert capacity == n_rows * slot
    lo, hi = np.asarray(kwargs["env_min"]).tolist(), np.asarray(kwargs["env_max"]).tolist()
    flight = {key: value for key, value in kwargs.items() if key != "wind"}
    for i, wind_params in enumerate(kwargs["wind"]):
        traj, outcome, _ = fastpath.rollout(wind_params=wind_params, **flight)
        steps = len(traj) - 1
        assert summaries[i, :2].tolist() == [steps, outcome], i
        distances = [_rollout_py.boundary_distance(lo, hi, *row[1:4])
                     for row in traj[:-1].tolist()]
        last = (steps - 1) // gap + 1
        expected = [(*traj[gap * j, :7], min(distances[:gap * j], default=np.inf))
                    for j in range(last)]
        expected.append((*traj[-1, :7], min(distances)))
        checkpoints = states[i * slot:(i + 1) * slot]
        assert checkpoints[:last + 1].tobytes() == np.array(expected).tobytes(), i
        assert not checkpoints[last + 1:].any(), i


@needs_compiled
@pytest.mark.parametrize("k", [0, 1, 4])
def test_a_record_of_k_slots_holds_the_rows_below_k(calibrated_scenario, k):
    # rtsa_batch records row i only where its slot, checkpoints i * slot
    # onward, lies within fork_capacity, and writes nothing beyond the slots;
    # a sweep handed that record flies the other rows' whole trunks.
    kwargs = sweep_kwargs(calibrated_scenario, SWEEP_GRIDS["soc"], range(6))
    expected = c_batch(kwargs, 1)
    table = _rollout_py.checked_rows("wind", kwargs["wind"], 8)
    theta = _rollout_py.weight_columns(kwargs["theta"])
    scenario = {key: value for key, value in kwargs.items()
                if key not in ("wind", "theta", "policy_mode", "delta")}
    params, n_waypoints, steps = _rollout_py.pack(fastpath.POLICY_NOMINAL, **scenario)
    p, n, slot = fastpath._pointer, table.shape[0], _rollout_py.fork_slot(steps)
    capacity = (k + 1) * slot - 1  # room for k slots, not k + 1
    deltas = _rollout_py.thresholds(fastpath.POLICY_BASELINE, kwargs["delta"])
    for workers in (1, 3):
        states = np.zeros((capacity, _rollout_py.N_RECORDED))
        nominal_out = np.empty((n, 4), dtype=np.intc)
        out = np.empty(expected.shape, dtype=np.intc)
        for mode, thresholds, summaries, record in (
                (fastpath.POLICY_NOMINAL, np.zeros(()), nominal_out, None),
                (fastpath.POLICY_BASELINE, deltas, out, nominal_out)):
            fastpath._raise_for(fastpath._lib.rtsa_batch(
                p(params), n_waypoints, mode, steps, p(table), n, p(thresholds),
                thresholds.size, p(theta), p(summaries, ctypes.c_int), workers, p(states),
                capacity, p(record, ctypes.c_int)))
        # A recorded row's checkpoint 0 is its start, with no distance before it.
        assert np.all(states[:k * slot:slot, 7] == np.inf), workers
        assert not states[k * slot:].any(), workers
        assert out.tobytes() == expected.tobytes(), workers


def test_a_sweep_after_a_nominal_batch_flies_only_its_tails(calibrated_scenario, monkeypatch):
    # Counted on the Python twin: right after run_batch(nominal), each trunk
    # that sweep_baseline flies starts at a checkpoint fewer than FORK_GAP
    # steps before its fork, so it flies little beyond the tails; without the
    # memo, a trunk flies the whole nominal prefix.
    scenario, deltas, seeds = calibrated_scenario, SWEEP_GRIDS["soc"], range(30)
    monkeypatch.setattr(fastpath, "batch", _rollout_py.batch)
    forget(monkeypatch)
    flown = {True: [], False: []}  # steps flown by each trunk and each tail
    episode = _rollout_py._episode

    def counting(*args, **kw):
        start = kw["state"][7] if kw.get("state") else 0  # a fork overwrites the state
        result = episode(*args, **kw)
        flown[kw.get("fork", False)].append(result[4] - start)
        return result

    monkeypatch.setattr(_rollout_py, "_episode", counting)
    blocks = _rollout_py.batch(**sweep_kwargs(scenario, deltas, seeds))
    # Each seed flies its tails widest threshold first.
    tails = [steps - deploy for row in blocks.transpose(1, 0, 2)[:, ::-1].tolist()
             for steps, _, deploy, _ in row if deploy >= 0]
    cold_trunks = sum(flown[True])
    run_batch(PolicySpec.nominal(), scenario, seeds)
    flown[True].clear()
    flown[False].clear()
    sweep_baseline(scenario, deltas, seeds)
    assert flown[False] == tails
    assert len(flown[True]) == len(tails)
    assert all(0 <= steps < _rollout_py.FORK_GAP for steps in flown[True])
    assert sum(flown[True]) < cold_trunks / 20


# Warm-start demos: (scenario, policy mode, threshold, the outcomes they reach).
# On the calibrated demo the start lies 18 m from the box, so 18 deploys at
# step 0; the short scenario times out nominal flight after 150 steps and the
# tiny one after 20.
DEMO_CASES = {
    "exit_and_ground": ("calibrated", fastpath.POLICY_BASELINE, 8.0,
                        {Verdict.EXITED, Verdict.GROUNDED}),
    "complete_and_exit": ("calibrated", fastpath.POLICY_BASELINE, 4.0,
                          {Verdict.COMPLETED, Verdict.EXITED}),
    "timeout_and_exit": ("short", fastpath.POLICY_BASELINE, 8.0,
                         {Verdict.TIMEOUT, Verdict.EXITED}),
    "all_timeout": ("tiny", fastpath.POLICY_BASELINE, 8.0, {Verdict.TIMEOUT}),
    "deploy_at_step_0": ("calibrated", fastpath.POLICY_BASELINE, 18.0, {Verdict.GROUNDED}),
    "nominal": ("calibrated", fastpath.POLICY_NOMINAL, 0.0,
                {Verdict.COMPLETED, Verdict.EXITED}),
}
N_DEMOS, PASSES = 5, 3


@pytest.fixture
def demo_case(request, calibrated_scenario, short_scenario):
    """(``train`` keywords but the learner's, outcomes) for the DEMO_CASES entry named by
    the test's ``case``, on the first N_DEMOS wind seeds."""
    which, mode, delta, verdicts = DEMO_CASES[request.node.callspec.params["case"]]
    scenario = {"calibrated": calibrated_scenario, "short": short_scenario,
                "tiny": replace(calibrated_scenario,
                                sim=replace(calibrated_scenario.sim, max_steps=20))}[which]
    return dict(wind=wind_rows(wind_draws(range(N_DEMOS)), scenario.sim), policy_mode=mode,
                delta=delta, scales=scenario.feature_scales,
                alert_penalty=scenario.reward.alert_penalty,
                **fastpath.scenario_args(scenario)), verdicts


def warm_start_call(train, kwargs, n_episodes, learning_rate=3e-3):
    """``n_episodes`` no-exploration learning episodes in one ``train`` call, from small
    random weights; returns (rows, weights)."""
    theta = np.random.default_rng(17).normal(scale=1e-3, size=(2, N_FEATURES))
    rows = train(theta, 0.99, learning_rate, np.zeros(n_episodes), 0, **kwargs)
    return rows, theta


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", DEMO_CASES)
class TestWarmStartReplay:
    # A policy that does not read the weights flies each wind row once in a
    # call with more episodes than rows; the later passes replay the first
    # one's transitions, which must leave every byte as flying them does.
    def test_one_call_equals_one_call_per_pass(self, demo_case, backend, case):
        kwargs, verdicts = demo_case
        train = kernels(backend).train
        # Three passes and two episodes of a fourth: episode ep flies row ep % N_DEMOS.
        rows, theta = warm_start_call(train, kwargs, PASSES * N_DEMOS + 2)
        ref_theta = np.random.default_rng(17).normal(scale=1e-3, size=(2, N_FEATURES))
        ref_rows = [train(ref_theta, 0.99, 3e-3, np.zeros(N_DEMOS), 0, **kwargs)
                    for _ in range(PASSES)]
        ref_rows.append(train(ref_theta, 0.99, 3e-3, np.zeros(2), 0,
                              **{**kwargs, "wind": kwargs["wind"][:2]}))
        assert rows.tobytes() == np.concatenate(ref_rows).tobytes()
        assert theta.tobytes() == ref_theta.tobytes()
        assert {fastpath.VERDICTS[o] for o in rows[:, 1].tolist()} == verdicts
        if case == "deploy_at_step_0":
            assert set(rows[:, 2].tolist()) == {0.0}
        # Each replay learns something: its largest TD error is its own.
        errors = rows[:, _rollout_py.TRAIN_COLUMNS.index("max_abs_td_error")]
        assert np.all(errors > 0.0) and len(set(errors.tolist())) > N_DEMOS

    def test_a_small_record_cap_gives_the_same_bytes(self, demo_case, backend, case,
                                                     monkeypatch):
        # Rows beyond the cap are flown on every pass instead of replayed.
        kwargs, _ = demo_case
        train = kernels(backend).train
        expected = warm_start_call(train, kwargs, PASSES * N_DEMOS)
        states = expected[0][:N_DEMOS, _rollout_py.TRAIN_COLUMNS.index("steps")] + 1
        first_two = int(states[0] + states[1])
        for cap in (0, 1, int(states[0]), first_two - 1, first_two, first_two + 1):
            monkeypatch.setattr(_rollout_py, "RECORD_CAP", cap)
            rows, theta = warm_start_call(train, kwargs, PASSES * N_DEMOS)
            assert rows.tobytes() == expected[0].tobytes(), cap
            assert theta.tobytes() == expected[1].tobytes(), cap


@pytest.mark.parametrize("case", ["exit_and_ground", "all_timeout"])
def test_only_rows_beyond_the_record_cap_are_flown_again(demo_case, case, monkeypatch):
    # Counted on the Python twin: a recorded row is flown once, the others on
    # every pass, and a row that does not fit stops the recording.
    kwargs, _ = demo_case
    flown = []
    episode = _rollout_py._episode

    def counting(*args, **kw):
        flown.append(kw["record"] is not None)
        return episode(*args, **kw)

    monkeypatch.setattr(_rollout_py, "_episode", counting)
    rows, _ = warm_start_call(_rollout_py.train, kwargs, PASSES * N_DEMOS)
    assert flown == [True] * N_DEMOS
    states = rows[:N_DEMOS, _rollout_py.TRAIN_COLUMNS.index("steps")].astype(int) + 1
    monkeypatch.setattr(_rollout_py, "RECORD_CAP", int(states[0] + states[1]))
    flown.clear()
    warm_start_call(_rollout_py.train, kwargs, PASSES * N_DEMOS)
    # Rows 0 and 1 fit; row 2 does not, so it and the later rows are not recorded.
    assert flown == [True] * 3 + [False] * 2 + [False] * 3 * (PASSES - 1)
    monkeypatch.setattr(_rollout_py, "RECORD_CAP", 0)
    flown.clear()
    warm_start_call(_rollout_py.train, kwargs, PASSES * N_DEMOS)
    assert len(flown) == PASSES * N_DEMOS
    # Online training reads the weights, so it never replays.
    monkeypatch.undo()
    monkeypatch.setattr(_rollout_py, "_episode", counting)
    flown.clear()
    warm_start_call(_rollout_py.train, {**kwargs, "policy_mode": fastpath.POLICY_WEIGHTS},
                    PASSES * N_DEMOS)
    assert flown == [False] * PASSES * N_DEMOS


@needs_compiled
@pytest.mark.parametrize("case", DEMO_CASES)
def test_one_call_warm_start_equal_on_both_backends(demo_case, case):
    kwargs, _ = demo_case
    c_rows, c_theta = warm_start_call(train_compiled, kwargs, PASSES * N_DEMOS + 1)
    py_rows, py_theta = warm_start_call(_rollout_py.train, kwargs, PASSES * N_DEMOS + 1)
    assert c_rows.tobytes() == py_rows.tobytes()
    assert c_theta.tobytes() == py_theta.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
class TestArgumentChecks:
    # Each case would make C read or write out of bounds, overflow an int or
    # divide by a zero-length segment, and make the Python loop crash or run
    # a wrong episode; both backends must refuse it first.
    @pytest.mark.parametrize(
        "key,value",
        [
            ("waypoints", np.zeros((1, 3))),
            ("waypoints", np.zeros((4, 2))),
            ("waypoints", np.zeros(12)),
            ("waypoints", [[0.0, 0.0, 12.0], [0.0, 0.0, 12.0], [60.0, 0.0, 0.0]]),
            ("waypoints", [[0.0, 0.0, 12.0], [np.nan, 0.0, 12.0]]),
            ("theta", np.zeros((8, 2))),
            ("theta", np.zeros(18)),
            ("scales", np.ones(7)),
            ("scales", None),
            ("wind_params", np.zeros(9)),
            ("env_min", np.zeros(2)),
            ("env_min", ["a", "b", "c"]),
            ("env_max", np.zeros(4)),
            ("max_steps", 0),
            ("max_steps", MAX_STEPS + 1),
            ("max_steps", 2**40),
            ("max_steps", 2.5),
            ("policy_mode", 3),
            ("policy_mode", 7),
            ("policy_mode", -1),
        ],
    )
    def test_bad_argument_raises_value_error(self, calibrated_scenario, backend, key, value):
        kwargs = dict(
            wind_params=np.zeros(8),
            policy_mode=fastpath.POLICY_NOMINAL,
            delta=0.0,
            theta=np.zeros((N_FEATURES, 2)),
            scales=calibrated_scenario.feature_scales,
            alert_penalty=0.05,
            **_kernel_scenario_args(calibrated_scenario),
        )
        kwargs[key] = value
        with pytest.raises(ValueError, match=key):
            kernels(backend).rollout(**kwargs)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("wind", np.zeros((0, 8))),
            ("wind", np.zeros((3, 7))),
            ("wind", np.zeros(8)),
            ("policy_mode", 3),
            ("waypoints", np.zeros((1, 3))),
            ("waypoints", np.zeros((2, 3))),
            ("theta", np.zeros(18)),
            ("max_steps", 0),
        ],
    )
    def test_bad_batch_argument_raises_value_error(self, calibrated_scenario, backend, key,
                                                   value):
        kwargs = batch_kwargs(calibrated_scenario, PolicySpec.nominal(), range(3))
        kwargs[key] = value
        with pytest.raises(ValueError, match=key):
            kernels(backend).batch(**kwargs)

    @staticmethod
    def counter_kwargs(scenario, seeds=range(3)):
        """``exit_counter``'s arguments on ``scenario`` and ``seeds``."""
        draws, sim = wind_draws(seeds), scenario.sim
        return dict(draws=draws, wind=wind_rows(draws, sim),
                    wind_mean=(sim.wind_mean_x, sim.wind_mean_y), scales=scenario.feature_scales,
                    alert_penalty=scenario.reward.alert_penalty,
                    **_kernel_scenario_args(scenario))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("draws", np.zeros((4, 8))),  # another n than the wind's
            ("wind", np.zeros((2, 8))),
            ("draws", np.zeros((0, 8))),
            ("draws", np.zeros(8)),
            ("wind", np.zeros((3, 7))),
            ("wind_mean", np.zeros(3)),
            ("wind_mean", ["a", "b"]),
            ("wind_mean", None),
            ("waypoints", np.zeros((1, 3))),
            ("scales", np.ones(7)),
            ("max_steps", 0),
            ("max_steps", MAX_STEPS + 1),
            ("max_steps", 2.5),
        ],
    )
    def test_bad_exit_counter_argument_raises_value_error(self, calibrated_scenario, backend,
                                                          key, value):
        # Checked once, when the counter is made, before any count.
        kwargs = self.counter_kwargs(calibrated_scenario)
        kwargs[key] = value
        with pytest.raises(ValueError, match=key):
            kernels(backend).exit_counter(**kwargs)

    def test_an_exit_count_refuses_a_zero_length_segment(self, calibrated_scenario, backend):
        kwargs = self.counter_kwargs(calibrated_scenario)
        kwargs["waypoints"] = [[0.0, 0.0, 12.0], [0.0, 0.0, 12.0], [60.0, 0.0, 0.0]]
        count = kernels(backend).exit_counter(**kwargs)
        with pytest.raises(ValueError, match=re.escape(_rollout_py.ZERO_SEGMENT)):
            count(8.0, 2.0)

    @pytest.mark.parametrize("max_steps", [1, MAX_STEPS])
    def test_an_exit_count_takes_max_steps_at_its_bounds(self, calibrated_scenario, backend,
                                                         max_steps):
        kwargs = {**self.counter_kwargs(calibrated_scenario), "max_steps": max_steps}
        exits = kernels(backend).exit_counter(**kwargs)(60.0, 15.0)
        assert exits == (0 if max_steps == 1 else 3)

    @pytest.mark.parametrize(
        "theta",
        [np.zeros((N_FEATURES, 2)), np.zeros((2, N_FEATURES), dtype=np.float32),
         np.zeros((N_FEATURES, 2)).T, np.zeros((2, N_FEATURES)).tolist()],
        ids=["shape", "dtype", "strided", "list"],
    )
    def test_learning_weights_must_be_updatable_in_place(self, calibrated_scenario, backend,
                                                         theta):
        with pytest.raises(ValueError, match="theta"):
            train_call(kernels(backend).train, calibrated_scenario, theta, [0.0])

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3", None])
    def test_training_seed_must_be_a_64_bit_integer(self, calibrated_scenario, backend, seed):
        theta = np.zeros((2, N_FEATURES))
        with pytest.raises(ValueError, match="seed"):
            train_call(kernels(backend).train, calibrated_scenario, theta, [0.1], seed=seed)
        assert np.all(theta == 0.0)

    @pytest.mark.parametrize("epsilons", [[1.5], [-0.1], [np.nan], [[0.1]], 0.1, ["x"]])
    def test_training_epsilons_must_lie_in_the_unit_interval(self, calibrated_scenario, backend,
                                                             epsilons):
        theta = np.zeros((2, N_FEATURES))
        with pytest.raises(ValueError, match="epsilons"):
            kernels(backend).train(theta, 0.99, 3e-3, epsilons, 0, wind=np.zeros((1, 8)),
                                   policy_mode=fastpath.POLICY_WEIGHTS, delta=0.0,
                                   scales=calibrated_scenario.feature_scales, alert_penalty=0.05,
                                   **_kernel_scenario_args(calibrated_scenario))

    def test_training_needs_wind_only_for_episodes(self, calibrated_scenario, backend):
        args = dict(policy_mode=fastpath.POLICY_WEIGHTS, delta=0.0,
                    scales=calibrated_scenario.feature_scales, alert_penalty=0.05,
                    **_kernel_scenario_args(calibrated_scenario))
        theta = np.zeros((2, N_FEATURES))
        assert kernels(backend).train(theta, 0.99, 3e-3, [], 0, wind=np.zeros((0, 8)),
                                      **args).shape == (0, len(_rollout_py.TRAIN_COLUMNS))
        with pytest.raises(ValueError, match="wind"):
            kernels(backend).train(theta, 0.99, 3e-3, [0.1], 0, wind=np.zeros((0, 8)),
                                   **args)

    @pytest.mark.parametrize("seeds", [[-1], [0, 2**64], [1.5], [True], ["7"], [None],
                                       np.array([3.0])])
    def test_bad_wind_seed_raises_value_error_naming_it(self, backend, seeds):
        bad = [s for s in list(seeds) if not sim.is_seed(s)][0]
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            kernels(backend).wind_draws(seeds)

    def test_read_only_arrays_are_accepted(self, calibrated_scenario, backend):
        kwargs = batch_kwargs(calibrated_scenario, BATCH_POLICIES[-1], range(3))
        frozen = {key: np.array(value, order="C") for key, value in kwargs.items()
                  if isinstance(value, np.ndarray)}
        for value in frozen.values():
            value.flags.writeable = False
        batch = kernels(backend).batch
        assert batch(**{**kwargs, **frozen}).tobytes() == batch(**kwargs).tobytes()

    @staticmethod
    def call_entry(scenario, backend, entry, policy_mode, delta):
        """``entry`` of ``backend`` on three seeds of ``scenario`` under the given policy."""
        if entry == "train":
            return train_call(kernels(backend).train, scenario, np.zeros((2, N_FEATURES)),
                              [0.0] * 3, policy_mode=policy_mode, delta=delta)
        kwargs = {**sweep_kwargs(scenario, (8.0,), range(3)), "policy_mode": policy_mode,
                  "delta": delta}
        if entry == "rollout":
            kwargs["wind_params"] = kwargs.pop("wind")[0]
        return getattr(kernels(backend), entry)(**kwargs)

    @pytest.mark.parametrize("delta", BAD_DELTAS.values(), ids=BAD_DELTAS.keys())
    @pytest.mark.parametrize("entry", ["rollout", "batch", "train"])
    def test_bad_threshold_raises_value_error(self, calibrated_scenario, backend, entry, delta):
        with pytest.raises(ValueError, match="delta"):
            self.call_entry(calibrated_scenario, backend, entry, fastpath.POLICY_BASELINE, delta)

    @pytest.mark.parametrize("entry", ["rollout", "batch", "train"])
    @pytest.mark.parametrize("mode", [fastpath.POLICY_NOMINAL, fastpath.POLICY_WEIGHTS])
    def test_only_the_baseline_takes_several_thresholds(self, calibrated_scenario, backend,
                                                        entry, mode):
        with pytest.raises(ValueError, match="delta must .*shape"):
            self.call_entry(calibrated_scenario, backend, entry, mode, (1.0, 8.0))

    def test_the_learner_flies_the_baseline_on_one_threshold_only(self, calibrated_scenario,
                                                                  backend):
        # A warm-start pass flies one switch; a sweep of several is the batch's job.
        with pytest.raises(ValueError, match="delta must .*shape"):
            self.call_entry(calibrated_scenario, backend, "train", fastpath.POLICY_BASELINE,
                            (1.0, 8.0))

    @pytest.mark.parametrize("mode", [3, 7, -1])
    def test_the_learner_refuses_an_unknown_policy_mode(self, calibrated_scenario, backend,
                                                        mode):
        with pytest.raises(ValueError, match="policy_mode"):
            self.call_entry(calibrated_scenario, backend, "train", mode, 8.0)


def fuzzed(valid):
    """``valid`` recast to another dtype, not numbers, or ones of a drawn shape."""
    valid = np.asarray(valid, dtype=float)
    return st.one_of(
        st.sampled_from([np.float32, np.int64, np.bool_, np.str_, object]).map(valid.astype),
        st.sampled_from([None, "x", np.full(valid.shape, "x")]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).map(np.ones),
    )


def _valid_result(entry, result, args):
    max_steps = args["max_steps"]
    if entry == "exit_counter":
        return type(result) is int and 0 <= result <= len(args["wind"])
    if entry == "batch":
        rows = result.reshape(-1, 4)
        steps, outcomes, deploy_steps = rows[:, 0], rows[:, 1], rows[:, 2]
        return (result.dtype == np.intc and result.ndim == 2 + np.ndim(args["delta"])
                and result.shape[-1] == 4
                and np.all((steps >= 1) & (steps <= max_steps))
                and np.all((outcomes >= 1) & (outcomes <= 4))
                and np.all((deploy_steps >= -1) & (deploy_steps < steps)))
    if entry == "train":
        rows, _ = result
        columns = dict(zip(_rollout_py.TRAIN_COLUMNS, rows.T))
        steps = columns["steps"]
        return (rows.dtype == np.float64 and rows.ndim == 2
                and rows.shape[1] == len(_rollout_py.TRAIN_COLUMNS)
                and np.all((steps >= 1) & (steps <= max_steps))
                and np.all((columns["outcome"] >= 1) & (columns["outcome"] <= 4))
                and np.all((columns["deploy_step"] >= -1) & (columns["deploy_step"] < steps)))
    (_, outcome, deploy_step), steps = result, len(result[0]) - 1
    return 1 <= steps <= max_steps and 1 <= outcome <= 4 and -1 <= deploy_step < steps


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@settings(max_examples=467, deadline=None)
@given(data=st.data())
def test_kernel_wrappers_give_a_result_or_value_error(calibrated_scenario, data):
    # Bad shapes and dtypes of every array, bad thresholds, and max_steps and
    # policy modes around their bounds: each call returns a valid result or
    # raises ValueError, never another exception, and both backends agree.
    # The threshold is fuzzed like any array; as a bad one is refused before
    # the arrays are checked, the example count is set so that the draws of
    # each of rollout, batch and train reaching the array checks and the
    # kernels are no fewer than with 200 examples over those three entries
    # and no threshold fuzzing. The exit counter, which takes no policy or
    # threshold, is a fourth entry, and the count is 4/3 of what three took.
    scenario, sim = calibrated_scenario, calibrated_scenario.sim
    entry = data.draw(st.sampled_from(["rollout", "batch", "train", "exit_counter"]),
                      label="entry")
    wind_key = "wind_params" if entry == "rollout" else "wind"
    draws = wind_draws([5, 6])
    wind = wind_rows(draws, sim)
    args = dict(_kernel_scenario_args(scenario), scales=scenario.feature_scales,
                alert_penalty=scenario.reward.alert_penalty,
                max_steps=data.draw(st.sampled_from([-1, 0, 1, 2400, MAX_STEPS + 1, 2**40]),
                                    label="max_steps"),
                **{wind_key: wind[0] if entry == "rollout" else wind})
    keys = ["env_min", "env_max", "waypoints", "scales", wind_key]
    if entry == "exit_counter":
        args.update(draws=draws, wind_mean=(sim.wind_mean_x, sim.wind_mean_y))
        keys += ["draws", "wind_mean"]
    else:
        args.update(policy_mode=data.draw(st.sampled_from([-1, 0, 1, 2, 3]), label="policy_mode"),
                    delta=8.0)
        keys += ["theta", "delta"]
    if entry == "train":
        args.update(theta=np.zeros((2, N_FEATURES)), epsilons=[0.1, 0.3, 1.0])
        keys.append("epsilons")
    elif entry != "exit_counter":
        args.update(theta=random_weights(np.random.default_rng(3)))
    delta_key = None
    for key in data.draw(st.sets(st.sampled_from(keys), max_size=2), label="fuzzed"):
        if key == "delta":
            delta_key = data.draw(st.sampled_from(["sweep", *BAD_DELTAS]), label="delta")
            args["delta"] = {"sweep": [1.0, 8.0, 8.0, 16.0], **BAD_DELTAS}[delta_key]
        else:
            args[key] = data.draw(fuzzed(args[key]), label=key)
    if entry == "train":
        theta, epsilons = args.pop("theta"), args.pop("epsilons")

    def call(backend):
        kernel = getattr(kernels(backend), entry)
        try:
            if entry == "exit_counter":
                return kernel(**args)(sim.wind_sigma, sim.gust_sigma)
            if entry != "train":
                return kernel(**args)
            weights = copy.deepcopy(theta)
            return kernel(weights, 0.99, 3e-3, epsilons, 4, **args), weights
        except ValueError:
            return ValueError

    results = [call(backend) for backend in
               ["python"] + (["c"] if rollout_compiled is not None else [])]
    # The baseline refuses every bad threshold; the other policies ignore their
    # one number but refuse an array, as a rollout and a learner do.
    if entry != "exit_counter":
        delta = args["delta"]
        several = np.ndim(delta) > 0 and (entry != "batch"
                                          or args["policy_mode"] != fastpath.POLICY_BASELINE)
        bad = delta_key in BAD_DELTAS and args["policy_mode"] == fastpath.POLICY_BASELINE
        if several or bad:
            assert all(result is ValueError for result in results)
    for result in results:
        assert result is ValueError or _valid_result(entry, result, args)
    if len(results) == 2:
        assert (results[0] is ValueError) == (results[1] is ValueError)
        assert results[0] is ValueError or _same(results[0], results[1])


class TestKernelMatchesPythonComposition:
    # The kernel mirrors the building-block arithmetic with scalar math while
    # sim.step uses numpy vector ops, so agreement is to rounding error, not
    # bit-for-bit (that guarantee is between the two kernel backends).
    TOL = dict(rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_baseline_episode_replay(self, calibrated_scenario, seed):
        # Re-simulate the episode with the plain Python building blocks and
        # demand the kernel produced the same states and actions.
        scenario = calibrated_scenario
        record = run_episode(PolicySpec.baseline(8.0), scenario, seed)
        field, _ = wind_params_for(seed, scenario)
        path = build_path(scenario.mission)
        state = VehicleState(
            position=scenario.mission.waypoints[0].copy(),
            velocity=np.zeros(3),
            deployed=False,
        )
        for row in record.trajectory[:-1]:
            np.testing.assert_allclose(row[1:4], state.position, **self.TOL)
            np.testing.assert_allclose(row[4:7], state.velocity, **self.TOL)
            wind = wind_at(field, state.position, state.time)
            action = (
                Action.DEPLOY
                if state.deployed
                or np.min(
                    np.minimum(
                        state.position - scenario.envelope.min_corner,
                        scenario.envelope.max_corner - state.position,
                    )
                )
                <= 8.0
                else Action.CONTINUE
            )
            assert int(row[7]) == int(action)
            u = compose_controller(action, state, path, wind, scenario.sim)
            state = step(state, u, field, scenario.sim)
        last = record.trajectory[-1]
        np.testing.assert_allclose(last[1:4], state.position, **self.TOL)
        np.testing.assert_allclose(last[4:7], state.velocity, **self.TOL)

    def test_weights_episode_actions_match_rtsa_action(self, calibrated_scenario):
        scenario = calibrated_scenario
        theta = random_weights(np.random.default_rng(17))
        record = run_episode(PolicySpec.weights(theta), scenario, 13)
        field, _ = wind_params_for(13, scenario)
        deployed = False
        for row in record.trajectory[:-1]:
            state = VehicleState(position=row[1:4].copy(), velocity=row[4:7].copy(),
                                 time=row[0], deployed=deployed)
            wind = wind_at(field, state.position, state.time)
            action = rtsa_action(theta, state, scenario.envelope, wind,
                                 scenario.feature_scales)
            assert int(row[7]) == int(action)
            deployed = deployed or action == Action.DEPLOY


class TestKernelInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_latch_and_reward_set(self, calibrated_scenario, seed):
        record = run_episode(PolicySpec.baseline(8.0), calibrated_scenario, seed)
        actions = record.trajectory[:-1, 7]
        if record.deploy_step is not None:
            assert np.all(actions[record.deploy_step:] == 1)
        alpha = calibrated_scenario.reward.alert_penalty
        assert set(np.round(record.trajectory[:-1, 8], 12)) <= {0.0, -alpha, -1.0}

    def test_termination_reason_consistent(self, calibrated_scenario):
        s = calibrated_scenario
        for seed in range(8):
            record = run_episode(PolicySpec.nominal(), s, seed)
            last = record.trajectory[-1]
            verdict = episode_terminated(
                VehicleState(position=last[1:4], velocity=last[4:7], time=last[0],
                             deployed=False),
                s.envelope, s.mission, len(record.trajectory) - 1, s.sim,
            )
            assert verdict == record.outcome


@pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")
@pytest.mark.skipif(not fastpath._NPYRANDOM.exists(), reason="no numpy libnpyrandom.a")
def test_the_kernel_builds_without_warnings(tmp_path):
    # A warning the build flags hide is still a warning: -Wall -Wextra must stay quiet.
    cc = next(c for c in (sysconfig.get_config_var("CC"), "cc") if c and shutil.which(c.split()[0]))
    run = subprocess.run([*shlex.split(cc), *fastpath._CFLAGS, "-Wall", "-Wextra", "-Werror",
                          "-o", str(tmp_path / "kernel.so"), str(fastpath._SOURCE),
                          *fastpath._LDLIBS], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_the_c_entry_points_are_exactly_the_bound_functions(monkeypatch):
    # An entry point left without a caller, or a binding to a deleted one,
    # fails here. Needs no build: _load_kernel binds into a stand-in library.
    defined = set(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(rtsa_\w+)\s*\(",
                             fastpath._SOURCE.read_text(), re.M))

    class Library:
        def __init__(self, path):
            self.functions = {}

        def __getattr__(self, name):
            return self.functions.setdefault(name, SimpleNamespace())

    monkeypatch.setattr(fastpath, "_library_path", lambda: fastpath._SOURCE)
    monkeypatch.setattr(fastpath.ctypes, "CDLL", Library)
    bound = {name for name, function in fastpath._load_kernel().functions.items()
             if hasattr(function, "argtypes")}
    assert "rtsa_batch" in defined
    assert defined == bound


def calibration_bytes(result):
    """A ``CalibrationResult`` as (sigma, gust, rate) float64 bytes and iterations."""
    return (np.array([result.wind_sigma, result.gust_sigma, result.exit_rate]).tobytes(),
            result.iterations)


def on_backend(backend, monkeypatch, workers=None):
    """Route ``evaluation``'s batches and exit counts to ``backend``, on ``workers``
    threads if given."""
    monkeypatch.setattr(fastpath, "batch", kernels(backend).batch)
    monkeypatch.setattr(fastpath, "exit_counter", kernels(backend).exit_counter)
    if workers is not None:
        monkeypatch.setattr(fastpath, "batch_workers", lambda n: workers)


# (target, tolerance, seeds) for calibrations: a few evaluations, many, and a
# target the first bracket point already exceeds.
CALIBRATIONS = [(0.25, 0.02, range(30)), (0.5, 0.05, range(100, 140)),
                (0.1, 0.03, range(7, 47)), (0.75, 0.01, range(200, 260))]
PY_CALIBRATIONS = [(0.25, 0.05, range(10)), (0.5, 0.1, range(40, 50))]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("which", ["calibrated", "default", "windless"])
def test_calibration_equals_one_batch_per_evaluation(calibrated_scenario, demo_scenario,
                                                     monkeypatch, backend, which):
    # The windless scenario has no gust ratio of its own and takes 0.25.
    scenario = {"calibrated": calibrated_scenario, "default": demo_scenario,
                "windless": calibrated_scenario.with_wind(0.0, 0.0)}[which]
    batch = kernels(backend).batch
    cases = CALIBRATIONS if backend == "c" else PY_CALIBRATIONS
    iterations = set()
    for target, tol, seeds in cases:
        expected = calibration_bytes(calibration_oracle.calibrate_wind(
            scenario, target, seeds, tol=tol, batch=batch))
        iterations.add(expected[1])
        for workers in (1, 2, 3, len(seeds) + 5) if backend == "c" else (None,):
            on_backend(backend, monkeypatch, workers)
            got = calibration_bytes(calibrate_wind(scenario, target, seeds, tol=tol))
            assert got == expected, (target, tol, workers)
    assert len(iterations) > 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_calibration_out_of_budget_raises_as_the_batch_loop(demo_scenario, monkeypatch,
                                                            backend):
    # Three seeds give exit rates in thirds only: none lies within 0.01 of 0.25.
    on_backend(backend, monkeypatch)
    with pytest.raises(RuntimeError) as expected:
        calibration_oracle.calibrate_wind(demo_scenario, 0.25, range(3), tol=0.01,
                                          batch=kernels(backend).batch)
    with pytest.raises(RuntimeError) as got:
        calibrate_wind(demo_scenario, 0.25, range(3), tol=0.01)
    assert str(got.value) == str(expected.value)
    assert "within 40 evaluations" in str(got.value)


def count_exit_counts(backend, monkeypatch):
    """Route ``evaluation``'s exit counts to ``backend``; returns the list each count
    appends its (sigma, gust) to."""
    counts = []

    def exit_counter(*args, **kwargs):
        count = kernels(backend).exit_counter(*args, **kwargs)
        return lambda sigma, gust: counts.append((sigma, gust)) or count(sigma, gust)

    monkeypatch.setattr(fastpath, "exit_counter", exit_counter)
    return counts


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_a_bracket_that_uses_up_the_budget_is_not_bracketed(calibrated_scenario, monkeypatch,
                                                            backend, budget):
    # On these seeds the rate doubles from 0.25 at sigma 7.5 to 1.0 at 60, past
    # the target only at the fourth evaluation, which still uses up a budget of 4.
    scenario, seeds = calibrated_scenario, range(12)
    with pytest.raises(RuntimeError, match="failed to bracket"):
        calibration_oracle.calibrate_wind(scenario, 0.9, seeds, budget=budget,
                                          batch=kernels(backend).batch)
    on_backend(backend, monkeypatch)
    counts = count_exit_counts(backend, monkeypatch)
    monkeypatch.setattr(evaluation, "CALIBRATION_BUDGET", budget)
    with pytest.raises(RuntimeError, match="failed to bracket"):
        calibrate_wind(scenario, 0.9, seeds)
    assert len(counts) == max(budget, 2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_calibration_leaves_the_fork_record_alone(calibrated_scenario, monkeypatch, backend):
    # A calibration or an exit rate between a nominal batch and its sweep keeps
    # no record of its own, so the sweep still reads the nominal batch's
    # checkpoints.
    scenario, deltas, seeds = calibrated_scenario, SWEEP_GRIDS["soc"], range(12)
    on_backend(backend, monkeypatch)
    forget(monkeypatch)
    cold = sweep_baseline(scenario, deltas, seeds)
    run_batch(PolicySpec.nominal(), scenario, seeds)
    hits = count_hits(monkeypatch)
    calibrate_wind(scenario, 0.25, range(100, 112), tol=0.05)
    exit_rate(scenario, range(100, 112))
    assert sweep_baseline(scenario, deltas, seeds) == cold
    assert hits and all(hits)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("target,tol,seeds", CALIBRATIONS)
def test_exit_rate_reproduces_the_calibrated_rate(calibrated_scenario, monkeypatch, backend,
                                                  target, tol, seeds):
    # exit_rate counts at the scenario's own wind, the rows sim.wind_rows scales;
    # the calibration counts at each sigma it tries. Both must be one count.
    on_backend(backend, monkeypatch)
    result = calibrate_wind(calibrated_scenario, target, seeds, tol=tol)
    windy = calibrated_scenario.with_wind(result.wind_sigma, result.gust_sigma)
    assert exit_rate(windy, seeds) == result.exit_rate


@pytest.mark.parametrize("backend", BACKENDS)
def test_calibration_refuses_a_bad_target_or_tol_before_drawing_wind(calibrated_scenario,
                                                                     monkeypatch, backend):
    # A NaN tol passes no comparison, so it would run the whole budget and call
    # its closest point calibrated; a string or a bool would reach the kernel.
    on_backend(backend, monkeypatch)
    monkeypatch.setattr(fastpath, "wind_draws", lambda seeds: pytest.fail("wind drawn"))
    for target in ("x", None, True, np.True_, float("nan"), 0.0, 1.0, -0.5, 10**400):
        with pytest.raises(ValueError) as info:
            calibrate_wind(calibrated_scenario, target, range(12))
        assert str(info.value) == f"target exit rate must lie in (0, 1), got {target!r}"
    for tol in ("x", None, True, float("nan"), np.float64("nan"), float("inf"), -float("inf"),
                -0.01, 10**400):
        with pytest.raises(ValueError) as info:
            calibrate_wind(calibrated_scenario, 0.25, range(12), tol=tol)
        assert str(info.value) == f"tol must be a finite number >= 0, got {tol!r}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_calibration_takes_any_real_target_and_tol(calibrated_scenario, monkeypatch, backend):
    on_backend(backend, monkeypatch)
    expected = calibration_bytes(calibrate_wind(calibrated_scenario, 0.25, range(12), tol=0.05))
    for target, tol in ((np.float64(0.25), np.float64(0.05)), (Fraction(1, 4), Fraction(1, 20))):
        got = calibrate_wind(calibrated_scenario, target, range(12), tol=tol)
        assert calibration_bytes(got) == expected, (target, tol)
