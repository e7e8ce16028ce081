"""The C kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

Builds ``sanitizer_driver.c`` with ``src/rtsa/_rollout.c`` and numpy's
``libnpyrandom.a`` under ``-fsanitize=address,undefined``, runs it on inputs
packed by ``_rollout_py.pack`` and checks that no sanitizer reports and that
every output equals the Python twin's. Skipped where gcc, the archive or a
sanitizer runtime is missing.
"""

import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from rtsa import _rollout_py, fastpath
from rtsa.evaluation import PolicySpec, _kernel_args
from rtsa.sim import wind_draws, wind_rows

HERE = Path(__file__).resolve().parent
SOURCES = (HERE / "sanitizer_driver.c", HERE.parent / "src" / "rtsa" / "_rollout.c")
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-fno-omit-frame-pointer", "-ffp-contract=off")
ENV = {"ASAN_OPTIONS": "detect_leaks=1", "UBSAN_OPTIONS": "print_stacktrace=1"}

DELTAS = (1.0, 2.0, 4.0, 8.0, 16.0)
N_ROWS, PASSES, WORKERS = 6, 3, (1, 2, 3)
TRAIN_DELTA, DISCOUNT, LEARNING_RATE = 8.0, 0.99, 3e-3


def _gcc(args, tmp):
    return subprocess.run(["gcc", *FLAGS, *args, str(NPYRANDOM), "-lm", "-pthread"], cwd=tmp,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def driver(tmp_path_factory):
    """The sanitized driver's path; skips where it cannot be built for want of a tool."""
    if shutil.which("gcc") is None:
        pytest.skip("gcc is not installed")
    if not NPYRANDOM.exists():
        pytest.skip(f"numpy ships no {NPYRANDOM.name}")
    tmp = tmp_path_factory.mktemp("sanitizers")
    (tmp / "probe.c").write_text("int main(void) { return 0; }\n")
    probe = _gcc(["-o", "probe", "probe.c"], tmp)
    if probe.returncode != 0:
        pytest.skip(f"no sanitizer runtime for gcc: {probe.stderr.strip()[:200]}")
    build = _gcc(["-o", "driver", *map(str, SOURCES)], tmp)
    assert build.returncode == 0, build.stderr
    return tmp / "driver"


# On the short scenario nominal flight times out, so each recorded row fills its
# slot and the last one ends at the end of the buffer.
@pytest.mark.parametrize("which", ["calibrated", "short"])
def test_the_kernels_under_sanitizers_equal_the_twin(driver, calibrated_scenario, short_scenario,
                                                      monkeypatch, tmp_path, which):
    scenario = short_scenario if which == "short" else calibrated_scenario
    kwargs = _kernel_args(PolicySpec.nominal(), scenario)
    kwargs["wind"] = wind_rows(wind_draws(range(N_ROWS)), scenario.sim)
    scenario = {key: value for key, value in kwargs.items()
                if key not in ("wind", "theta", "policy_mode", "delta")}
    params, n_waypoints, steps = _rollout_py.pack(fastpath.POLICY_NOMINAL, **scenario)
    slot = _rollout_py.fork_slot(steps)
    # What fork_record gives a nominal batch, then room for k = 0, 1 and 4 slots, not k + 1.
    caps = [N_ROWS * slot] + [(k + 1) * slot - 1 for k in (0, 1, 4)]
    epsilons = np.zeros(PASSES * N_ROWS)
    train_caps = [_rollout_py.RECORD_CAP, 1000]  # every demo recorded; only the first few
    counts = [params.size, n_waypoints, steps, N_ROWS, len(DELTAS), len(caps), epsilons.size,
              len(train_caps)]
    values = np.concatenate([counts, params, kwargs["wind"].ravel(), DELTAS, caps,
                             [TRAIN_DELTA, DISCOUNT, LEARNING_RATE], epsilons, train_caps])
    values.astype(np.float64).tofile(tmp_path / "input")
    run = subprocess.run([str(driver), "input", "output"], cwd=tmp_path, env=ENV,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and not run.stderr, run.stderr
    output = (tmp_path / "output").read_bytes()

    def take(dtype, count):
        nonlocal output
        size = np.dtype(dtype).itemsize * count
        assert len(output) >= size
        value, output = np.frombuffer(output[:size], dtype=dtype), output[size:]
        return value

    baseline = {**kwargs, "policy_mode": fastpath.POLICY_BASELINE, "delta": DELTAS}
    monkeypatch.setattr(_rollout_py, "_FORKS", {})
    sweep = _rollout_py.batch(**baseline).tobytes()
    records = []
    for cap in caps:
        monkeypatch.setattr(_rollout_py, "RECORD_CAP", cap)
        summaries = _rollout_py.batch(**kwargs)
        _, states, capacity, _ = _rollout_py._FORKS["last"]
        records.append((summaries.tobytes(), states[:capacity].tobytes()))
    for workers in WORKERS:
        assert take(np.intc, len(sweep) // 4).tobytes() == sweep, workers
        for cap, (summaries, states) in zip(caps, records):
            assert take(np.intc, 4 * N_ROWS).tobytes() == summaries, (workers, cap)
            c_states = take(np.float64, 8 * cap)
            assert c_states[:len(states) // 8].tobytes() == states, (workers, cap)
            assert not c_states[len(states) // 8:].any(), (workers, cap)
            assert take(np.intc, len(sweep) // 4).tobytes() == sweep, (workers, cap)

    for cap in train_caps:
        monkeypatch.setattr(_rollout_py, "RECORD_CAP", cap)
        theta = np.zeros((2, 9))
        rows = _rollout_py.train(theta, DISCOUNT, LEARNING_RATE, epsilons, 0,
                                 wind=kwargs["wind"], policy_mode=fastpath.POLICY_BASELINE,
                                 delta=TRAIN_DELTA, **scenario)
        assert take(np.int64, 1).tolist() == [len(rows)], cap
        assert take(np.float64, rows.size).tobytes() == rows.tobytes(), cap
        assert take(np.float64, theta.size).tobytes() == theta.tobytes(), cap
    assert not output
