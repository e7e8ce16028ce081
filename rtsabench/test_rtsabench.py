"""Self-test of the benchmark harness at tiny size.

Runs every workload for a second or two through the command line, untraced
and traced; shows that a corrupted reference output, a diverging kernel and
a tampered weights file are caught; and shows that a directory without the
library sources fails without printing a result.

    python -m pytest rtsabench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "rtsabench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                            "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_their_counts(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    expected = _units(BENCHMARK["per_layer"])
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    counts = [name for name, unit in expected.items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert all(isinstance(first["metrics"][n]["value"], int) for n in counts)


_CORRUPT = {
    "evaluate": lambda ref: ref["nominal"].__setitem__(
        "safe_not_deployed", ref["nominal"]["safe_not_deployed"] + 1),
    "learn": lambda ref: ref["theta"].__setitem__(0, ref["theta"][0] + 1e-6),
    "calibrate": lambda ref: ref.__setitem__("iterations", ref["iterations"] + 1),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_makes_error_rate_nonzero(workload):
    wl = workloads.WORKLOADS[workload]
    reference = workloads.load_reference()
    assert reference["seed"] == workloads.DEFAULT_SEED
    _, clean = run.measure(wl, workloads.DEFAULT_SEED, 1e-3, reference)
    assert clean.failed == 0

    corrupted = copy.deepcopy(reference)
    _CORRUPT[workload](corrupted[workload])
    _, bad = run.measure(wl, workloads.DEFAULT_SEED, 1e-3, corrupted)
    assert len(bad.checks) == len(clean.checks)
    assert bad.failed >= 1


def test_parity_check_catches_a_diverging_kernel():
    wl = workloads.WORKLOADS["evaluate"]
    ctx = wl.setup(0)
    seeds = wl.inputs(0, 0)
    assert all(ok for _, ok in workloads.parity_checks(ctx, seeds))

    def off_by_one_step(**kwargs):
        traj, outcome, deploy = workloads._rollout_py.rollout(**kwargs)
        return traj[:-1], outcome, deploy

    checks = workloads.parity_checks(ctx, seeds, reference_rollout=off_by_one_step)
    assert checks and not any(ok for _, ok in checks)


def test_tampered_weights_are_refused(tmp_path):
    payload = json.loads(workloads.WEIGHTS_PATH.read_text())
    payload["weights"][0] += 1e-9
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="hash"):
        workloads.load_fixed_weights(path)
    theta, digest = workloads.load_fixed_weights()
    assert np.all(np.isfinite(theta)) and digest == payload["sha256"]


def test_directory_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "rtsabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "evaluate", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
