"""The three benchmark workloads: set-up, inputs, one timed call, output checks.

Each workload is a closed loop with one caller: a run repeats the workload's
call (one "rep") on fresh inputs, each call waiting for the last, until its
time is up. The inputs of rep ``i`` are derived from the workload seed and
``i`` alone, so the same seed replays the same sequence of inputs and the
library only ever receives the generated seed ranges.

Workloads, and why each is here:

- ``evaluate``: matched-seed evaluation of nominal, the baseline grid and one
  fixed weight matrix. Kernel-bound; all three policy modes run and episode
  lengths are mixed (delta=16 deploys early).
- ``learn``: ``train_policy`` at one alert penalty (baseline demos, warm
  start, online training). Learning-bound; the kernel does almost no work.
- ``calibrate``: ``calibrate_wind`` on the default scenario. A serial chain of
  dependent nominal-only batches, so per-call overhead weighs more than in
  ``evaluate`` and nothing can overlap across batches.

Only the public modules are called, always through their module attribute
(``evaluation.run_batch``, not a local binding), so the traced run can wrap
them where the library itself looks them up.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WEIGHTS_PATH = HERE / "weights.json"
REFERENCE_PATH = HERE / "reference.json"

if not (SRC / "rtsa" / "__init__.py").is_file():
    raise ImportError(f"no rtsa sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rtsa  # noqa: E402
from rtsa import _rollout_py, evaluation, fastpath, policy, scenario  # noqa: E402
from rtsa.learning import LearnConfig  # noqa: E402

if Path(rtsa.__file__).resolve().parent != SRC / "rtsa":
    raise ImportError(f"rtsa was imported from {rtsa.__file__}, not from {SRC}")

#: The seed whose rep 0 has committed reference outputs (reference.json).
DEFAULT_SEED = 0

EVAL_EPISODES = 10  # seeds per policy per rep; 7 policies, so 70 episodes
EVAL_DELTAS = (1.0, 2.0, 4.0, 8.0, 16.0)

LEARN_ALERT_PENALTY = 0.05
LEARN_WARM_EPISODES = 5  # baseline demos replayed by warm start
LEARN_ONLINE_EPISODES = 25  # online epsilon-greedy episodes
LEARN_THETA_RTOL = 1e-9
LEARN_THETA_ATOL = 1e-12

CALIB_TARGET = 0.25
CALIB_TOL = 0.02  # calibrate_wind's default tolerance
CALIB_MAX_STEPS = 40  # calibrate_wind's default evaluation budget
CALIB_EPISODES = 30  # seeds per nominal batch; 7 or 8 exits are within tolerance

# Checks that re-run episodes (kernel parity, the calibrated exit rate) run on
# about one call in this many, picked by the input so a seed always checks
# the same calls.
RERUN_CHECK_EVERY = 4

_SEED_SPACE = 2**31


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep])


def _seed_range(rng: np.random.Generator, n: int) -> range:
    base = int(rng.integers(0, _SEED_SPACE - n))
    return range(base, base + n)


def _sampled(seeds: range) -> bool:
    return seeds.start % RERUN_CHECK_EVERY == 0


def bundled_scenario_path() -> Path:
    return Path(rtsa.__file__).resolve().parent / "data" / "demo_scenario.json"


def weights_digest(theta: np.ndarray) -> str:
    """sha256 of the weight matrix as little-endian float64, feature-major."""
    return hashlib.sha256(np.ascontiguousarray(theta, dtype="<f8").tobytes()).hexdigest()


def load_fixed_weights(path: Path = WEIGHTS_PATH):
    """The committed evaluation weights; refuses a file whose hash does not match."""
    theta = policy.load_weights(path)
    expected = json.loads(path.read_text())["sha256"]
    digest = weights_digest(theta)
    if digest != expected:
        raise ValueError(f"{path.name}: weights hash {digest[:12]} != recorded {expected[:12]}")
    return theta, digest


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


@dataclass
class Context:
    """What set-up produces: everything a rep needs besides its inputs."""

    scenario: object
    theta: np.ndarray | None = None
    weights_hash: str | None = None


def _check(name: str, ok) -> tuple:
    return (name, bool(ok))


def _count(rate: float, n: int) -> int:
    """Exact episode count behind a rate k/n."""
    return int(round(rate * n))


class Evaluate:
    name = "evaluate"

    def setup(self, seed: int) -> Context:
        theta, digest = load_fixed_weights()
        ctx = Context(scenario.load_scenario(bundled_scenario_path()), theta, digest)
        self.inputs(seed, 0)  # set-up time includes generating the first inputs
        return ctx

    def inputs(self, seed: int, rep: int) -> range:
        return _seed_range(_rep_rng(seed, rep), EVAL_EPISODES)

    def call(self, ctx: Context, seeds: range) -> dict:
        sc = ctx.scenario
        spec = evaluation.PolicySpec
        nominal = evaluation.confusion(
            evaluation.run_batch(spec.nominal(), sc, seeds), sc.envelope)
        baseline = evaluation.sweep_baseline(sc, EVAL_DELTAS, seeds)
        learned = evaluation.confusion(
            evaluation.run_batch(spec.weights(ctx.theta), sc, seeds), sc.envelope)
        return {
            "nominal": nominal,
            "nominal_point": evaluation.soc_point(nominal, 0.0, "nominal"),
            "baseline": baseline,
            "weights": learned,
            "weights_point": evaluation.soc_point(learned, 0.0, "learned"),
        }

    def episodes(self, seeds: range, out: dict) -> int:
        return len(seeds) * (2 + len(EVAL_DELTAS))

    def summary(self, out: dict) -> dict:
        n = out["nominal"].total
        return {
            "nominal": _quadrants(out["nominal"]),
            "weights": _quadrants(out["weights"]),
            "baseline": {
                f"{p.parameter:g}": {"deployed": _count(p.alert_rate, n),
                                     "safe": _count(p.safe_rate, n)}
                for p in out["baseline"]
            },
        }

    def check(self, ctx: Context, seeds: range, out: dict, reference) -> list:
        n = len(seeds)
        checks = []
        for key in ("nominal", "weights"):
            cm, point = out[key], out[f"{key}_point"]
            checks.append(_check(f"{key} quadrants sum to the seed count", cm.total == n))
            checks.append(_check(f"{key} SOC point matches its matrix",
                                 point.episodes == n
                                 and point.alert_rate == (cm.safe_deployed + cm.unsafe_deployed) / n
                                 and point.safe_rate == (cm.safe_not_deployed + cm.safe_deployed) / n))
        checks.append(_check("nominal never deploys",
                             out["nominal"].safe_deployed + out["nominal"].unsafe_deployed == 0))
        points = out["baseline"]
        checks.append(_check("one baseline point per delta, in order",
                             [p.parameter for p in points] == list(EVAL_DELTAS)))
        for p in points:
            checks.append(_check(f"baseline:{p.parameter:g} rates are counts over the seeds",
                                 p.episodes == n
                                 and abs(p.alert_rate * n - _count(p.alert_rate, n)) < 1e-9
                                 and abs(p.safe_rate * n - _count(p.safe_rate, n)) < 1e-9))
        # A wider threshold deploys at or before every step a narrower one
        # does on the same wind, so alerts can only grow with delta.
        alerts = [_count(p.alert_rate, n) for p in points]
        checks.append(_check("baseline alerts grow with delta", alerts == sorted(alerts)))
        if reference is not None:
            got = self.summary(out)
            for key in ("nominal", "weights"):
                checks.append(_check(f"{key} confusion counts equal the reference",
                                     got[key] == reference[key]))
            for delta, counts in reference["baseline"].items():
                checks.append(_check(f"baseline:{delta} counts equal the reference",
                                     got["baseline"].get(delta) == counts))
        if fastpath.BACKEND != "python" and _sampled(seeds):
            checks.extend(parity_checks(ctx, seeds))
        return checks


def _quadrants(cm) -> dict:
    return {
        "safe_not_deployed": cm.safe_not_deployed,
        "unsafe_not_deployed": cm.unsafe_not_deployed,
        "safe_deployed": cm.safe_deployed,
        "unsafe_deployed": cm.unsafe_deployed,
    }


def parity_checks(ctx: Context, seeds: range, reference_rollout=_rollout_py.rollout) -> list:
    """First episode of the rep under each policy, kernel vs pure-Python twin, bit for bit."""
    sc = ctx.scenario
    seed = seeds[0]
    field = evaluation.sample_wind_field(np.random.default_rng(seed), sc.sim)
    wind_params = np.array([
        field.base[0], field.base[1],
        field.gust_amplitude[0], field.gust_amplitude[1],
        field.gust_frequencies[0], field.gust_frequencies[1],
        field.gust_phases[0], field.gust_phases[1],
    ])
    zero = np.zeros((policy.N_FEATURES, len(policy.Action)))
    specs = [("nominal", fastpath.POLICY_NOMINAL, 0.0, zero)]
    specs += [(f"baseline:{d:g}", fastpath.POLICY_BASELINE, d, zero) for d in EVAL_DELTAS]
    specs.append(("weights", fastpath.POLICY_WEIGHTS, 0.0, ctx.theta))
    checks = []
    for label, mode, delta, theta in specs:
        kwargs = dict(wind_params=wind_params, policy_mode=mode, delta=delta, theta=theta,
                      scales=sc.feature_scales, alert_penalty=sc.reward.alert_penalty,
                      **evaluation._kernel_scenario_args(sc))
        a_traj, a_out, a_dep = fastpath.rollout(**kwargs)
        b_traj, b_out, b_dep = reference_rollout(**kwargs)
        checks.append(_check(f"{label} seed {seed} bit-identical to the Python kernel",
                             a_out == b_out and a_dep == b_dep
                             and np.array_equal(np.asarray(a_traj), np.asarray(b_traj))))
    return checks


@dataclass(frozen=True)
class LearnInputs:
    seeds: range  # wind seeds: the first LEARN_WARM_EPISODES are the warm-start demos
    explore_seed: int


class Learn:
    name = "learn"

    def setup(self, seed: int) -> Context:
        ctx = Context(scenario.load_scenario(bundled_scenario_path()))
        self.inputs(seed, 0)  # set-up time includes generating the first inputs
        return ctx

    def inputs(self, seed: int, rep: int) -> LearnInputs:
        rng = _rep_rng(seed, rep)
        return LearnInputs(_seed_range(rng, LEARN_ONLINE_EPISODES),
                           int(rng.integers(0, _SEED_SPACE)))

    def config(self, inp: LearnInputs) -> LearnConfig:
        return LearnConfig(episodes=LEARN_ONLINE_EPISODES, seed=inp.explore_seed)

    def call(self, ctx: Context, inp: LearnInputs):
        return evaluation.train_policy(ctx.scenario, LEARN_ALERT_PENALTY, self.config(inp),
                                       inp.seeds, warmstart_episodes=LEARN_WARM_EPISODES)

    def episodes(self, inp: LearnInputs, out) -> int:
        return LEARN_WARM_EPISODES + LEARN_ONLINE_EPISODES

    def summary(self, out) -> dict:
        theta, _ = out
        return {"theta": theta.ravel().tolist()}

    def check(self, ctx: Context, inp: LearnInputs, out, reference) -> list:
        theta, log = out
        cfg = self.config(inp)
        shape_ok = theta.shape == (policy.N_FEATURES, len(policy.Action))
        checks = [
            _check("theta has one column per action", shape_ok),
            _check("theta is finite", shape_ok and np.all(np.isfinite(theta))),
            _check("one log row per online episode", len(log) == LEARN_ONLINE_EPISODES),
        ]
        eps = cfg.epsilon0
        schedule_ok = True
        for row in log.episodes:
            schedule_ok &= row["epsilon"] == eps
            eps = max(cfg.epsilon_floor, eps * cfg.epsilon_decay)
        checks.append(_check("exploration follows the epsilon schedule", schedule_ok))
        if reference is not None:
            ref = np.asarray(reference["theta"]).reshape(theta.shape) if shape_ok else None
            checks.append(_check(
                f"theta equals the reference (rtol {LEARN_THETA_RTOL:g}, atol {LEARN_THETA_ATOL:g})",
                ref is not None and np.allclose(theta, ref, rtol=LEARN_THETA_RTOL,
                                                atol=LEARN_THETA_ATOL)))
        return checks


class Calibrate:
    name = "calibrate"

    def setup(self, seed: int) -> Context:
        ctx = Context(scenario.default_scenario())
        self.inputs(seed, 0)  # set-up time includes generating the first inputs
        return ctx

    def inputs(self, seed: int, rep: int) -> range:
        return _seed_range(_rep_rng(seed, rep), CALIB_EPISODES)

    def call(self, ctx: Context, seeds: range):
        return evaluation.calibrate_wind(ctx.scenario, CALIB_TARGET, seeds)

    def episodes(self, seeds: range, out) -> int:
        return out.iterations * len(seeds)

    def summary(self, out) -> dict:
        return {"wind_sigma": out.wind_sigma, "iterations": out.iterations}

    def check(self, ctx: Context, seeds: range, out, reference) -> list:
        sim = ctx.scenario.sim
        ratio = sim.gust_sigma / sim.wind_sigma
        checks = [
            _check("calibration reaches its tolerance",
                   math.isfinite(out.exit_rate) and abs(out.exit_rate - CALIB_TARGET) <= CALIB_TOL),
            _check("iterations within the budget", 1 <= out.iterations <= CALIB_MAX_STEPS),
            _check("gust strength keeps the scenario's ratio",
                   out.wind_sigma > 0 and out.gust_sigma == ratio * out.wind_sigma),
        ]
        if _sampled(seeds):
            # Re-run the returned wind outside the timed call: the reported
            # exit rate must be what that wind actually produces.
            rerun = ctx.scenario.with_wind(out.wind_sigma, out.gust_sigma)
            checks.append(_check("reported exit rate reproduces",
                                 evaluation.exit_rate(rerun, seeds) == out.exit_rate))
        if reference is not None:
            checks.append(_check("calibrated sigma equals the reference",
                                 out.wind_sigma == reference["wind_sigma"]))
            checks.append(_check("iteration count equals the reference",
                                 out.iterations == reference["iterations"]))
        return checks


WORKLOADS = {w.name: w for w in (Evaluate(), Learn(), Calibrate())}


def provenance(ctx: Context, seed: int, nproc: int) -> dict:
    """What ran: backend, versions, machine size, scenario and weights hashes, seed."""
    import platform
    import subprocess

    commit = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": fastpath.BACKEND,
        "rtsa_version": rtsa.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "scenario_hash": ctx.scenario.hash(),
        "weights_hash": ctx.weights_hash[:12] if ctx.weights_hash else None,
        "git_commit": commit,
        "seed": seed,
    }
