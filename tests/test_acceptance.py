"""End-to-end acceptance suite.

Seven criteria, each printing a single PASS/FAIL line. Configurations are
frozen (seeds, grids, episode counts) so every run checks the same claim;
run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import numpy as np
import pytest

from rtsa.evaluation import (
    PolicySpec,
    calibrate_wind,
    confusion,
    exit_rate,
    run_batch,
    run_episode,
    soc_point,
    sweep_baseline,
    sweep_learned,
)
from rtsa.geometry import Envelope, boundary_query
from rtsa.learning import LearnConfig, Transition, linear_q_update, train, warm_start
from rtsa.policy import N_FEATURES, Action, random_weights
from rtsa.scenario import default_scenario
from rtsa.sim import SimConfig, VehicleState, WindField, step
from toy_mdp import bellman_residual, random_mdp, tabular_q_learning, value_iteration

BASELINE_DELTAS = [1.0, 2.0, 4.0, 8.0, 16.0]
ALERT_PENALTIES = [0.02, 0.03, 0.05, 0.07, 0.1]
TRAIN_SEEDS = range(0, 6000)
EVAL_SEEDS = range(30000, 31000)
LEARN_CFG = LearnConfig(seed=1, episodes=3000, learning_rate=3e-3, warm_start_passes=5)


def report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {n} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def scenario(calibrated_scenario):
    return calibrated_scenario


@pytest.fixture(scope="module")
def soc_results(scenario):
    seeds_eval = list(EVAL_SEEDS)
    nominal_records = run_batch(PolicySpec.nominal(), scenario, seeds_eval)
    nominal_cm = confusion(nominal_records, scenario.envelope)
    nominal = soc_point(nominal_cm, 0.0, policy_family="nominal")
    baseline = sweep_baseline(scenario, BASELINE_DELTAS, seeds_eval)
    learned, _ = sweep_learned(
        scenario, ALERT_PENALTIES, LEARN_CFG, list(TRAIN_SEEDS), seeds_eval
    )
    return nominal, baseline, learned


def test_criterion_1_wind_calibration():
    base = default_scenario()
    result = calibrate_wind(base, 0.25, range(500))
    calibrated = base.with_wind(result.wind_sigma, result.gust_sigma)
    fresh = exit_rate(calibrated, range(10000, 11000))
    report(
        1,
        "wind calibration",
        0.20 <= fresh <= 0.30,
        f"sigma={result.wind_sigma:.3f}, fresh exit rate={fresh:.3f}",
    )


def test_criterion_2_bellman_oracle():
    worst_gap = 0.0
    worst_res = 0.0
    for mdp_seed in (0, 5, 12):
        mdp = random_mdp(np.random.default_rng(mdp_seed), 5, 2, 0.9)
        q_star = value_iteration(mdp, tol=1e-10)
        worst_res = max(worst_res, bellman_residual(mdp, q_star))
        q = tabular_q_learning(
            mdp, steps=100_000, epsilon=1.0, rng=np.random.default_rng(mdp_seed + 200)
        )
        worst_gap = max(worst_gap, float(np.max(np.abs(q - q_star))))
    report(
        2,
        "Bellman oracle",
        worst_gap <= 1e-2 and worst_res <= 1e-8,
        f"max sup-norm gap={worst_gap:.2e}, max residual={worst_res:.2e}",
    )


def test_criterion_3_linear_realizability():
    rng = np.random.default_rng(7)
    theta_star = rng.standard_normal((N_FEATURES, 2))
    transitions = []
    for phi in rng.standard_normal((40, N_FEATURES)):
        for a in (Action.CONTINUE, Action.DEPLOY):
            r = float(phi @ theta_star[:, a])
            transitions.append(Transition(phi, a, r, np.zeros(N_FEATURES), True))
    theta = np.zeros((N_FEATURES, 2))
    for _ in range(4000):
        for tr in transitions:
            theta = linear_q_update(theta, tr, 0.02, 0.9)
    err = float(np.max(np.abs(theta - theta_star)))
    report(3, "linear realizability", err <= 1e-3, f"max-abs error={err:.2e}")


def test_criterion_4_warm_start_efficacy(scenario):
    rc = scenario.reward

    def early_greedy_frac(log):
        return np.mean(
            [
                e["deploy_step"] is not None
                and e["deploy_step"] < 10
                and e["deploy_greedy"]
                for e in log.episodes
            ]
        )

    rng = np.random.default_rng(123)
    fracs = []
    for k in range(20):
        cfg = LearnConfig(seed=100 + k, episodes=50, learning_rate=3e-3)
        _, log = train(scenario, rc, cfg, random_weights(rng), wind_seeds=range(50))
        fracs.append(early_greedy_frac(log))
    random_frac = float(np.mean(fracs))

    cfg = LearnConfig(seed=1, episodes=200, learning_rate=3e-3, warm_start_passes=5)
    theta = warm_start(range(200), 16.0, np.zeros((N_FEATURES, len(Action))), cfg, scenario, rc)
    _, log = train(scenario, rc, cfg, theta, wind_seeds=range(200, 400))
    warm_frac = float(early_greedy_frac(log))
    report(
        4,
        "warm-start efficacy",
        random_frac >= 0.5 and warm_frac <= 0.05,
        f"random-init early-deploy={random_frac:.3f}, warm-start={warm_frac:.3f}",
    )


def test_criterion_5_soc_dominance(soc_results):
    nominal, baseline, learned = soc_results
    assert all(p.episodes >= 500 for p in baseline + learned)

    undominated = []
    for b in baseline:
        ok = any(
            l.alert_rate <= b.alert_rate
            and l.safe_rate >= b.safe_rate
            and (l.alert_rate < b.alert_rate or l.safe_rate > b.safe_rate)
            for l in learned
        )
        if not ok:
            undominated.append(b.parameter)
    above_nominal = all(l.safe_rate > nominal.safe_rate for l in learned)
    report(
        5,
        "SOC dominance",
        not undominated and above_nominal,
        f"undominated deltas={undominated}, nominal safe={nominal.safe_rate:.3f}, "
        f"learned safe={[round(l.safe_rate, 3) for l in learned]}",
    )


def test_criterion_6_invariants(scenario):
    problems = []

    # One-way switch latch and reward value set.
    for seed in range(10):
        rec = run_episode(PolicySpec.baseline(8.0), scenario, seed)
        actions = rec.trajectory[:-1, 7]
        if rec.deploy_step is not None and not np.all(actions[rec.deploy_step:] == 1):
            problems.append(f"latch violated (seed {seed})")
        vals = set(np.round(rec.trajectory[:-1, 8], 12))
        if not vals <= {0.0, -scenario.reward.alert_penalty, -1.0}:
            problems.append(f"reward set violated (seed {seed}): {vals}")

    # Geometry agreement with the direct closed-form distances.
    rng = np.random.default_rng(3)
    for _ in range(200):
        lo = rng.uniform(-50, 0, 3)
        hi = lo + rng.uniform(1, 100, 3)
        env = Envelope(lo, hi)
        p = rng.uniform(lo - 20, hi + 20)
        q = boundary_query(p, env)
        if q.inside:
            expected = float(np.min(np.minimum(p - lo, hi - p)))
        else:
            expected = float(np.linalg.norm(p - np.clip(p, lo, hi)))
        if abs(q.distance - expected) > 1e-9 * float(np.linalg.norm(hi - lo)):
            problems.append(f"geometry distance mismatch at {p}")

    # Parachute terminal velocity within 1% of gravity / drag_z.
    from rtsa.sim import ControlInput, GRAVITY

    cfg = SimConfig()
    calm = WindField(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    u = ControlInput(np.zeros(3), parachute=True)
    s = VehicleState(position=np.array([0.0, 0.0, 1e6]), velocity=np.zeros(3),
                     deployed=True)
    for _ in range(2000):
        s = step(s, u, calm, cfg)
    v_term = GRAVITY / cfg.parachute_drag_z
    if abs(-s.velocity[2] - v_term) > 0.01 * v_term:
        problems.append(f"terminal velocity {-s.velocity[2]:.3f} vs {v_term:.3f}")

    # Bit-identical reruns under fixed seeds.
    a = run_episode(PolicySpec.baseline(4.0), scenario, 77)
    b = run_episode(PolicySpec.baseline(4.0), scenario, 77)
    if not np.array_equal(a.trajectory, b.trajectory):
        problems.append("rerun not bit-identical")

    report(6, "invariant suite", not problems, "; ".join(problems))


def test_criterion_7_confusion_bookkeeping(scenario, soc_results):
    nominal, baseline, learned = soc_results
    problems = []
    for pt in [nominal] + baseline + learned:
        if pt.episodes != len(list(EVAL_SEEDS)):
            problems.append(f"{pt.policy_family}:{pt.parameter} episodes={pt.episodes}")
        if not (0.0 <= pt.alert_rate <= 1.0 and 0.0 <= pt.safe_rate <= 1.0):
            problems.append(f"{pt.policy_family}:{pt.parameter} rates out of range")

    for delta in (2.0, 8.0):
        records = run_batch(PolicySpec.baseline(delta), scenario, range(100))
        cm = confusion(records, scenario.envelope)
        if cm.total != 100:
            problems.append(f"baseline:{delta} quadrant sum {cm.total} != 100")

    report(7, "confusion bookkeeping", not problems, "; ".join(problems))
