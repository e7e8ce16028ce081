#!/usr/bin/env python3
"""Compare the compiled and pure-Python episode kernels, and the batch and per-episode paths.

Runs the same seeded episode batch through both backends' rollout, online
training (one ``train`` call over all episodes) and warm-start pass (one
``train`` call flying a baseline demo per seed, with no exploration), checks
the trajectories, training rows and weights are bit-identical, and reports
per-episode, per-training-step and per-warm-start-step timing and the
speedups. On the C kernel it also times the seeds' wind draws against
numpy's, in microseconds per seed, and checks the tables are byte-equal.

For each backend it times a whole warm start, ``LearnConfig``'s default
passes over the demos, as one ``train`` call (each demo flown once, the
later passes replayed from its recorded transitions) against one call per
pass (every demo flown on every pass). It checks both leave byte-equal
weights and reports microseconds per replayed step: the one call's time
beyond the one-pass warm start timed above, recording included, over the
replayed steps.

Then, on the loaded backend and for each policy mode, times one
``fastpath.batch`` call over the seeds against a loop of ``fastpath.rollout``
calls, in episodes per second, and checks both give the same outcomes and
deploy steps. It times one baseline sweep call over several thresholds
(``fastpath.batch`` with an array of deltas, one shared trunk per seed)
against one single-threshold batch call per delta on the same seeds, both
cold (the last nominal batch flew other wind), and the same sweep warm:
right after a nominal batch on the same wind, whose checkpoints spare it
flying the trunks. It checks all their summaries are byte-equal, and that
the twin's sweep of the first 3 seeds, right after a C nominal batch on
them, reads that batch's record to the cold sweep's bytes. It times
one ``calibrate_wind`` call, each evaluation one count of
``fastpath.exit_counter`` on arguments checked once, against the reference
loop of one nominal batch per evaluation, each on a rescaled scenario
(``tests/calibration_oracle.py``), on the same seeds, in microseconds per
calibration, and checks their results are byte-equal. On the C
kernel, it also makes ``WORKER_CALLS`` back-to-back batch calls on one
worker thread, then as many on every worker ``fastpath.batch`` uses, prints
the best and the median microseconds per call of each and their ratios, and
checks their summaries are byte-equal. The median shows a batch whose
workers wait behind the calling one, which a best-of hides. Last, it prints
the fixed cost of a call: the median of ``WORKER_CALLS`` back-to-back calls
of a ``PER_CALL_ROWS``-episode nominal batch cut to one step, on one worker
and on every worker ``fastpath.batch`` uses for it, and checks their
summaries are byte-equal. Writes no file.

Usage: python benchmarks/bench_rollout.py [--episodes N] [--policy SPEC]
"""

import argparse
import ctypes
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from rtsa import _rollout_py, fastpath
from rtsa._rollout_py import rollout as rollout_python
from rtsa.evaluation import PolicySpec, _kernel_args, calibrate_wind
from rtsa.learning import LearnConfig
from rtsa.policy import N_FEATURES, random_weights
from rtsa.scenario import default_scenario
from rtsa.sim import wind_draws, wind_rows

TRAIN_EPSILON = 0.1
LEARNING_RATE = 3e-3
WARM_START_DELTA = 8.0
WARM_START_PASSES = LearnConfig().warm_start_passes
STEPS_COLUMN = _rollout_py.TRAIN_COLUMNS.index("steps")
SWEEP_DELTAS = (1.0, 2.0, 4.0, 8.0, 16.0)  # the SOC sweep's baseline grid
WORKER_CALLS = 200  # back-to-back batch calls timed on each worker count
PER_CALL_ROWS = 10  # episodes per batch of evaluate's SOC sweep
CALIBRATION_TARGET = 0.25  # the exit rate the paper's testbed calibrates to

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import calibration_oracle  # noqa: E402  (the reference calibration loop)


def seed_wind(scenario, seed):
    """One seed's kernel wind row, as ``run_episode`` draws it."""
    return wind_rows(wind_draws([seed]), scenario.sim)[0]


def episode_args(scenario, seed, policy):
    return dict(wind_params=seed_wind(scenario, seed), **_kernel_args(policy, scenario))


def learn_args(scenario, seeds):
    """``train``'s arguments but the weights: one episode per seed at TRAIN_EPSILON."""
    return dict(
        discount=scenario.reward.discount,
        learning_rate=LEARNING_RATE,
        epsilons=[TRAIN_EPSILON] * len(seeds),
        seed=0,
        wind=wind_rows(wind_draws(seeds), scenario.sim),
        policy_mode=fastpath.POLICY_WEIGHTS,
        delta=0.0,
        scales=scenario.feature_scales,
        alert_penalty=scenario.reward.alert_penalty,
        **fastpath.scenario_args(scenario),
    )


def bench(backend, all_args, repeats):
    times = []
    results = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = [backend(**args) for args in all_args]
        times.append((time.perf_counter() - start) / len(all_args))
    return min(times), results


def bench_training(train, args, repeats):
    """Best time of one ``train`` call from zero weights; returns (seconds, final
    weights, per-episode rows)."""
    best = float("inf")
    for _ in range(repeats):
        theta = np.zeros((2, N_FEATURES))
        start = time.perf_counter()
        rows = train(theta, **args)
        best = min(best, time.perf_counter() - start)
    return best, theta, rows


def bench_warm_start(name, train, args, t_pass, repeats):
    """Time a ``WARM_START_PASSES``-pass warm start from zero weights as one ``train``
    call against one call per pass, check both leave the same weights, and print the
    times and the microseconds per replayed step.

    ``args`` are one pass's arguments and ``t_pass`` the best seconds of one pass.
    """
    passes = WARM_START_PASSES
    all_passes = dict(args, epsilons=np.tile(args["epsilons"], passes))
    best_one = best_each = float("inf")
    for _ in range(repeats):
        theta_one = np.zeros((2, N_FEATURES))
        start = time.perf_counter()
        rows = train(theta_one, **all_passes)
        best_one = min(best_one, time.perf_counter() - start)
        theta_each = np.zeros((2, N_FEATURES))
        start = time.perf_counter()
        for _ in range(passes):
            train(theta_each, **args)
        best_each = min(best_each, time.perf_counter() - start)
    assert theta_one.tobytes() == theta_each.tobytes(), \
        "one-call and per-pass warm starts disagree"
    replayed = int(rows[len(args["epsilons"]):, STEPS_COLUMN].sum())
    print(f"warm start  : {name:<8} {passes} passes, one call {best_one * 1e3:8.3f} ms"
          f"  one call per pass {best_each * 1e3:8.3f} ms  ({best_each / best_one:4.1f}x)"
          + (f"  replayed {(best_one - t_pass) / replayed * 1e6:8.3f} us/step"
             if replayed else ""))


def bench_wind_draws(draw, seeds, repeats):
    """Best microseconds per seed of one ``draw(seeds)`` call, and its table."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table = draw(seeds)
        best = min(best, time.perf_counter() - start)
    return best / len(seeds) * 1e6, table


def bench_batch(scenario, policy, seeds, repeats):
    """Best episodes/s of one ``fastpath.batch`` call and of a ``fastpath.rollout`` loop.

    Both include their wind: the batch draws its table once per call, the
    loop draws each seed's wind row, as ``run_batch`` and ``run_episode`` do.
    Returns (batch episodes/s, loop episodes/s, batch summaries, loop results).
    """
    fixed = _kernel_args(policy, scenario)
    best_batch = best_loop = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        summaries = fastpath.batch(wind=wind_rows(wind_draws(seeds), scenario.sim), **fixed)
        best_batch = min(best_batch, time.perf_counter() - start)
        start = time.perf_counter()
        results = [fastpath.rollout(wind_params=seed_wind(scenario, seed), **fixed)
                   for seed in seeds]
        best_loop = min(best_loop, time.perf_counter() - start)
    return len(seeds) / best_batch, len(seeds) / best_loop, summaries, results


def bench_sweep(scenario, seeds, repeats):
    """Best seconds of one baseline ``fastpath.batch`` call over all ``SWEEP_DELTAS``,
    cold and warm, and of one cold single-threshold call per delta, on one wind table.

    Cold calls follow an untimed nominal batch on other wind, warm ones an
    untimed nominal batch on the same wind. Returns (cold sweep seconds, warm
    sweep seconds, per-delta seconds, cold sweep summaries, warm sweep
    summaries, the per-delta summaries stacked in the same (k, n, 4) layout).
    """
    fixed = _kernel_args(PolicySpec.baseline(SWEEP_DELTAS[0]), scenario)
    del fixed["delta"]
    nominal = _kernel_args(PolicySpec.nominal(), scenario)
    wind = wind_rows(wind_draws(seeds), scenario.sim)
    best_cold = best_warm = best_each = float("inf")
    for _ in range(repeats):
        fastpath.batch(wind=wind[:1], **nominal)
        start = time.perf_counter()
        cold = fastpath.batch(wind=wind, delta=SWEEP_DELTAS, **fixed)
        best_cold = min(best_cold, time.perf_counter() - start)
        fastpath.batch(wind=wind, **nominal)
        start = time.perf_counter()
        warm = fastpath.batch(wind=wind, delta=SWEEP_DELTAS, **fixed)
        best_warm = min(best_warm, time.perf_counter() - start)
        fastpath.batch(wind=wind[:1], **nominal)
        start = time.perf_counter()
        each = [fastpath.batch(wind=wind, delta=delta, **fixed) for delta in SWEEP_DELTAS]
        best_each = min(best_each, time.perf_counter() - start)
    return best_cold, best_warm, best_each, cold, warm, np.stack(each)


def twin_sweep_on_c_record(scenario, seeds):
    """The twin's baseline sweep over ``SWEEP_DELTAS`` on ``seeds``, right after a C
    nominal batch on the same wind, whose fork record it reads: a slot of
    checkpoints per seed and a copy of the batch's summaries
    (``_rollout_py.fork_record``)."""
    fixed = _kernel_args(PolicySpec.baseline(SWEEP_DELTAS[0]), scenario)
    del fixed["delta"]
    wind = wind_rows(wind_draws(seeds), scenario.sim)
    summaries = fastpath.batch_compiled(wind=wind, **_kernel_args(PolicySpec.nominal(), scenario))
    _, _, capacity, recorded = _rollout_py._FORKS["last"]
    assert capacity == len(seeds) * _rollout_py.fork_slot(scenario.sim.max_steps), \
        "the C nominal batch recorded too few seeds"
    assert recorded.tobytes() == summaries.tobytes(), "the record's summaries are not the batch's"
    return _rollout_py.batch(wind=wind, delta=SWEEP_DELTAS, **fixed)


def bench_calibration(scenario, seeds, repeats):
    """Best seconds of one ``calibrate_wind`` call and of the reference loop, one nominal
    batch per evaluation, on ``seeds``; returns (call seconds, loop seconds, call
    result, loop result)."""
    tol = max(0.02, 1.0 / len(seeds))  # exit rates over n seeds come in steps of 1/n
    best_call = best_loop = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call = calibrate_wind(scenario, CALIBRATION_TARGET, seeds, tol=tol)
        best_call = min(best_call, time.perf_counter() - start)
        start = time.perf_counter()
        loop = calibration_oracle.calibrate_wind(scenario, CALIBRATION_TARGET, seeds, tol=tol)
        best_loop = min(best_loop, time.perf_counter() - start)
    return best_call, best_loop, call, loop


def bench_workers(scenario, policy, seeds, workers, max_steps=None):
    """Best and median seconds of ``WORKER_CALLS`` back-to-back C batch calls over
    ``seeds`` on ``workers`` threads, and the summaries; each episode is cut to
    ``max_steps`` steps if given. Calls ``rtsa_batch`` directly, as
    ``fastpath.batch_compiled`` does with ``fastpath.batch_workers`` threads."""
    args = _kernel_args(policy, scenario)
    if max_steps is not None:
        args["max_steps"] = max_steps
    mode, delta, theta = args.pop("policy_mode"), args.pop("delta"), args.pop("theta")
    params, n_waypoints, steps = _rollout_py.pack(mode, **args)
    deltas = _rollout_py.thresholds(mode, delta)
    table = _rollout_py.checked_rows("wind", wind_rows(wind_draws(seeds), scenario.sim), 8)
    columns = _rollout_py.weight_columns(theta)
    out = np.empty((len(table), 4), dtype=np.intc)
    p = fastpath._pointer
    times = []
    for _ in range(WORKER_CALLS):
        start = time.perf_counter()
        status = fastpath._lib.rtsa_batch(p(params), n_waypoints, mode, steps, p(table),
                                          len(table), p(deltas), deltas.size, p(columns),
                                          p(out, ctypes.c_int), workers, None, 0, None)
        times.append(time.perf_counter() - start)
        fastpath._raise_for(status)
    return min(times), statistics.median(times), out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--policy", default="baseline:8",
                        help="nominal | baseline:<delta> | weights (random)")
    args = parser.parse_args()

    scenario = default_scenario().with_wind(7.5, 1.875)
    if args.policy == "nominal":
        policy = PolicySpec.nominal()
    elif args.policy.startswith("baseline:"):
        policy = PolicySpec.baseline(float(args.policy.split(":")[1]))
    else:
        policy = PolicySpec.weights(random_weights(np.random.default_rng(0)))
    seeds = range(args.episodes)

    all_args = [episode_args(scenario, seed, policy) for seed in seeds]
    t_py, res_py = bench(rollout_python, all_args, args.repeats)
    steps = statistics.mean(len(traj) - 1 for traj, _, _ in res_py)
    print(f"episodes: {args.episodes}  policy: {args.policy}  mean steps: {steps:.0f}")
    print(f"pure python : {t_py * 1e3:8.3f} ms/episode")

    # Online training (epsilon TRAIN_EPSILON) over the same wind seeds, and one
    # warm-start pass: a baseline demo on each of them, with no exploration.
    learn = learn_args(scenario, seeds)
    lt_py, theta_py, lrows_py = bench_training(_rollout_py.train, learn, args.repeats)
    train_steps = int(lrows_py[:, STEPS_COLUMN].sum())
    warm = dict(learn, epsilons=[0.0] * len(seeds), policy_mode=fastpath.POLICY_BASELINE,
                delta=WARM_START_DELTA)
    ws_py, wstheta_py, wsrows_py = bench_training(_rollout_py.train, warm, args.repeats)
    warm_steps = int(wsrows_py[:, STEPS_COLUMN].sum())
    print(f"training    : python   {lt_py / train_steps * 1e6:8.3f} us/step"
          f"  ({train_steps} steps, epsilon {TRAIN_EPSILON})")
    print(f"warm start  : python   {ws_py / warm_steps * 1e6:8.3f} us/step"
          f"  ({warm_steps} steps, baseline:{WARM_START_DELTA:g} demos)")

    bench_warm_start("python", _rollout_py.train, warm, ws_py, args.repeats)

    print(f"batch       : {fastpath.BACKEND} backend, {args.episodes} episodes per call")
    for policy in (PolicySpec.nominal(), PolicySpec.baseline(8.0),
                   PolicySpec.weights(random_weights(np.random.default_rng(1)))):
        batch_rate, loop_rate, summaries, results = bench_batch(scenario, policy, seeds,
                                                                args.repeats)
        assert [(o, d) for _, o, d, _ in summaries.tolist()] == \
            [(o, d) for _, o, d in results], "batch and rollout disagree"
        print(f"  {policy.policy_id:<11}: batch {batch_rate:9.0f} episodes/s"
              f"  rollout loop {loop_rate:9.0f} episodes/s  ({batch_rate / loop_rate:4.1f}x)")
    print("batch outcomes and deploy steps equal the rollout loop's")

    t_cold, t_warm, t_each, cold, hot, each = bench_sweep(scenario, seeds, args.repeats)
    assert cold.tobytes() == each.tobytes(), "sweep and per-delta batches disagree"
    assert hot.tobytes() == cold.tobytes(), "warm and cold sweeps disagree"
    print(f"sweep       : baseline at {len(SWEEP_DELTAS)} deltas, one call"
          f" {t_cold * 1e3:8.3f} ms  one call per delta {t_each * 1e3:8.3f} ms"
          f"  ({t_each / t_cold:4.1f}x)")
    print(f"warm sweep  : after a nominal batch on the same wind {t_warm * 1e3:8.3f} ms"
          f"  cold {t_cold * 1e3:8.3f} ms  ({t_cold / t_warm:4.1f}x)")
    print("sweep summaries byte-equal to one batch per delta")
    print("warm sweep summaries byte-equal to a cold sweep")
    if fastpath.batch_compiled is not None:
        twin = twin_sweep_on_c_record(scenario, seeds[:3])
        assert twin.tobytes() == cold[:, :3].tobytes(), \
            "twin sweep on the C record and cold sweep disagree"
        print("twin sweep on a C nominal batch's record byte-equal to a cold sweep")

    t_call, t_loop, call, loop = bench_calibration(scenario, seeds, args.repeats)
    assert (np.array([call.wind_sigma, call.gust_sigma, call.exit_rate]).tobytes(),
            call.iterations) == \
        (np.array([loop.wind_sigma, loop.gust_sigma, loop.exit_rate]).tobytes(),
         loop.iterations), "calibration call and batch loop disagree"
    print(f"calibration : {call.iterations} evaluations, exit counts {t_call * 1e6:9.1f} us"
          f"  one batch per evaluation {t_loop * 1e6:9.1f} us  ({t_loop / t_call:4.2f}x)")
    print("calibration results byte-equal to one batch per evaluation")

    if fastpath.rollout_compiled is None:
        print(f"compiled    : C kernel not loaded ({fastpath.FALLBACK_REASON})")
        return

    t_c, res_c = bench(fastpath.rollout_compiled, all_args, args.repeats)
    print(f"compiled    : {t_c * 1e3:8.3f} ms/episode")
    print(f"speedup     : {t_py / t_c:8.1f}x")
    lt_c, theta_c, lrows_c = bench_training(fastpath.train_compiled, learn, args.repeats)
    ws_c, wstheta_c, wsrows_c = bench_training(fastpath.train_compiled, warm, args.repeats)
    print(f"training    : compiled {lt_c / train_steps * 1e6:8.3f} us/step"
          f"  speedup {lt_py / lt_c:6.1f}x")
    print(f"warm start  : compiled {ws_c / warm_steps * 1e6:8.3f} us/step"
          f"  speedup {ws_py / ws_c:6.1f}x")
    bench_warm_start("compiled", fastpath.train_compiled, warm, ws_c, args.repeats)
    print("one-call warm start weights byte-equal to one call per pass on both backends")
    wt_py, wind_py = bench_wind_draws(wind_draws, seeds, args.repeats)
    wt_c, wind_c = bench_wind_draws(fastpath.wind_draws_compiled, seeds, args.repeats)
    print(f"wind draws  : numpy {wt_py:8.3f} us/seed  compiled {wt_c:8.3f} us/seed"
          f"  speedup {wt_py / wt_c:6.1f}x")

    for (a, oa, da), (b, ob, db) in zip(res_py, res_c):
        assert oa == ob and da == db and np.array_equal(np.asarray(a), np.asarray(b)), \
            "backends disagree"
    assert lrows_py.tobytes() == lrows_c.tobytes(), "training episodes disagree"
    assert theta_py.tobytes() == theta_c.tobytes(), "trained weights disagree"
    assert wsrows_py.tobytes() == wsrows_c.tobytes(), "warm-start episodes disagree"
    assert wstheta_py.tobytes() == wstheta_c.tobytes(), "warm-start weights disagree"
    assert wind_py.tobytes() == wind_c.tobytes(), "wind draws disagree"
    print("backends bit-identical over all episodes, training results, wind draws and weights")

    workers = fastpath.batch_workers(args.episodes)
    print(f"batch workers: {workers} for {args.episodes} episodes,"
          f" {WORKER_CALLS} calls in a row on each count, us per call")
    for policy in (PolicySpec.nominal(), PolicySpec.baseline(8.0),
                   PolicySpec.weights(random_weights(np.random.default_rng(1)))):
        best_one, median_one, one = bench_workers(scenario, policy, seeds, 1)
        best_all, median_all, every = bench_workers(scenario, policy, seeds, workers)
        assert one.tobytes() == every.tobytes(), "worker counts disagree"
        for label, t_one, t_all in (("best", best_one, best_all),
                                    ("median", median_one, median_all)):
            print(f"  {policy.policy_id if label == 'best' else '':<11} {label:<6}:"
                  f" 1 worker {t_one * 1e6:9.1f}  {workers} workers {t_all * 1e6:9.1f}"
                  f"  ({t_one / t_all:4.2f}x)")
    print(f"batch summaries byte-equal on 1 and {workers} workers")

    seeds = range(PER_CALL_ROWS)
    workers = fastpath.batch_workers(PER_CALL_ROWS)
    _, median_one, one = bench_workers(scenario, PolicySpec.nominal(), seeds, 1, max_steps=1)
    _, median_all, every = bench_workers(scenario, PolicySpec.nominal(), seeds, workers,
                                         max_steps=1)
    assert one.tobytes() == every.tobytes(), "worker counts disagree on one-step batches"
    print(f"per-call cost: {PER_CALL_ROWS} episodes of 1 step, median of {WORKER_CALLS} calls:"
          f" 1 worker {median_one * 1e6:7.1f} us  {workers} workers {median_all * 1e6:7.1f} us"
          f"  ({median_all / median_one:4.2f}x)")
    print(f"one-step summaries byte-equal on 1 and {workers} workers")


if __name__ == "__main__":
    main()
