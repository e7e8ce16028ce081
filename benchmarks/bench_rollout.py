#!/usr/bin/env python3
"""Compare the compiled and pure-Python rollout kernels.

Runs the same seeded episode batch through both backends, checks the results
are bit-identical, and reports per-episode timing and the speedup.

Usage: python benchmarks/bench_rollout.py [--episodes N] [--policy SPEC]
"""

import argparse
import statistics
import time

import numpy as np

from rtsa import fastpath
from rtsa._rollout_py import rollout as rollout_python
from rtsa.evaluation import PolicySpec
from rtsa.policy import N_FEATURES, Action, random_weights
from rtsa.scenario import default_scenario
from rtsa.sim import sample_wind_field


def episode_args(scenario, seed, policy):
    field = sample_wind_field(np.random.default_rng(seed), scenario.sim)
    theta = policy.theta if policy.theta is not None else np.zeros((N_FEATURES, len(Action)))
    return dict(
        wind_params=fastpath.wind_params(field),
        policy_mode=policy._mode(),
        delta=policy.delta,
        theta=theta,
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

    all_args = [episode_args(scenario, seed, policy) for seed in range(args.episodes)]

    t_py, res_py = bench(rollout_python, all_args, args.repeats)
    steps = statistics.mean(len(traj) - 1 for traj, _, _ in res_py)
    print(f"episodes: {args.episodes}  policy: {args.policy}  mean steps: {steps:.0f}")
    print(f"pure python : {t_py * 1e3:8.3f} ms/episode")

    if fastpath.rollout_compiled is None:
        print(f"compiled    : C kernel not loaded ({fastpath.FALLBACK_REASON})")
        return

    t_cy, res_cy = bench(fastpath.rollout_compiled, all_args, args.repeats)
    print(f"compiled    : {t_cy * 1e3:8.3f} ms/episode")
    print(f"speedup     : {t_py / t_cy:8.1f}x")

    for (a, oa, da), (b, ob, db) in zip(res_py, res_cy):
        assert oa == ob and da == db and np.array_equal(np.asarray(a), np.asarray(b)), \
            "backends disagree"
    print("backends bit-identical over all episodes")


if __name__ == "__main__":
    main()
