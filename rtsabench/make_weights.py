#!/usr/bin/env python3
"""Produce the fixed weight matrix the ``evaluate`` workload scores (weights.json).

The matrix comes from ``evaluation.train_policy`` on the bundled scenario with
the config below, so ``evaluate`` never runs the learning code itself. The
file holds the weights in ``policy.save_weights`` order, the sha256 of the
matrix (checked at every load) and the config that produced it.

    python3 rtsabench/make_weights.py      # rewrites rtsabench/weights.json
"""

import json

import workloads  # puts the checkout's src/ on the import path
from rtsa import evaluation, policy, scenario
from rtsa.learning import LearnConfig

CONFIG = {
    "alert_penalty": 0.05,
    "warmstart_delta": 16.0,
    "warmstart_episodes": 100,
    "online_episodes": 500,
    "train_seeds": [0, 500],  # half-open wind seed range
    "explore_seed": 1,
}


def main():
    sc = scenario.load_scenario(workloads.bundled_scenario_path())
    lo, hi = CONFIG["train_seeds"]
    theta, _ = evaluation.train_policy(
        sc, CONFIG["alert_penalty"],
        LearnConfig(episodes=CONFIG["online_episodes"], seed=CONFIG["explore_seed"]),
        range(lo, hi), warmstart_delta=CONFIG["warmstart_delta"],
        warmstart_episodes=CONFIG["warmstart_episodes"],
    )
    payload = {
        "order": policy.WEIGHT_ORDER,
        "weights": theta.ravel().tolist(),
        "sha256": workloads.weights_digest(theta),
        "scenario_hash": sc.hash(),
        "config": CONFIG,
    }
    workloads.WEIGHTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {workloads.WEIGHTS_PATH.name}: sha256 {payload['sha256'][:12]}")


if __name__ == "__main__":
    main()
