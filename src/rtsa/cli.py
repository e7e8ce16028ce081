"""Command-line entry point for calibration, training, evaluation and sweeps.

Artifacts are JSON (scenario, weights) and CSV (logs, confusion matrices,
SOC sweeps). Every CSV starts with a comment row recording the scenario hash
and the seeds that produced it, so artifacts are self-describing. All
randomness flows from explicit seeds; there is no wall-clock entropy. Bad
input ends in exit code 2 and one ``error:`` line on stderr: ``main`` maps
every ``CliError``, ``ValueError`` (``ScenarioError`` among them),
``RuntimeError`` and ``OSError`` to it.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from .evaluation import (
    PolicySpec,
    calibrate_wind,
    confusion,
    run_episode,
    run_batch,
    soc_point,
    sweep_baseline,
    sweep_learned,
)
from .learning import LearnConfig, train, warm_start
from .policy import load_weights, save_weights, N_FEATURES, Action
from .scenario import Scenario, load_scenario, save_scenario
from .sim import MAX_EPISODES


class CliError(Exception):
    pass


def _default_scenario_path() -> str:
    return str(resources.files("rtsa").joinpath("data/demo_scenario.json"))


def _parse_policy(spec: str) -> PolicySpec:
    if spec == "nominal":
        return PolicySpec.nominal()
    if spec.startswith("baseline:"):
        try:
            return PolicySpec.baseline(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise CliError(f"bad baseline threshold in policy spec {spec!r}: {exc}") from exc
    if spec.startswith("weights:"):
        return PolicySpec.weights(load_weights(spec.split(":", 1)[1]))
    raise CliError(
        f"unknown policy spec {spec!r}; expected nominal, baseline:<delta> or weights:<path>"
    )


def _parse_seed_range(option: str, text: str):
    """Parse the ``option`` value 'A..B' as the half-open integer range [A, B)."""
    try:
        a, b = text.split("..")
        a, b = int(a), int(b)
    except ValueError as exc:
        raise CliError(f"{option}: bad seed range {text!r}; expected START..STOP") from exc
    if b <= a:
        raise CliError(f"{option}: empty seed range {text!r}")
    if b - a > MAX_EPISODES:
        raise CliError(f"{option}: seed range {text!r} holds more than {MAX_EPISODES} seeds")
    return list(range(a, b))


def _episode_count(episodes: int) -> int:
    """``--episodes``, refused above MAX_EPISODES before any seed list is built."""
    if episodes > MAX_EPISODES:
        raise CliError(f"--episodes must be at most {MAX_EPISODES}, got {episodes}")
    return episodes


def _parse_float_list(text: str):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad numeric list {text!r}") from exc


def _learn_config(**kwargs) -> LearnConfig:
    cfg = LearnConfig(**kwargs)
    problems = cfg.validate()
    if problems:
        raise CliError("; ".join(problems))
    return cfg


def _csv_writer(path, scenario: Scenario, seeds_note: str):
    fh = open(path, "w", newline="")
    fh.write(f"# scenario_hash={scenario.hash()} seeds={seeds_note}\n")
    return fh, csv.writer(fh)


def _write_confusion(path, scenario: Scenario, seeds_note: str, rows):
    fh, writer = _csv_writer(path, scenario, seeds_note)
    with fh:
        writer.writerow(
            [
                "policy",
                "parameter",
                "episodes",
                "safe_not_deployed",
                "unsafe_not_deployed",
                "safe_deployed",
                "unsafe_deployed",
            ]
        )
        for policy_id, parameter, cm in rows:
            writer.writerow(
                [
                    policy_id,
                    parameter,
                    cm.total,
                    cm.safe_not_deployed,
                    cm.unsafe_not_deployed,
                    cm.safe_deployed,
                    cm.unsafe_deployed,
                ]
            )


def cmd_calibrate(args) -> int:
    scenario = load_scenario(args.scenario)
    seeds = list(range(args.seed, args.seed + _episode_count(args.episodes)))
    result = calibrate_wind(scenario, args.target, seeds)
    print(
        f"calibrated wind_sigma={result.wind_sigma:.4f} gust_sigma={result.gust_sigma:.4f} "
        f"exit_rate={result.exit_rate:.3f} evaluations={result.iterations}"
    )
    if args.out:
        calibrated = scenario.with_wind(result.wind_sigma, result.gust_sigma)
        save_scenario(calibrated, args.out)
        print(f"wrote calibrated scenario to {args.out}")
    return 0


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    policy = _parse_policy(args.policy)
    record = run_episode(policy, scenario, args.seed)
    print(
        f"seed={record.seed} policy={record.policy_id} outcome={record.outcome} "
        f"return={record.episode_return:.4f} deploy_step={record.deploy_step}"
    )
    if args.trace:
        fh, writer = _csv_writer(args.trace, scenario, str(args.seed))
        with fh:
            writer.writerow(["t", "px", "py", "pz", "vx", "vy", "vz", "action", "reward"])
            for row in record.trajectory:
                writer.writerow([f"{v:.10g}" for v in row])
    return 0


def cmd_warmstart(args) -> int:
    scenario = load_scenario(args.scenario)
    cfg = _learn_config(seed=args.seed, warm_start_passes=args.passes,
                        learning_rate=args.learning_rate)
    seeds = range(args.seed, args.seed + _episode_count(args.episodes))
    theta0 = np.zeros((N_FEATURES, len(Action)))
    theta = warm_start(seeds, args.delta, theta0, cfg, scenario, scenario.reward)
    save_weights(theta, args.out)
    print(f"warm-started weights from {len(seeds)} baseline episodes -> {args.out}")
    return 0


def cmd_train(args) -> int:
    scenario = load_scenario(args.scenario)
    rc = replace(scenario.reward, alert_penalty=args.alert_penalty)
    cfg = _learn_config(seed=args.seed, episodes=args.episodes,
                        learning_rate=args.learning_rate)
    theta0 = load_weights(args.init)
    theta, log = train(scenario, rc, cfg, theta0)
    save_weights(theta, args.out)
    print(f"trained {len(log)} episodes -> {args.out}")
    if args.log:
        fh, writer = _csv_writer(args.log, scenario,
                                 f"{args.seed}..{args.seed + args.episodes}")
        with fh:
            writer.writerow(log.COLUMNS)
            for row in log.episodes:
                writer.writerow(
                    [
                        row["episode"],
                        f"{row['return']:.6f}",
                        row["outcome"],
                        "" if row["deploy_step"] is None else row["deploy_step"],
                        f"{row['epsilon']:.4f}",
                        row["steps"],
                        "" if row["deploy_greedy"] is None else int(row["deploy_greedy"]),
                        f"{row['max_abs_td_error']:.6g}",
                        f"{row['theta_norm']:.6g}",
                    ]
                )
    return 0


def cmd_evaluate(args) -> int:
    scenario = load_scenario(args.scenario)
    policy = _parse_policy(args.policy)
    seeds = _parse_seed_range("--seeds", args.seeds)
    records = run_batch(policy, scenario, seeds)
    cm = confusion(records, scenario.envelope)
    print(
        f"policy={policy.policy_id} episodes={cm.total} "
        f"safe_not_deployed={cm.safe_not_deployed} unsafe_not_deployed={cm.unsafe_not_deployed} "
        f"safe_deployed={cm.safe_deployed} unsafe_deployed={cm.unsafe_deployed}"
    )
    if args.out:
        _write_confusion(args.out, scenario, args.seeds,
                         [(policy.policy_id, policy.delta, cm)])
    return 0


def cmd_soc(args) -> int:
    scenario = load_scenario(args.scenario)
    deltas = sorted(_parse_float_list(args.baseline_deltas))
    penalties = _parse_float_list(args.alert_penalties)
    seeds_train = _parse_seed_range("--train-seeds", args.train_seeds)
    seeds_eval = _parse_seed_range("--eval-seeds", args.eval_seeds)
    if set(seeds_train) & set(seeds_eval):
        raise CliError("train and eval seed ranges overlap")
    cfg = _learn_config(seed=args.seed, episodes=args.episodes,
                        learning_rate=args.learning_rate)
    # Refuse every threshold and penalty before the first episode runs.
    for delta in deltas:
        PolicySpec.baseline(delta)
    for penalty in penalties:
        problems = replace(scenario.reward, alert_penalty=penalty).validate()
        if problems:
            raise CliError("; ".join(problems))

    nominal_records = run_batch(PolicySpec.nominal(), scenario, seeds_eval)
    nominal_cm = confusion(nominal_records, scenario.envelope)
    points = [soc_point(nominal_cm, 0.0, policy_family="nominal")]
    points.extend(sweep_baseline(scenario, deltas, seeds_eval))
    learned_points, thetas = sweep_learned(scenario, penalties, cfg, seeds_train, seeds_eval)
    points.extend(learned_points)

    fh, writer = _csv_writer(
        args.out, scenario, f"train={args.train_seeds} eval={args.eval_seeds}"
    )
    with fh:
        writer.writerow(["policy_family", "parameter", "episodes", "alert_rate", "safe_rate"])
        for pt in points:
            writer.writerow(
                [pt.policy_family, pt.parameter, pt.episodes,
                 f"{pt.alert_rate:.6f}", f"{pt.safe_rate:.6f}"]
            )
    if args.weights_prefix:
        for penalty, theta in thetas.items():
            save_weights(theta, f"{args.weights_prefix}{penalty:g}.json")
    print(f"wrote {len(points)} SOC points to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtsa",
        description="Geofenced flight missions with a learned recovery-deployment switch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", default=_default_scenario_path(),
                       help="scenario JSON file (default: bundled demo)")

    p = sub.add_parser("calibrate", help="bisect wind strength to a target exit rate")
    add_common(p)
    p.add_argument("--target", type=float, default=0.25)
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the calibrated scenario here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", help="run a single seeded episode")
    add_common(p)
    p.add_argument("--policy", required=True,
                   help="nominal | baseline:<delta> | weights:<path>")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", help="write the trajectory CSV here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("warmstart", help="batch-fit weights from baseline episodes")
    add_common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=5)
    p.add_argument("--learning-rate", type=float, default=3e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_warmstart)

    p = sub.add_parser("train", help="online linear Q-learning from initial weights")
    add_common(p)
    p.add_argument("--init", required=True, help="initial weights JSON")
    p.add_argument("--alert-penalty", type=float, required=True)
    p.add_argument("--episodes", type=int, default=3000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--learning-rate", type=float, default=3e-3)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="write the per-episode training CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="confusion matrix over a seed range")
    add_common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--seeds", required=True, help="seed range START..STOP")
    p.add_argument("--out", help="write the confusion CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("soc", help="full operating-characteristic sweep")
    add_common(p)
    p.add_argument("--baseline-deltas", default="1,2,4,8,16")
    p.add_argument("--alert-penalties", default="0.02,0.03,0.05,0.07,0.1")
    p.add_argument("--train-seeds", required=True, help="seed range START..STOP")
    p.add_argument("--eval-seeds", required=True, help="seed range START..STOP")
    p.add_argument("--seed", type=int, required=True,
                   help="exploration seed for training")
    p.add_argument("--episodes", type=int, default=3000, help="training episodes per penalty")
    p.add_argument("--learning-rate", type=float, default=3e-3)
    p.add_argument("--out", required=True)
    p.add_argument("--weights-prefix", help="also save each trained weight matrix")
    p.set_defaults(func=cmd_soc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
