"""Object-level reference implementations of warm start and online training.

These are the step-by-step loops over ``VehicleState``/``ControlInput``
objects that ``rtsa.learning`` ran before its loops moved onto the episode
kernels (``rtsa._rollout_py`` and its C twin, picked by ``rtsa.fastpath``).
The parity tests in test_learning.py compare the kernel loops against them.
"""

from __future__ import annotations

import numpy as np

from rtsa.geometry import build_path
from rtsa.learning import Transition, epsilon_greedy, linear_q_update
from rtsa.policy import Action, compose_controller, extract_features, greedy_action, reward
from rtsa.sim import (
    VehicleState,
    Verdict,
    episode_terminated,
    sample_wind_field,
    step,
    wind_at,
)


def replay_transitions(record, scenario):
    """Feature-space transitions of a recorded episode, one VehicleState per row.

    The wind field is re-derived from the record's seed, so the wind features
    match what a policy would have observed live.
    """
    field = sample_wind_field(np.random.default_rng(record.seed), scenario.sim)
    traj = np.asarray(record.trajectory)
    env = scenario.envelope
    scales = scenario.feature_scales

    def features(p, v, deployed, t):
        s = VehicleState(position=p, velocity=v, time=float(t), deployed=deployed)
        return extract_features(s, env, wind_at(field, p, float(t)), scales)

    transitions = []
    deployed = False
    n_transitions = traj.shape[0] - 1
    for i in range(n_transitions):
        a_i = int(traj[i, 7])
        phi_s = features(traj[i, 1:4], traj[i, 4:7], deployed, traj[i, 0])
        deployed_next = deployed or a_i == Action.DEPLOY
        phi_next = features(traj[i + 1, 1:4], traj[i + 1, 4:7], deployed_next, traj[i + 1, 0])
        terminal = i == n_transitions - 1 and record.outcome != Verdict.TIMEOUT
        transitions.append(Transition(phi_s, Action(a_i), float(traj[i, 8]), phi_next, terminal))
        deployed = deployed_next
    return transitions


def warm_start(episodes, theta0, cfg, scenario, rc):
    theta = np.array(theta0, dtype=float, copy=True)
    transitions = []
    for record in episodes:
        transitions.extend(replay_transitions(record, scenario))
    for _ in range(cfg.warm_start_passes):
        for tr in transitions:
            theta = linear_q_update(theta, tr, cfg.learning_rate, rc.discount)
    return theta


def train(scenario, rc, cfg, theta0, wind_seeds=None):
    """Online epsilon-greedy linear Q-learning; returns (theta, log rows)."""
    env = scenario.envelope
    mission = scenario.mission
    sim_cfg = scenario.sim
    scales = scenario.feature_scales
    path = build_path(mission)
    theta = np.array(theta0, dtype=float, copy=True)
    rows = []
    if wind_seeds is None:
        wind_seeds = [cfg.seed + i for i in range(max(cfg.episodes, 1))]
    wind_seeds = list(wind_seeds)

    epsilon = cfg.epsilon0
    for ep in range(cfg.episodes):
        wind_field = sample_wind_field(
            np.random.default_rng(wind_seeds[ep % len(wind_seeds)]), sim_cfg)
        rng = np.random.default_rng([cfg.seed, ep])
        s = VehicleState(position=mission.waypoints[0], velocity=np.zeros(3))
        ret = 0.0
        disc = 1.0
        steps = 0
        deploy_step = None
        deploy_greedy = None
        while True:
            w = wind_at(wind_field, s.position, s.time)
            phi = extract_features(s, env, w, scales)
            if s.deployed:
                a = Action.DEPLOY
            else:
                a = epsilon_greedy(theta, phi, epsilon, rng)
            if a == Action.DEPLOY and not s.deployed and deploy_step is None:
                deploy_step = steps
                deploy_greedy = greedy_action(theta, phi) == Action.DEPLOY
            u = compose_controller(a, s, path, w, sim_cfg)
            s_next = step(s, u, wind_field, sim_cfg)
            r = reward(s, a, s_next, env, rc)
            steps += 1
            verdict = episode_terminated(s_next, env, mission, steps, sim_cfg)
            # Timeout is truncation, not an absorbing state: keep the bootstrap.
            terminal = verdict not in (Verdict.RUNNING, Verdict.TIMEOUT)
            w_next = wind_at(wind_field, s_next.position, s_next.time)
            phi_next = extract_features(s_next, env, w_next, scales)
            theta = linear_q_update(
                theta, Transition(phi, a, r, phi_next, terminal),
                cfg.learning_rate, rc.discount,
            )
            ret += disc * r
            disc *= rc.discount
            s = s_next
            if verdict != Verdict.RUNNING:
                break
        rows.append({"episode": ep, "return": ret, "outcome": verdict,
                     "deploy_step": deploy_step, "epsilon": epsilon,
                     "steps": steps, "deploy_greedy": deploy_greedy})
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)
    return theta, rows
