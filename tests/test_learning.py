import warnings
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

import learning_oracle
from toy_mdp import (
    ToyMDP,
    bellman_residual,
    choice_cdf,
    random_mdp,
    tabular_q_learning,
    tabular_q_update,
    value_iteration,
)
from rtsa import _rollout_py, fastpath, learning
from rtsa._rollout_py import rollout
from rtsa.learning import (
    LearnConfig,
    Transition,
    epsilon_greedy,
    linear_q_update,
    train,
    warm_start,
)
from rtsa.evaluation import PolicySpec, run_episode
from rtsa.policy import N_FEATURES, Action, random_weights
from rtsa.sim import Verdict, wind_draws, wind_rows

THETA_RTOL = 1e-9
THETA_ATOL = 1e-12


@pytest.fixture(params=["c", "python"])
def learning_backend(request, monkeypatch):
    """Route train and warm_start through one backend's learning and wind kernels."""
    if request.param == "c":
        if fastpath.train_compiled is None:
            pytest.skip(f"C kernel not loaded: {fastpath.FALLBACK_REASON}")
        kernels = fastpath.train_compiled, fastpath.wind_draws_compiled
    else:
        kernels = _rollout_py.train, wind_draws
    for name, kernel in zip(("train", "wind_draws"), kernels):
        monkeypatch.setattr(fastpath, name, kernel)
    return request.param


class TestToyMDP:
    def test_rejects_bad_rows(self):
        T = np.zeros((2, 1, 2))
        T[0, 0] = [0.5, 0.4]
        T[1, 0] = [0.5, 0.5]
        with pytest.raises(ValueError):
            ToyMDP(transitions=T, rewards=np.zeros((2, 1)), discount=0.9)

    def test_random_mdp_valid(self):
        mdp = random_mdp(np.random.default_rng(0))
        assert np.allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-12)
        assert mdp.n_states == 5 and mdp.n_actions == 2


class TestValueIteration:
    def test_single_state_geometric_series(self):
        mdp = ToyMDP(transitions=np.ones((1, 1, 1)), rewards=np.ones((1, 1)), discount=0.5)
        q = value_iteration(mdp, tol=1e-12)
        assert q[0, 0] == pytest.approx(2.0)

    def test_zero_rewards(self):
        mdp = random_mdp(np.random.default_rng(1))
        mdp = ToyMDP(transitions=mdp.transitions, rewards=np.zeros((5, 2)), discount=0.9)
        assert np.allclose(value_iteration(mdp, tol=1e-12), 0.0)

    def test_residual_below_tol(self):
        mdp = random_mdp(np.random.default_rng(2))
        q = value_iteration(mdp, tol=1e-10)
        assert bellman_residual(mdp, q) <= 1e-10

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            value_iteration(random_mdp(np.random.default_rng(3)), tol=0.0)


class TestTabularQUpdate:
    # tabular_q_learning applies this update at every step (criterion 2).
    def test_zero_lr_no_change(self):
        q = np.arange(4.0).reshape(2, 2)
        assert tabular_q_update(q[0, 0], 1.0, q[1], lr=0.0, gamma=0.9) == q[0, 0]

    def test_full_step_gamma_zero(self):
        q = np.zeros((2, 2))
        assert tabular_q_update(q[0, 1], 1.0, q[1], lr=1.0, gamma=0.0) == 1.0

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(3, 2))
        s, a, r, s2 = 1, 0, 0.7, 2
        lr, gamma = 0.3, 0.9
        expected = q[s, a] + lr * (r + gamma * q[s2].max() - q[s, a])
        assert tabular_q_update(q[s, a], r, q[s2], lr, gamma) == pytest.approx(expected, abs=1e-12)

    def test_terminal_bootstrap_zero(self):
        q = np.ones((2, 2))
        assert tabular_q_update(q[0, 0], 1.0, q[1], lr=1.0, gamma=0.9, terminal=True) == 1.0


class TestChoiceCdf:
    # tabular_q_learning draws its next states through choice_cdf; a numpy whose
    # rng.choice(n, p=row) stops being one rng.random() searched in these sums
    # must fail here, not shift the criterion-2 tables.
    @pytest.mark.parametrize("row", [
        *random_mdp(np.random.default_rng(0), 5, 2).transitions.reshape(-1, 5),
        [0.1] * 10,  # sums to 1 - 2**-53
        [0.5, 0.0, 0.5],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [1e-300, 1.0 - 1e-16, 1e-16],
    ])
    def test_bisect_draws_what_rng_choice_draws(self, row):
        choice, bisect = np.random.default_rng(42), np.random.default_rng(42)
        cdf = choice_cdf(row)
        for _ in range(2000):
            assert bisect_right(cdf, bisect.random()) == choice.choice(len(row), p=row)
        assert bisect.random() == choice.random()  # the same number of draws


class TestTabularQLearning:
    def test_converges_to_value_iteration(self):
        mdp = random_mdp(np.random.default_rng(0), 5, 2, 0.9)
        q_star = value_iteration(mdp, tol=1e-10)
        q = tabular_q_learning(mdp, steps=100_000, epsilon=1.0,
                               rng=np.random.default_rng(200))
        assert np.max(np.abs(q - q_star)) <= 1e-2


class TestLinearQUpdate:
    def make_transition(self, terminal=False):
        rng = np.random.default_rng(5)
        return Transition(
            phi_s=rng.normal(size=N_FEATURES),
            action=Action.CONTINUE,
            reward=-1.0,
            phi_next=rng.normal(size=N_FEATURES),
            terminal=terminal,
        )

    def test_zero_lr_no_change(self):
        theta = np.ones((N_FEATURES, 2))
        theta2 = linear_q_update(theta, self.make_transition(), lr=0.0, gamma=0.9)
        assert np.array_equal(theta, theta2)

    def test_regression_step_gamma_zero(self):
        tr = self.make_transition()
        theta = linear_q_update(np.zeros((N_FEATURES, 2)), tr, lr=0.1, gamma=0.0)
        assert np.allclose(theta[:, Action.CONTINUE], 0.1 * -1.0 * tr.phi_s)
        assert np.allclose(theta[:, Action.DEPLOY], 0.0)

    def test_terminal_ignores_phi_next(self):
        tr = self.make_transition(terminal=True)
        tr_other = Transition(tr.phi_s, tr.action, tr.reward,
                              np.full(N_FEATURES, 1e9), True)
        theta0 = np.random.default_rng(6).normal(size=(N_FEATURES, 2))
        a = linear_q_update(theta0, tr, lr=0.1, gamma=0.9)
        b = linear_q_update(theta0, tr_other, lr=0.1, gamma=0.9)
        assert np.array_equal(a, b)

    def test_update_locality(self):
        theta0 = np.random.default_rng(7).normal(size=(N_FEATURES, 2))
        tr = self.make_transition()
        theta = linear_q_update(theta0, tr, lr=0.1, gamma=0.9)
        assert np.array_equal(theta[:, Action.DEPLOY], theta0[:, Action.DEPLOY])
        assert not np.array_equal(theta[:, Action.CONTINUE], theta0[:, Action.CONTINUE])

    def test_realizability_terminal_bandit(self):
        # Rewards derived from a planted weight matrix; the TD rule reduces
        # to regression on terminal transitions and must recover it.
        rng = np.random.default_rng(8)
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
        assert np.max(np.abs(theta - theta_star)) <= 1e-3


class TestEpsilonGreedy:
    def test_epsilon_zero_always_greedy(self):
        rng = np.random.default_rng(9)
        theta = np.zeros((N_FEATURES, 2))
        theta[8, Action.DEPLOY] = 1.0
        phi = np.zeros(N_FEATURES)
        phi[8] = 1.0
        for _ in range(100):
            assert epsilon_greedy(theta, phi, 0.0, rng) == Action.DEPLOY

    def test_epsilon_one_uniform(self):
        rng = np.random.default_rng(10)
        theta = np.zeros((N_FEATURES, 2))
        phi = np.ones(N_FEATURES)
        draws = [epsilon_greedy(theta, phi, 1.0, rng) for _ in range(10_000)]
        frac = np.mean([a == Action.DEPLOY for a in draws])
        assert abs(frac - 0.5) <= 0.03

    def test_same_seed_same_sequence(self):
        theta = np.random.default_rng(11).normal(size=(N_FEATURES, 2))
        phi = np.random.default_rng(12).normal(size=N_FEATURES)
        seq1 = [epsilon_greedy(theta, phi, 0.3, np.random.default_rng(13)) for _ in range(1)]
        a = [epsilon_greedy(theta, phi, 0.3, np.random.default_rng(13)) for _ in range(50)]
        b = [epsilon_greedy(theta, phi, 0.3, np.random.default_rng(13)) for _ in range(50)]
        assert a == b
        del seq1

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            epsilon_greedy(np.zeros((N_FEATURES, 2)), np.zeros(N_FEATURES), 1.5,
                           np.random.default_rng(14))


class TestWarmStart:
    def test_rejects_empty_batch(self, calm_scenario):
        with pytest.raises(ValueError):
            warm_start([], 8.0, np.zeros((N_FEATURES, 2)), LearnConfig(), calm_scenario,
                       calm_scenario.reward)

    def test_zero_passes_identity(self, calibrated_scenario):
        theta0 = np.random.default_rng(15).normal(size=(N_FEATURES, 2))
        cfg = LearnConfig(warm_start_passes=0)
        theta = warm_start([0, 1], 8.0, theta0, cfg, calibrated_scenario,
                           calibrated_scenario.reward)
        assert np.array_equal(theta, theta0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf"), [8.0]])
    def test_rejects_a_bad_threshold_even_with_zero_passes(self, calibrated_scenario, delta):
        with pytest.raises(ValueError, match="delta"):
            warm_start([0, 1], delta, np.zeros((N_FEATURES, 2)),
                       LearnConfig(warm_start_passes=0), calibrated_scenario,
                       calibrated_scenario.reward)

    def test_single_exit_transition_sign(self, calm_scenario):
        # A lone terminal exit moves the taken column against phi.
        tr = Transition(np.ones(N_FEATURES), Action.CONTINUE, -1.0,
                        np.ones(N_FEATURES), True)
        theta = linear_q_update(np.zeros((N_FEATURES, 2)), tr, 0.1, 0.9)
        assert np.all(theta[:, Action.CONTINUE] < 0)

    def test_deterministic(self, calibrated_scenario):
        cfg = LearnConfig()
        args = ([0, 1, 2], 8.0, np.zeros((N_FEATURES, 2)), cfg, calibrated_scenario,
                calibrated_scenario.reward)
        assert np.array_equal(warm_start(*args), warm_start(*args))

    def test_zero_passes_return_theta0_on_both_backends(self, calibrated_scenario,
                                                        learning_backend):
        theta0 = np.random.default_rng(15).normal(size=(N_FEATURES, 2))
        theta = warm_start([0, 1], 8.0, theta0, LearnConfig(warm_start_passes=0),
                           calibrated_scenario, calibrated_scenario.reward)
        assert theta.tobytes() == theta0.tobytes()

    # On the calibrated demo the start lies 18 m from the box, so 18 deploys at
    # step 0; the short scenario's demos time out or exit.
    @pytest.mark.parametrize("which,delta", [("calibrated", 8.0), ("calibrated", 18.0),
                                             ("short", 8.0)])
    def test_one_call_equals_one_call_per_pass(self, calibrated_scenario, short_scenario,
                                               learning_backend, which, delta):
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        theta0 = np.random.default_rng(17).normal(scale=1e-3, size=(N_FEATURES, 2))
        cfg = LearnConfig(warm_start_passes=4)
        theta = warm_start(range(4), delta, theta0, cfg, scenario, scenario.reward)
        ref = per_pass_warm_start(range(4), delta, theta0, cfg, scenario)
        assert theta.tobytes() == ref.tobytes()

    # Two demos and a bound of five episodes give calls of two, two and one
    # passes: each call flies the demos again, and pass numbers run across calls.
    def test_passes_beyond_the_episode_bound_run_in_further_calls(
            self, calibrated_scenario, learning_backend, monkeypatch):
        calls = []
        monkeypatch.setattr(learning, "MAX_EPISODES", 5)
        monkeypatch.setattr(fastpath, "train", spy(fastpath.train, calls))
        theta0 = np.random.default_rng(19).normal(scale=1e-3, size=(N_FEATURES, 2))
        cfg = LearnConfig(warm_start_passes=5, episodes=0)
        theta = warm_start([0, 1], 8.0, theta0, cfg, calibrated_scenario,
                           calibrated_scenario.reward)
        assert calls == [4, 4, 2]
        ref = per_pass_warm_start([0, 1], 8.0, theta0, cfg, calibrated_scenario)
        assert theta.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("learning_rate,k", [(45.0, 1), (40.0, 2), (38.0, 3)])
    def test_divergence_past_the_first_call_names_its_pass(
            self, calibrated_scenario, learning_backend, monkeypatch, learning_rate, k):
        monkeypatch.setattr(learning, "MAX_EPISODES", 5)
        cfg = LearnConfig(learning_rate=learning_rate, warm_start_passes=8, episodes=0)
        with pytest.raises(RuntimeError, match=rf"non-finite in warm-start pass {k}\b"):
            warm_start([0, 1], 8.0, np.zeros((N_FEATURES, 2)), cfg, calibrated_scenario,
                       calibrated_scenario.reward)


def spy(train, calls):
    """``train`` that appends each call's episode count to ``calls``."""
    def counted(theta, discount, learning_rate, epsilons, *args, **kwargs):
        calls.append(len(epsilons))
        return train(theta, discount, learning_rate, epsilons, *args, **kwargs)
    return counted


def per_pass_warm_start(seeds, delta, theta0, cfg, scenario):
    """Warm start as one ``fastpath.train`` call per pass, each flying every demo: the
    reference for the one call that replays the later passes. Raises RuntimeError
    naming the first pass that leaves a weight non-finite."""
    theta = np.array(theta0.T, order="C")
    demos = dict(wind=wind_rows(fastpath.wind_draws(seeds), scenario.sim),
                 policy_mode=fastpath.POLICY_BASELINE, delta=delta,
                 scales=scenario.feature_scales, alert_penalty=scenario.reward.alert_penalty,
                 **fastpath.scenario_args(scenario))
    for n in range(cfg.warm_start_passes):
        fastpath.train(theta, scenario.reward.discount, cfg.learning_rate,
                       np.zeros(len(seeds)), 0, **demos)
        if not np.isfinite(theta).all():
            raise RuntimeError(f"weights became non-finite in warm-start pass {n}")
    return theta.T.copy()


class TestLearnConfig:
    def test_defaults_valid(self):
        assert LearnConfig().validate() == []

    @pytest.mark.parametrize(
        "key,value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("learning_rate", "3e-3"),
            ("learning_rate", True),
            ("epsilon0", float("nan")),
            ("epsilon0", 1.5),
            ("epsilon_decay", 0.0),
            ("epsilon_decay", float("inf")),
            ("epsilon_floor", 5.0),
            ("epsilon_floor", -0.1),
            ("epsilon_floor", float("nan")),
            ("episodes", 2.5),
            ("episodes", -1),
            ("episodes", "10"),
            ("episodes", 10**12),  # refused before anything is sized by it
            ("warm_start_passes", 1.5),
            ("warm_start_passes", -3),
            ("warm_start_passes", True),
            ("learning_rate", 10**400),  # an int no float holds
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("seed", 2**64),
            ("seed", "0"),
            # train's default wind seeds run from seed to seed + episodes - 1 (3000 here).
            ("seed", 2**64 - 1),
            ("seed", 2**64 - 2999),
        ],
    )
    def test_bad_field_reported(self, key, value):
        problems = LearnConfig(**{key: value}).validate()
        assert len(problems) == 1 and key in problems[0]

    def test_collects_problems(self):
        cfg = LearnConfig(learning_rate=float("nan"), epsilon_floor=2.0, episodes=-1)
        assert len(cfg.validate()) == 3

    @pytest.mark.parametrize("seed,episodes",
                             [(2**64 - 1, 0), (2**64 - 1, 1), (2**64 - 3000, 3000)])
    def test_top_seed_with_room_for_its_default_wind_seeds(self, seed, episodes):
        assert LearnConfig(seed=seed, episodes=episodes).validate() == []

    @pytest.mark.parametrize(
        "cfg,field",
        [
            (LearnConfig(learning_rate=-1.0, episodes=2), "learning_rate"),
            (LearnConfig(epsilon0=1.5, episodes=2), "epsilon0"),
            (LearnConfig(epsilon_decay=0.0, episodes=2), "epsilon_decay"),
            (LearnConfig(seed=-1, episodes=2), "seed"),
            (LearnConfig(seed=1.5, episodes=2), "seed"),
            (LearnConfig(seed=2**64 - 1, episodes=2), "learn.seed"),
            (LearnConfig(episodes=10**12), "learn.episodes"),
        ],
    )
    def test_train_refuses_an_invalid_config(self, calibrated_scenario, learning_backend,
                                             cfg, field):
        # learning_rate=-1 used to return weights of about -1e27 without a word.
        with pytest.raises(ValueError, match=field):
            train(calibrated_scenario, calibrated_scenario.reward, cfg,
                  np.zeros((N_FEATURES, 2)), wind_seeds=range(2))

    @pytest.mark.parametrize(
        "cfg,field",
        [
            (LearnConfig(learning_rate=-1.0), "learning_rate"),
            (LearnConfig(warm_start_passes=-3), "warm_start_passes"),
        ],
    )
    def test_warm_start_refuses_an_invalid_config(self, calibrated_scenario,
                                                  learning_backend, cfg, field):
        with pytest.raises(ValueError, match=field):
            warm_start([0, 1], 8.0, np.zeros((N_FEATURES, 2)), cfg, calibrated_scenario,
                       calibrated_scenario.reward)

    @pytest.mark.parametrize("alert_penalty", [-1.0, 0.0, float("nan"), float("inf")])
    def test_train_and_warm_start_refuse_an_invalid_reward(self, calibrated_scenario,
                                                           learning_backend, alert_penalty):
        # -1 and 0 used to train without a word, and NaN to fail as divergence.
        rc = replace(calibrated_scenario.reward, alert_penalty=alert_penalty)
        with pytest.raises(ValueError, match="alert_penalty"):
            train(calibrated_scenario, rc, LearnConfig(episodes=2), np.zeros((N_FEATURES, 2)),
                  wind_seeds=range(2))
        with pytest.raises(ValueError, match="alert_penalty"):
            warm_start([0, 1], 8.0, np.zeros((N_FEATURES, 2)), LearnConfig(),
                       calibrated_scenario, rc)


class TestTrain:
    def test_zero_episodes_identity(self, calibrated_scenario):
        theta0 = np.random.default_rng(16).normal(size=(N_FEATURES, 2))
        cfg = LearnConfig(episodes=0)
        theta, log = train(calibrated_scenario, calibrated_scenario.reward, cfg, theta0)
        assert np.array_equal(theta, theta0)
        assert len(log) == 0

    def test_log_length_and_epsilon_schedule(self, calibrated_scenario):
        cfg = LearnConfig(episodes=5, epsilon0=0.5, epsilon_decay=0.5)
        theta, log = train(calibrated_scenario, calibrated_scenario.reward, cfg,
                           np.zeros((N_FEATURES, 2)), wind_seeds=range(5))
        assert len(log) == 5
        eps = [e["epsilon"] for e in log.episodes]
        assert eps == [0.5, 0.25, 0.125, 0.0625, 0.03125]

    def test_epsilon_floor(self, calibrated_scenario):
        cfg = LearnConfig(episodes=4, epsilon0=0.02, epsilon_decay=0.1)
        _, log = train(calibrated_scenario, calibrated_scenario.reward, cfg,
                       np.zeros((N_FEATURES, 2)), wind_seeds=range(4))
        assert log.episodes[-1]["epsilon"] == pytest.approx(0.01)

    def test_bit_identical_reruns(self, calibrated_scenario):
        cfg = LearnConfig(episodes=3, seed=5)
        args = (calibrated_scenario, calibrated_scenario.reward, cfg,
                np.zeros((N_FEATURES, 2)))
        t1, log1 = train(*args, wind_seeds=range(3))
        t2, log2 = train(*args, wind_seeds=range(3))
        assert np.array_equal(t1, t2)
        assert log1.episodes == log2.episodes

    def test_return_values_consistent_with_reward_set(self, calibrated_scenario):
        rc = calibrated_scenario.reward
        cfg = LearnConfig(episodes=10, seed=2)
        _, log = train(calibrated_scenario, rc, cfg, np.zeros((N_FEATURES, 2)),
                       wind_seeds=range(10))
        for e in log.episodes:
            # Discounted sum of values from {0, -alpha, -1}: bounded below.
            assert -2.0 < e["return"] <= 0.0


def _log_key(rows):
    return [(r["outcome"], r["deploy_step"], r["epsilon"], r["deploy_greedy"], r["steps"])
            for r in rows]


class TestOracleParity:
    """The scalar loops against the object-level loops in learning_oracle.py."""

    @pytest.mark.parametrize(
        "which,epsilon,wind_seeds,verdicts",
        [
            ("calibrated", 0.0, [0, 3, 4], {Verdict.COMPLETED, Verdict.EXITED,
                                            Verdict.GROUNDED}),
            ("short", 0.0, range(6), {Verdict.TIMEOUT, Verdict.EXITED, Verdict.GROUNDED}),
            ("calibrated", 0.02, range(8), {Verdict.EXITED, Verdict.GROUNDED}),
            ("calibrated", 1.0, range(4), {Verdict.GROUNDED}),
            ("short", 1.0, range(4), {Verdict.GROUNDED}),
        ],
    )
    def test_train_matches_object_loop(self, calibrated_scenario, short_scenario,
                                       which, epsilon, wind_seeds, verdicts):
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        cfg = LearnConfig(seed=3, episodes=len(wind_seeds), epsilon0=epsilon,
                          epsilon_decay=1.0, epsilon_floor=0.0)
        theta0 = np.zeros((N_FEATURES, 2))
        theta, log = train(scenario, scenario.reward, cfg, theta0, wind_seeds=wind_seeds)
        ref_theta, ref_rows = learning_oracle.train(scenario, scenario.reward, cfg, theta0,
                                                    wind_seeds=wind_seeds)
        assert {r["outcome"] for r in ref_rows} == verdicts
        assert _log_key(log.episodes) == _log_key(ref_rows)
        for row, ref in zip(log.episodes, ref_rows):
            assert abs(row["return"] - ref["return"]) <= 1e-12
        np.testing.assert_allclose(theta, ref_theta, rtol=THETA_RTOL, atol=THETA_ATOL)

    def test_timeout_at_epsilon_one(self, calibrated_scenario):
        scenario = replace(calibrated_scenario, sim=replace(calibrated_scenario.sim,
                                                            max_steps=20))
        cfg = LearnConfig(seed=3, episodes=3, epsilon0=1.0, epsilon_decay=1.0)
        theta, log = train(scenario, scenario.reward, cfg, np.zeros((N_FEATURES, 2)),
                           wind_seeds=range(3))
        ref_theta, ref_rows = learning_oracle.train(
            scenario, scenario.reward, cfg, np.zeros((N_FEATURES, 2)), wind_seeds=range(3))
        assert {r["outcome"] for r in ref_rows} == {Verdict.TIMEOUT}
        assert _log_key(log.episodes) == _log_key(ref_rows)
        np.testing.assert_allclose(theta, ref_theta, rtol=THETA_RTOL, atol=THETA_ATOL)

    @pytest.mark.parametrize("which", ["calibrated", "short"])
    def test_warm_start_matches_object_replay(self, calibrated_scenario, short_scenario,
                                              learning_backend, which):
        # The kernel flies the demos itself; the oracle replays run_episode's
        # records of the same seeds.
        scenario = calibrated_scenario if which == "calibrated" else short_scenario
        records = [run_episode(PolicySpec.baseline(8.0), scenario, s) for s in range(4)]
        assert len({r.outcome for r in records}) > 1
        theta0 = np.random.default_rng(17).normal(scale=1e-3, size=(N_FEATURES, 2))
        cfg = LearnConfig(warm_start_passes=2)
        theta = warm_start(range(4), 8.0, theta0, cfg, scenario, scenario.reward)
        ref = learning_oracle.warm_start(records, theta0, cfg, scenario, scenario.reward)
        np.testing.assert_allclose(theta, ref, rtol=THETA_RTOL, atol=THETA_ATOL)

    @pytest.mark.parametrize("which,delta", [("calibrated", 18.0), ("tiny", 8.0)])
    def test_replayed_warm_start_matches_object_replay(self, calibrated_scenario,
                                                       learning_backend, which, delta):
        # Demos that deploy at step 0, or all time out, over three passes.
        scenario = calibrated_scenario
        if which == "tiny":
            scenario = replace(scenario, sim=replace(scenario.sim, max_steps=20))
        records = [run_episode(PolicySpec.baseline(delta), scenario, s) for s in range(4)]
        expected = Verdict.GROUNDED if which == "calibrated" else Verdict.TIMEOUT
        assert {(r.outcome, r.deploy_step if which == "calibrated" else None)
                for r in records} == {(expected, 0 if which == "calibrated" else None)}
        theta0 = np.random.default_rng(17).normal(scale=1e-3, size=(N_FEATURES, 2))
        cfg = LearnConfig(warm_start_passes=3)
        theta = warm_start(range(4), delta, theta0, cfg, scenario, scenario.reward)
        ref = learning_oracle.warm_start(records, theta0, cfg, scenario, scenario.reward)
        np.testing.assert_allclose(theta, ref, rtol=THETA_RTOL, atol=THETA_ATOL)

    @pytest.mark.parametrize("seed", range(6))
    def test_frozen_greedy_episode_is_the_weights_rollout(self, calibrated_scenario, seed):
        scenario = calibrated_scenario
        theta = random_weights(np.random.default_rng(seed), 0.3)
        args = dict(wind_params=wind_rows(wind_draws([seed]), scenario.sim)[0],
                    scales=scenario.feature_scales,
                    alert_penalty=scenario.reward.alert_penalty,
                    **fastpath.scenario_args(scenario))
        traj, outcome, deploy_step = rollout(policy_mode=fastpath.POLICY_WEIGHTS, delta=0.0,
                                             theta=theta, **args)
        columns = np.array(theta.T, order="C")
        wind = args.pop("wind_params")[None]
        (row,) = _rollout_py.train(columns, scenario.reward.discount, 0.0, [0.0], 0,
                                   wind=wind, policy_mode=fastpath.POLICY_WEIGHTS, delta=0.0,
                                   **args)
        row = dict(zip(_rollout_py.TRAIN_COLUMNS, row.tolist()))
        assert (row["outcome"], row["deploy_step"], row["steps"]) == (outcome, deploy_step,
                                                                       len(traj) - 1)
        assert row["deploy_greedy"] == (-1 if deploy_step < 0 else 1)
        assert np.array_equal(columns.T, theta)


class TestDivergence:
    def test_train_raises_on_non_finite_weights(self, calibrated_scenario, learning_backend):
        cfg = LearnConfig(episodes=5, learning_rate=1e6, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError, match=r"training episode \d+"):
                train(calibrated_scenario, calibrated_scenario.reward, cfg,
                      np.zeros((N_FEATURES, 2)), wind_seeds=range(5))

    def test_train_still_warns_about_the_learning_rate(self, calibrated_scenario,
                                                       learning_backend):
        cfg = LearnConfig(episodes=1, learning_rate=0.5, seed=0)
        with pytest.warns(UserWarning, match="learning_rate"):
            train(calibrated_scenario, calibrated_scenario.reward, cfg,
                  np.zeros((N_FEATURES, 2)), wind_seeds=range(1))

    def test_warm_start_raises_on_non_finite_weights(self, calibrated_scenario,
                                                     learning_backend):
        cfg = LearnConfig(learning_rate=1e6)
        with pytest.raises(RuntimeError, match=r"warm-start pass \d+"):
            warm_start([0, 1], 8.0, np.zeros((N_FEATURES, 2)), cfg, calibrated_scenario,
                       calibrated_scenario.reward)

    # Learning rates at which two demos leave the weights non-finite in pass k,
    # from zero weights: the later passes diverge on replayed transitions.
    @pytest.mark.parametrize("learning_rate,k", [(120.0, 0), (45.0, 1), (40.0, 2), (38.0, 3)])
    def test_warm_start_divergence_names_its_pass(self, calibrated_scenario, learning_backend,
                                                  learning_rate, k):
        cfg = LearnConfig(learning_rate=learning_rate, warm_start_passes=8)
        args = ([0, 1], 8.0, np.zeros((N_FEATURES, 2)), cfg, calibrated_scenario)
        message = rf"non-finite in warm-start pass {k}\b"
        with pytest.raises(RuntimeError, match=message):
            warm_start(*args, calibrated_scenario.reward)
        with pytest.raises(RuntimeError, match=message):
            per_pass_warm_start(*args)
