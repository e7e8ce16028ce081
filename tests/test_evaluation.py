import re
from dataclasses import replace

import numpy as np
import pytest

from rtsa import _rollout_py, evaluation, fastpath, sim
from rtsa.evaluation import (
    ConfusionMatrix,
    EpisodeRecord,
    PolicySpec,
    calibrate_wind,
    confusion,
    exit_rate,
    run_batch,
    run_episode,
    soc_point,
    sweep_baseline,
    sweep_learned,
    train_policy,
)
from rtsa.learning import LearnConfig, train
from rtsa.policy import N_FEATURES, random_weights
from rtsa.sim import Verdict, sample_wind_field


class TestPolicySpec:
    def test_ids(self):
        assert PolicySpec.nominal().policy_id == "nominal"
        assert PolicySpec.baseline(4.0).policy_id == "baseline:4"

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_baseline_rejects_nonpositive(self, delta):
        # NaN used to give a switch that never deploys, inf one that always does.
        with pytest.raises(ValueError, match="positive and finite"):
            PolicySpec.baseline(delta)

    def test_weights_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PolicySpec.weights(np.zeros((4, 2)))


class TestRunEpisode:
    def test_deterministic(self, calibrated_scenario):
        a = run_episode(PolicySpec.nominal(), calibrated_scenario, seed=3)
        b = run_episode(PolicySpec.nominal(), calibrated_scenario, seed=3)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert a.outcome == b.outcome
        assert a.deploy_step == b.deploy_step

    def test_nominal_never_deploys(self, calibrated_scenario):
        for seed in range(5):
            r = run_episode(PolicySpec.nominal(), calibrated_scenario, seed)
            assert r.deploy_step is None
            assert np.all(r.trajectory[:, 7] == 0)

    def test_matched_seeds_identical_wind(self, calibrated_scenario):
        # Two policies on the same seed start from the same wind field, so the
        # trajectories agree exactly until the first deploy.
        nom = run_episode(PolicySpec.nominal(), calibrated_scenario, 7)
        base = run_episode(PolicySpec.baseline(8.0), calibrated_scenario, 7)
        if base.deploy_step is None:
            assert np.array_equal(nom.trajectory, base.trajectory)
        else:
            k = base.deploy_step
            assert np.array_equal(nom.trajectory[: k + 1, :7], base.trajectory[: k + 1, :7])

    def test_causal_prefix_holds_somewhere(self, calibrated_scenario):
        # At least one of the first seeds makes a tight baseline deploy
        # mid-flight, exercising the divergence point.
        deploys = [
            run_episode(PolicySpec.baseline(16.0), calibrated_scenario, s).deploy_step
            for s in range(10)
        ]
        assert any(d is not None for d in deploys)

    def test_latch_is_permanent(self, calibrated_scenario):
        r = run_episode(PolicySpec.baseline(16.0), calibrated_scenario, 0)
        assert r.deploy_step is not None
        actions = r.trajectory[:-1, 7]
        assert np.all(actions[r.deploy_step:] == 1)
        assert np.all(actions[: r.deploy_step] == 0)

    def test_reward_value_set(self, calibrated_scenario):
        alpha = calibrated_scenario.reward.alert_penalty
        for seed in range(5):
            r = run_episode(PolicySpec.baseline(8.0), calibrated_scenario, seed)
            rewards = set(np.round(r.trajectory[:-1, 8], 12))
            assert rewards <= {0.0, -alpha, -1.0}

    def test_alert_penalty_override(self, calibrated_scenario):
        # An episode is charged its scenario's alert penalty.
        scenario = replace(calibrated_scenario,
                           reward=replace(calibrated_scenario.reward, alert_penalty=0.25))
        r = run_episode(PolicySpec.baseline(16.0), scenario, 0)
        assert -0.25 in np.round(r.trajectory[:-1, 8], 12)


class TestRunBatch:
    def test_order_and_length(self, calibrated_scenario):
        records = run_batch(PolicySpec.nominal(), calibrated_scenario, [5, 2, 9])
        assert [r.seed for r in records] == [5, 2, 9]

    def test_rejects_empty(self, calibrated_scenario):
        with pytest.raises(ValueError):
            run_batch(PolicySpec.nominal(), calibrated_scenario, [])

    def test_rejects_duplicates(self, calibrated_scenario):
        with pytest.raises(ValueError):
            run_batch(PolicySpec.nominal(), calibrated_scenario, [1, 1])

    def test_summary_records_have_no_return(self, calibrated_scenario):
        (record,) = run_batch(PolicySpec.baseline(16.0), calibrated_scenario, [0])
        assert record.trajectory is None
        with pytest.raises(ValueError, match="run_episode"):
            record.episode_return


EXIT_POLICIES = [
    PolicySpec.nominal(),
    PolicySpec.baseline(1.0),
    PolicySpec.baseline(4.0),
    PolicySpec.baseline(16.0),
    PolicySpec.weights(random_weights(np.random.default_rng(1))),
]


@pytest.mark.parametrize("policy", EXIT_POLICIES, ids=lambda p: p.policy_id)
def test_only_an_exited_episode_leaves_the_envelope_and_only_at_its_end(calibrated_scenario,
                                                                        policy):
    # The invariant that lets confusion judge a summary record by its outcome.
    scenario, seeds = calibrated_scenario, range(400)
    env = scenario.envelope
    records = [run_episode(policy, scenario, seed) for seed in seeds]
    for record in records:
        pos = record.trajectory[:, 1:4]
        outside = np.any((pos < env.min_corner) | (pos > env.max_corner), axis=1)
        assert not outside[:-1].any()
        assert outside[-1] == (record.outcome == Verdict.EXITED)
    summary = confusion(run_batch(policy, scenario, seeds), env)
    assert summary == confusion(records, env)
    if policy.kind == "nominal":
        assert summary.unsafe_not_deployed > 0


class TestConfusion:
    def make_record(self, deployed, outcome):
        traj = np.zeros((3, 9))
        traj[:, 1:4] = 10.0
        return EpisodeRecord(
            seed=0,
            policy_id="test",
            trajectory=traj,
            outcome=outcome,
            deploy_step=0 if deployed else None,
        )

    def test_hand_built_quadrants(self):
        records = [
            self.make_record(False, Verdict.COMPLETED),
            self.make_record(False, Verdict.EXITED),
            self.make_record(True, Verdict.GROUNDED),
            self.make_record(True, Verdict.EXITED),
        ]
        cm = confusion(records)
        assert cm == ConfusionMatrix(1, 1, 1, 1)
        assert cm.total == 4

    def test_trajectory_judging_overrides_label(self, calibrated_scenario):
        traj = np.zeros((3, 9))
        traj[1, 1] = 1e6
        rec = EpisodeRecord(0, "test", traj, Verdict.GROUNDED, deploy_step=0)
        cm = confusion([rec], calibrated_scenario.envelope)
        assert cm.unsafe_deployed == 1

    def test_counts_sum(self, calibrated_scenario):
        records = run_batch(PolicySpec.baseline(4.0), calibrated_scenario, range(20))
        cm = confusion(records, calibrated_scenario.envelope)
        assert cm.total == 20


class TestSocPoint:
    def test_arithmetic(self):
        cm = ConfusionMatrix(
            safe_not_deployed=70, unsafe_not_deployed=5, safe_deployed=20, unsafe_deployed=5
        )
        p = soc_point(cm, parameter=2.0)
        assert p.alert_rate == pytest.approx(0.25)
        assert p.safe_rate == pytest.approx(0.90)
        assert p.episodes == 100

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            soc_point(ConfusionMatrix(), 0.0)


class TestSweepBaseline:
    def test_alert_rate_monotone_in_delta(self, calibrated_scenario):
        points = sweep_baseline(calibrated_scenario, [1.0, 4.0, 16.0], range(60))
        alerts = [p.alert_rate for p in points]
        assert alerts == sorted(alerts)
        assert all(0.0 <= p.alert_rate <= 1.0 and 0.0 <= p.safe_rate <= 1.0 for p in points)

    def test_rejects_unsorted(self, calibrated_scenario):
        with pytest.raises(ValueError):
            sweep_baseline(calibrated_scenario, [4.0, 1.0], range(5))

    @pytest.mark.parametrize(
        "deltas,message",
        [
            ([1.0, 2.0, float("inf")], "positive and finite"),
            ([1.0, float("nan")], "positive and finite"),
            ([0.0, 1.0], "positive and finite"),
            ([2.0, -1.0], "positive and finite"),
            ([1.0, 4.0, 2.0], "sorted ascending"),
        ],
    )
    def test_bad_threshold_is_refused_before_any_episode(self, calibrated_scenario,
                                                         monkeypatch, deltas, message):
        def no_batch(**kwargs):
            raise AssertionError("a batch ran before every threshold was checked")

        monkeypatch.setattr(fastpath, "batch", no_batch)
        with pytest.raises(ValueError, match=message):
            sweep_baseline(calibrated_scenario, deltas, range(5))

    def test_one_kernel_call_gives_each_thresholds_batch(self, calibrated_scenario,
                                                          monkeypatch):
        deltas, seeds = [1.0, 2.0, 2.0, 8.0, 16.0], range(30)
        expected = [soc_point(confusion(run_batch(PolicySpec.baseline(d), calibrated_scenario,
                                                  seeds), calibrated_scenario.envelope),
                              d, policy_family="baseline")
                    for d in deltas]
        calls = []
        batch = fastpath.batch
        monkeypatch.setattr(fastpath, "batch", lambda **kw: calls.append(kw) or batch(**kw))
        assert sweep_baseline(calibrated_scenario, deltas, seeds) == expected
        assert len(calls) == 1
        assert sweep_baseline(calibrated_scenario, [], seeds) == []
        assert len(calls) == 1


@pytest.mark.parametrize("backend", [
    pytest.param("c", marks=pytest.mark.skipif(fastpath.batch_compiled is None,
                                               reason="C kernel not loaded")),
    "python"])
@pytest.mark.parametrize("deltas", [(1.0, 2.0, 4.0, 8.0, 16.0), (2.0, 2.0, 8.0), (1.0, 18.0, 30.0),
                                    (1e-3,)], ids=["soc", "repeats", "step_0", "never_fires"])
def test_sweep_points_equal_the_records_path(calibrated_scenario, short_scenario, monkeypatch,
                                             backend, deltas):
    # sweep_baseline counts each block's quadrants from the summaries; the
    # records path builds one summary EpisodeRecord per seed and asks confusion.
    monkeypatch.setattr(fastpath, "batch", fastpath.batch_compiled if backend == "c"
                        else _rollout_py.batch)
    seeds = range(40)
    for scenario in (calibrated_scenario, short_scenario):
        expected = [soc_point(confusion(run_batch(PolicySpec.baseline(d), scenario, seeds),
                                        scenario.envelope), d, policy_family="baseline")
                    for d in deltas]
        assert sweep_baseline(scenario, deltas, seeds) == expected
        run_batch(PolicySpec.nominal(), scenario, seeds)  # and the same from the checkpoints
        assert sweep_baseline(scenario, deltas, seeds) == expected


class TestExitRateAndCalibration:
    def test_zero_wind_no_exits(self, demo_scenario):
        calm = demo_scenario.with_wind(1e-9, 0.0)
        assert exit_rate(calm, range(20)) == 0.0

    def test_wind_monotone_exit_rate(self, demo_scenario):
        low = exit_rate(demo_scenario.with_wind(2.0, 0.5), range(80))
        high = exit_rate(demo_scenario.with_wind(14.0, 3.5), range(80))
        assert high > low

    def test_calibration_hits_target(self, demo_scenario):
        result = calibrate_wind(demo_scenario, 0.25, range(200), tol=0.03)
        assert abs(result.exit_rate - 0.25) <= 0.03
        fresh = exit_rate(
            demo_scenario.with_wind(result.wind_sigma, result.gust_sigma), range(1000, 1200)
        )
        assert 0.15 <= fresh <= 0.35

    def test_rejects_bad_target(self, demo_scenario):
        with pytest.raises(ValueError):
            calibrate_wind(demo_scenario, 0.0, range(10))

    def test_gives_up_after_its_evaluation_budget(self, demo_scenario):
        # Three seeds give exit rates in thirds only: none lies within 0.01 of 0.25.
        with pytest.raises(RuntimeError, match="did not reach the target within 40 evaluations"):
            calibrate_wind(demo_scenario, 0.25, range(3), tol=0.01)

    def test_matched_wind_fields(self, calibrated_scenario):
        f1 = sample_wind_field(np.random.default_rng(42), calibrated_scenario.sim)
        f2 = sample_wind_field(np.random.default_rng(42), calibrated_scenario.sim)
        assert np.array_equal(f1.base, f2.base)
        assert np.array_equal(f1.gust_phases, f2.gust_phases)


class TestWeightsPolicy:
    def test_random_weights_episode_runs(self, calibrated_scenario):
        theta = random_weights(np.random.default_rng(8))
        r = run_episode(PolicySpec.weights(theta), calibrated_scenario, 11)
        assert r.outcome in (
            Verdict.COMPLETED, Verdict.EXITED, Verdict.GROUNDED, Verdict.TIMEOUT
        )
        assert np.all(np.isfinite(r.trajectory))


class TestTrainPolicy:
    @pytest.mark.parametrize(
        "alert_penalty,cfg,message",
        [
            (-1.0, LearnConfig(), "alert_penalty"),
            (float("nan"), LearnConfig(), "alert_penalty"),
            (0.05, LearnConfig(learning_rate=0.0), "learning_rate"),
            (0.05, LearnConfig(epsilon0=2.0), "epsilon0"),
        ],
    )
    def test_bad_config_is_refused_before_any_demo(self, calibrated_scenario, monkeypatch,
                                                   alert_penalty, cfg, message):
        def no_episodes(*args, **kwargs):
            raise AssertionError("a demo episode ran before the configuration was checked")

        monkeypatch.setattr(evaluation, "run_episode", no_episodes)
        with pytest.raises(ValueError, match=message):
            train_policy(calibrated_scenario, alert_penalty, cfg, range(4),
                         warmstart_episodes=2)


# Each entry point that takes wind seeds, called with one list of them.
SEEDED_CALLS = {
    "run_episode": lambda s, seeds: run_episode(PolicySpec.nominal(), s, seeds[-1]),
    "run_batch": lambda s, seeds: run_batch(PolicySpec.nominal(), s, seeds),
    "sweep_baseline": lambda s, seeds: sweep_baseline(s, [1.0, 8.0], seeds),
    "exit_rate": lambda s, seeds: exit_rate(s, seeds),
    "calibrate_wind": lambda s, seeds: calibrate_wind(s, 0.5, seeds, tol=0.5),
    "train": lambda s, seeds: train(s, s.reward, LearnConfig(episodes=len(seeds)),
                                    np.zeros((N_FEATURES, 2)), wind_seeds=seeds),
    "train_policy": lambda s, seeds: train_policy(s, 0.05, LearnConfig(episodes=2), seeds,
                                                  warmstart_episodes=1),
}


@pytest.mark.parametrize("bad", [-1, 2**64, 3.0, True, "4"], ids=repr)
@pytest.mark.parametrize("call", SEEDED_CALLS, ids=str)
def test_a_bad_seed_is_named_before_any_episode_runs(calibrated_scenario, monkeypatch, call,
                                                     bad):
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    for kernel in ("rollout", "batch", "train", "exit_counter"):
        monkeypatch.setattr(fastpath, kernel, no_episode)
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        SEEDED_CALLS[call](calibrated_scenario, [7, bad])


@pytest.mark.parametrize("call", SEEDED_CALLS, ids=str)
def test_the_largest_seed_is_accepted(calibrated_scenario, call):
    SEEDED_CALLS[call](calibrated_scenario, [2**64 - 1, 2**32])


@pytest.mark.parametrize("call", [c for c in SEEDED_CALLS if c != "run_episode"], ids=str)
def test_each_seed_is_checked_once(calibrated_scenario, monkeypatch, call):
    # The checked array goes on to the wind draws, which take it without a second look.
    looked_at = []
    is_seed = sim.is_seed
    monkeypatch.setattr(sim, "is_seed", lambda seed: looked_at.append(seed) or is_seed(seed))
    seeds = [3, 2**64 - 1, 2**32]
    SEEDED_CALLS[call](calibrated_scenario, seeds)
    assert looked_at == seeds


def test_records_carry_plain_int_seeds(calibrated_scenario):
    records = run_batch(PolicySpec.nominal(), calibrated_scenario, np.array([5, 2], np.int64))
    assert [type(r.seed) for r in records] == [int, int]
    assert [r.seed for r in records] == [5, 2]


def test_sweep_learned_refuses_overlapping_seed_lists(calibrated_scenario, monkeypatch):
    monkeypatch.setattr(evaluation, "train_policy", None)
    with pytest.raises(ValueError, match="disjoint"):
        sweep_learned(calibrated_scenario, [0.05], LearnConfig(episodes=2), range(4), [9, 3])
