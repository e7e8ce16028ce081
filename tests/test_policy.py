import json

import numpy as np
import pytest

from rtsa.geometry import Envelope, build_path
from rtsa.policy import (
    N_FEATURES,
    Action,
    RewardConfig,
    compose_controller,
    extract_features,
    greedy_action,
    load_weights,
    q_values,
    random_weights,
    reward,
    rtsa_action,
    save_weights,
)
from rtsa.sim import SimConfig, VehicleState


UNIT_SCALES = np.ones(8)


def make_state(position, velocity=(0.0, 0.0, 0.0), deployed=False):
    return VehicleState(position=np.asarray(position, float),
                        velocity=np.asarray(velocity, float),
                        deployed=deployed)


class TestRewardConfig:
    def test_defaults_valid(self):
        assert RewardConfig().validate() == []

    def test_exit_penalty_fixed(self):
        assert RewardConfig(exit_penalty=2.0).validate() != []

    def test_discount_range(self):
        assert RewardConfig(discount=1.0).validate() != []
        assert RewardConfig(discount=0.0).validate() != []


class TestExtractFeatures:
    def test_center_of_unit_cube(self, unit_cube):
        s = make_state([0.5, 0.5, 0.5])
        phi = extract_features(s, unit_cube, np.zeros(3), UNIT_SCALES)
        assert np.allclose(phi, [0.5, 0.5, 0.5, 0, 0, 0, 0, 0, 0])

    def test_deployment_indicator(self, unit_cube):
        s = make_state([0.5, 0.5, 0.5], deployed=True)
        phi = extract_features(s, unit_cube, np.zeros(3), UNIT_SCALES)
        assert phi[8] == 1.0

    def test_scale_linearity(self, unit_cube):
        s = make_state([0.3, 0.5, 0.5], velocity=[1.0, -2.0, 0.5])
        wind = np.array([3.0, -1.0, 0.0])
        phi1 = extract_features(s, unit_cube, wind, UNIT_SCALES)
        phi2 = extract_features(s, unit_cube, wind, 2.0 * UNIT_SCALES)
        assert np.allclose(phi2[:8], 0.5 * phi1[:8])
        assert phi2[8] == phi1[8]

    def test_length_and_finite(self, unit_cube):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = make_state(rng.normal(size=3), rng.normal(size=3), bool(rng.integers(2)))
            phi = extract_features(s, unit_cube, rng.normal(size=3), UNIT_SCALES)
            assert phi.shape == (N_FEATURES,)
            assert np.all(np.isfinite(phi))
            assert phi[8] in (0.0, 1.0)


class TestQValuesAndGreedy:
    def test_zero_weights(self):
        phi = np.ones(N_FEATURES)
        assert q_values(np.zeros((N_FEATURES, 2)), phi) == (0.0, 0.0)

    def test_indicator_column(self, unit_cube):
        theta = np.zeros((N_FEATURES, 2))
        theta[8, Action.DEPLOY] = 1.0
        s = make_state([0.5, 0.5, 0.5], deployed=True)
        phi = extract_features(s, unit_cube, np.zeros(3), UNIT_SCALES)
        assert q_values(theta, phi)[1] == pytest.approx(1.0)

    def test_matches_independent_dot_product(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            theta = rng.normal(size=(N_FEATURES, 2))
            phi = rng.normal(size=N_FEATURES)
            qc, qd = q_values(theta, phi)
            assert qc == pytest.approx(sum(theta[i, 0] * phi[i] for i in range(N_FEATURES)), abs=1e-12)
            assert qd == pytest.approx(sum(theta[i, 1] * phi[i] for i in range(N_FEATURES)), abs=1e-12)

    def test_greedy_picks_larger(self):
        phi = np.ones(N_FEATURES)
        theta = np.zeros((N_FEATURES, 2))
        theta[0, 0] = 1.0
        assert greedy_action(theta, phi) == Action.CONTINUE
        theta[0, 1] = 2.0
        assert greedy_action(theta, phi) == Action.DEPLOY

    def test_tie_goes_to_continue(self):
        phi = np.ones(N_FEATURES)
        theta = np.ones((N_FEATURES, 2))
        assert greedy_action(theta, phi) == Action.CONTINUE

    def test_argmax_scale_invariance(self, unit_cube):
        rng = np.random.default_rng(2)
        for _ in range(200):
            theta = rng.normal(size=(N_FEATURES, 2))
            phi = rng.normal(size=N_FEATURES)
            a = greedy_action(theta, phi)
            for c in (0.5, 3.0, 117.0):
                assert greedy_action(c * theta, phi) == a


class TestRtsaAction:
    def test_latch(self, unit_cube):
        rng = np.random.default_rng(3)
        s = make_state([0.5, 0.5, 0.5], deployed=True)
        for _ in range(20):
            theta = rng.normal(size=(N_FEATURES, 2))
            assert rtsa_action(theta, s, unit_cube, np.zeros(3), UNIT_SCALES) == Action.DEPLOY

    def test_zero_weights_continue(self, unit_cube):
        s = make_state([0.5, 0.5, 0.5])
        theta = np.zeros((N_FEATURES, 2))
        assert rtsa_action(theta, s, unit_cube, np.zeros(3), UNIT_SCALES) == Action.CONTINUE

    def test_constructed_deploy_region(self, unit_cube):
        # Deploy column rewards small x-distance: near the x- face the
        # continue column (constant zero) loses.
        theta = np.zeros((N_FEATURES, 2))
        theta[0, Action.DEPLOY] = -1.0
        theta[8, Action.DEPLOY] = 0.0
        s = make_state([0.05, 0.5, 0.5])
        phi = extract_features(s, unit_cube, np.zeros(3), UNIT_SCALES)
        assert q_values(theta, phi)[1] == pytest.approx(-0.05)
        theta[1, Action.DEPLOY] = 0.2
        assert rtsa_action(theta, s, unit_cube, np.zeros(3), UNIT_SCALES) == Action.DEPLOY


class TestReward:
    def setup_method(self):
        self.env = Envelope(min_corner=[0, 0, 0], max_corner=[10, 10, 10])
        self.rc = RewardConfig(alert_penalty=0.3)

    def test_interior_continue(self):
        r = reward(make_state([5, 5, 5]), Action.CONTINUE, make_state([5, 5, 6]), self.env, self.rc)
        assert r == 0.0

    def test_first_deploy_charged(self):
        r = reward(make_state([5, 5, 5]), Action.DEPLOY, make_state([5, 5, 6]), self.env, self.rc)
        assert r == -0.3

    def test_already_deployed_not_recharged(self):
        r = reward(make_state([5, 5, 5], deployed=True), Action.DEPLOY,
                   make_state([5, 5, 6], deployed=True), self.env, self.rc)
        assert r == 0.0

    def test_exit_penalty(self):
        r = reward(make_state([5, 5, 5]), Action.CONTINUE, make_state([11, 5, 5]), self.env, self.rc)
        assert r == -1.0

    def test_exit_dominates_deploy(self):
        r = reward(make_state([5, 5, 5]), Action.DEPLOY, make_state([11, 5, 5]), self.env, self.rc)
        assert r == -1.0

    def test_value_set(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(2000):
            s = make_state(rng.uniform(-2, 12, 3), deployed=bool(rng.integers(2)))
            s2 = make_state(rng.uniform(-2, 12, 3), deployed=s.deployed or bool(rng.integers(2)))
            a = Action(int(rng.integers(2)))
            r = reward(s, a, s2, self.env, self.rc)
            assert r in (0.0, -0.3, -1.0)
            seen.add(r)
        assert seen == {0.0, -0.3, -1.0}


class TestComposeController:
    def test_continue_uses_nominal(self, calm_scenario):
        path = build_path(calm_scenario.mission)
        s = make_state(calm_scenario.mission.waypoints[0])
        u = compose_controller(Action.CONTINUE, s, path, np.zeros(3), calm_scenario.sim)
        assert not u.parachute

    def test_deploy_uses_recovery(self, calm_scenario):
        path = build_path(calm_scenario.mission)
        s = make_state(calm_scenario.mission.waypoints[0])
        u = compose_controller(Action.DEPLOY, s, path, np.zeros(3), calm_scenario.sim)
        assert u.parachute
        assert np.allclose(u.commanded_acceleration, 0.0)


class TestWeightSerialization:
    def test_round_trip(self, tmp_path):
        theta = random_weights(np.random.default_rng(6))
        path = tmp_path / "w.json"
        save_weights(theta, path)
        assert np.array_equal(load_weights(path), theta)

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_weights(np.zeros((3, 3)), tmp_path / "bad.json")

    def test_rejects_wrong_length_file(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"order": "x", "weights": [1, 2, 3]}')
        with pytest.raises(ValueError):
            load_weights(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weights(self, tmp_path, bad):
        theta = random_weights(np.random.default_rng(7))
        theta[4, 1] = bad
        path = tmp_path / "bad.json"
        # Python's json writes NaN/Infinity tokens; save_weights refuses to.
        path.write_text(json.dumps({"order": "x", "weights": theta.ravel().tolist()}))
        with pytest.raises(ValueError, match="non-finite"):
            load_weights(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_save_refuses_non_finite_weights(self, tmp_path, bad):
        theta = random_weights(np.random.default_rng(7))
        theta[4, 1] = bad
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="non-finite"):
            save_weights(theta, path)
        assert not path.exists()
