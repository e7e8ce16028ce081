import math

import numpy as np
import pytest

from rtsa.geometry import Envelope, Mission, build_path
from rtsa.sim import (
    GRAVITY,
    ControlInput,
    SimConfig,
    VehicleState,
    Verdict,
    WindField,
    episode_terminated,
    nominal_control,
    recovery_control,
    sample_wind_field,
    step,
    wind_at,
    wind_draws,
    wind_rows,
)


def calm_field():
    return WindField(
        base=np.zeros(3),
        gust_amplitude=np.zeros(3),
        gust_frequencies=np.zeros(3),
        gust_phases=np.zeros(3),
    )


class TestSimConfig:
    def test_defaults_valid(self):
        assert SimConfig().validate() == []

    def test_collects_problems(self):
        problems = SimConfig(dt=0.0, max_steps=0, air_drag=-1.0).validate()
        assert len(problems) == 3


class TestSampleWindField:
    def test_zero_sigma_zero_mean_is_calm(self):
        cfg = SimConfig(wind_mean_x=0.0, wind_mean_y=0.0, wind_sigma=0.0, gust_sigma=0.0)
        field = sample_wind_field(np.random.default_rng(0), cfg)
        assert np.allclose(field.base, 0.0)
        assert np.allclose(field.gust_amplitude, 0.0)

    def test_same_seed_same_field(self):
        cfg = SimConfig()
        f1 = sample_wind_field(np.random.default_rng(42), cfg)
        f2 = sample_wind_field(np.random.default_rng(42), cfg)
        assert np.array_equal(f1.base, f2.base)
        assert np.array_equal(f1.gust_amplitude, f2.gust_amplitude)
        assert np.array_equal(f1.gust_frequencies, f2.gust_frequencies)
        assert np.array_equal(f1.gust_phases, f2.gust_phases)

    def test_base_statistics(self):
        cfg = SimConfig(wind_mean_x=6.0, wind_mean_y=3.0, wind_sigma=7.5)
        rng = np.random.default_rng(3)
        xs = np.array([sample_wind_field(rng, cfg).base[0] for _ in range(10_000)])
        assert np.std(xs) == pytest.approx(cfg.wind_sigma, rel=0.05)
        assert np.mean(xs) == pytest.approx(cfg.wind_mean_x, abs=0.3)

    def test_vertical_base_is_zero(self):
        field = sample_wind_field(np.random.default_rng(5), SimConfig())
        assert field.base[2] == 0.0


def scalar_wind_params(rng, cfg):
    """A wind field drawn scalar by scalar with numpy's own normal and uniform
    draws, in kernel order: the reference the wind table must reproduce."""
    base = [cfg.wind_mean_x + cfg.wind_sigma * rng.standard_normal(),
            cfg.wind_mean_y + cfg.wind_sigma * rng.standard_normal()]
    per_axis = [(rng.uniform(0.0, 2.0 * cfg.gust_sigma), rng.uniform(0.05, 0.5),
                 rng.uniform(0.0, 2.0 * math.pi)) for _axis in range(2)]
    return np.array(base + [v for column in zip(*per_axis) for v in column])


class TestWindTable:
    SEEDS = [*range(300), 2**31 - 1, 987_654_321]

    @pytest.mark.parametrize(
        "sigmas",
        [(8.0, 2.0), (0.0, 2.0), (8.0, 0.0), (0.0, 0.0), (13.37, 3.3425), (1e-9, 2.5e-10),
         "calibrated"],
    )
    def test_rows_equal_sampled_fields_bit_for_bit(self, calibrated_scenario, sigmas):
        if sigmas == "calibrated":
            cfg = calibrated_scenario.sim
        else:
            cfg = SimConfig(wind_sigma=sigmas[0], gust_sigma=sigmas[1])
        rows = wind_rows(wind_draws(self.SEEDS), cfg)
        assert rows.shape == (len(self.SEEDS), 8)
        for seed, row in zip(self.SEEDS, rows):
            field = sample_wind_field(np.random.default_rng(seed), cfg)
            # The field's values in kernel wind order.
            field_row = np.array([field.base[0], field.base[1], field.gust_amplitude[0],
                                  field.gust_amplitude[1], field.gust_frequencies[0],
                                  field.gust_frequencies[1], field.gust_phases[0],
                                  field.gust_phases[1]])
            assert row.tobytes() == field_row.tobytes()
            assert row.tobytes() == scalar_wind_params(np.random.default_rng(seed), cfg).tobytes()

    def test_sampling_draws_as_much_as_the_scalar_draws(self):
        # A generator passed on after sample_wind_field must be where the
        # scalar draws would have left it.
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        sample_wind_field(rng, SimConfig())
        scalar_wind_params(ref, SimConfig())
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_empty_seed_list(self):
        assert wind_rows(wind_draws([]), SimConfig()).shape == (0, 8)


class TestWindAt:
    def test_zero_amplitude_returns_base(self):
        field = WindField(
            base=[3.0, -1.0, 0.0],
            gust_amplitude=np.zeros(3),
            gust_frequencies=np.zeros(3),
            gust_phases=np.zeros(3),
        )
        assert np.allclose(wind_at(field, [0, 0, 0], 7.3), [3.0, -1.0, 0.0])

    def test_sin_zero_crossing(self):
        field = WindField(
            base=[1.0, 0.0, 0.0],
            gust_amplitude=[2.0, 0.0, 0.0],
            gust_frequencies=[0.5, 0.0, 0.0],
            gust_phases=[0.0, 0.0, 0.0],
        )
        assert np.allclose(wind_at(field, [0, 0, 0], 2.0 * math.pi / 0.5), [1.0, 0.0, 0.0])

    def test_vertical_component_always_zero(self):
        rng = np.random.default_rng(6)
        field = sample_wind_field(rng, SimConfig())
        for t in rng.uniform(0.0, 100.0, size=50):
            assert wind_at(field, rng.normal(size=3), t)[2] == 0.0


class TestNominalControl:
    def test_points_along_straight_path_from_rest(self, calm_scenario):
        path = build_path(calm_scenario.mission)
        s = VehicleState(position=calm_scenario.mission.waypoints[0], velocity=np.zeros(3))
        u = nominal_control(s, path, np.zeros(3), calm_scenario.sim)
        assert not u.parachute
        direction = u.commanded_acceleration / np.linalg.norm(u.commanded_acceleration)
        assert np.allclose(direction, [1.0, 0.0, 0.0], atol=1e-9)

    def test_near_zero_at_path_end_with_matched_velocity(self):
        m = Mission(waypoints=[[0, 0, 1], [10, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        cfg = SimConfig()
        s = VehicleState(position=[10.0, 0.0, 0.0], velocity=np.zeros(3))
        u = nominal_control(s, path, np.zeros(3), cfg)
        assert np.linalg.norm(u.commanded_acceleration) < 1e-6

    def test_command_clamped_to_a_max(self):
        m = Mission(waypoints=[[0, 0, 1], [10, 0, 0]], arrival_radius=1.0)
        path = build_path(m)
        cfg = SimConfig()
        rng = np.random.default_rng(11)
        for _ in range(1000):
            s = VehicleState(position=rng.uniform(-50, 50, 3), velocity=rng.uniform(-30, 30, 3))
            u = nominal_control(s, path, np.zeros(3), cfg)
            assert np.linalg.norm(u.commanded_acceleration) <= cfg.a_max + 1e-9


class TestRecoveryControl:
    def test_rotors_off_parachute_out(self):
        s = VehicleState(position=[1.0, 2.0, 3.0], velocity=[4.0, 5.0, 6.0])
        u = recovery_control(s)
        assert u.parachute
        assert np.allclose(u.commanded_acceleration, 0.0)

    def test_state_independent(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            s = VehicleState(position=rng.normal(size=3), velocity=rng.normal(size=3))
            u = recovery_control(s)
            assert u.parachute and np.allclose(u.commanded_acceleration, 0.0)


class TestStep:
    def test_hover_is_fixed_point(self):
        cfg = SimConfig()
        s = VehicleState(position=[0.0, 0.0, 10.0], velocity=np.zeros(3))
        u = ControlInput(commanded_acceleration=np.zeros(3), parachute=False)
        s2 = step(s, u, calm_field(), cfg)
        assert np.allclose(s2.position, s.position)
        assert np.allclose(s2.velocity, 0.0)
        assert s2.time == pytest.approx(cfg.dt)

    def test_parachute_terminal_velocity(self):
        cfg = SimConfig()
        s = VehicleState(position=[0.0, 0.0, 500.0], velocity=np.zeros(3), deployed=True)
        u = ControlInput(commanded_acceleration=np.zeros(3), parachute=True)
        horizon = 10.0 / cfg.parachute_drag_z
        for _ in range(int(horizon / cfg.dt)):
            s = step(s, u, calm_field(), cfg)
        v_term = GRAVITY / cfg.parachute_drag_z
        assert -s.velocity[2] == pytest.approx(v_term, rel=0.01)

    def test_ground_clamp(self):
        cfg = SimConfig()
        s = VehicleState(position=[0.0, 0.0, 0.1], velocity=[0.0, 0.0, -10.0], deployed=True)
        u = ControlInput(commanded_acceleration=np.zeros(3), parachute=True)
        s2 = step(s, u, calm_field(), cfg)
        assert s2.position[2] == 0.0
        assert np.allclose(s2.velocity, 0.0)

    def test_deployed_latch_propagates(self):
        cfg = SimConfig()
        s = VehicleState(position=[0.0, 0.0, 10.0], velocity=np.zeros(3))
        s2 = step(s, ControlInput(np.zeros(3), parachute=True), calm_field(), cfg)
        assert s2.deployed
        # Even with a non-parachute control input the latch must hold.
        s3 = step(s2, ControlInput(np.zeros(3), parachute=False), calm_field(), cfg)
        assert s3.deployed

    def test_determinism(self):
        cfg = SimConfig()
        field = sample_wind_field(np.random.default_rng(17), cfg)
        s = VehicleState(position=[1.0, 2.0, 10.0], velocity=[0.5, -0.5, 0.0])
        u = ControlInput(commanded_acceleration=[1.0, 0.0, 0.0], parachute=False)
        a = step(s, u, field, cfg)
        b = step(s, u, field, cfg)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)

    def test_horizontal_energy_dissipation(self):
        cfg = SimConfig(parachute_drag_xy=0.3)
        s = VehicleState(position=[0.0, 0.0, 300.0], velocity=[2.0, -1.0, -3.0], deployed=True)
        u = ControlInput(commanded_acceleration=np.zeros(3), parachute=True)
        prev = float(s.velocity[:2] @ s.velocity[:2])
        for _ in range(200):
            s = step(s, u, calm_field(), cfg)
            horizontal = float(s.velocity[:2] @ s.velocity[:2])
            assert horizontal <= prev + 1e-9
            prev = horizontal


class TestEpisodeTerminated:
    def make(self):
        env = Envelope(min_corner=[-10, -10, -2], max_corner=[10, 10, 20])
        mission = Mission(waypoints=[[0, 0, 5], [5, 0, 0]], arrival_radius=1.0)
        return env, mission, SimConfig(max_steps=100)

    def test_exited(self):
        env, mission, cfg = self.make()
        s = VehicleState(position=[11.0, 0.0, 5.0], velocity=np.zeros(3))
        assert episode_terminated(s, env, mission, 1, cfg) == Verdict.EXITED

    def test_completed(self):
        env, mission, cfg = self.make()
        s = VehicleState(position=[5.0, 0.0, 0.5], velocity=np.zeros(3))
        assert episode_terminated(s, env, mission, 1, cfg) == Verdict.COMPLETED

    def test_grounded(self):
        env, mission, cfg = self.make()
        s = VehicleState(position=[2.0, 2.0, 0.0], velocity=np.zeros(3), deployed=True)
        assert episode_terminated(s, env, mission, 1, cfg) == Verdict.GROUNDED

    def test_timeout(self):
        env, mission, cfg = self.make()
        s = VehicleState(position=[0.0, 0.0, 5.0], velocity=np.zeros(3))
        assert episode_terminated(s, env, mission, 100, cfg) == Verdict.TIMEOUT

    def test_running(self):
        env, mission, cfg = self.make()
        s = VehicleState(position=[0.0, 0.0, 5.0], velocity=np.zeros(3))
        assert episode_terminated(s, env, mission, 1, cfg) == Verdict.RUNNING

    def test_exited_beats_completed(self):
        env, mission, cfg = self.make()
        # Within arrival radius of the last waypoint but outside the envelope.
        mission2 = Mission(waypoints=[[0, 0, 5], [9.8, 0, 0]], arrival_radius=1.0)
        s = VehicleState(position=[10.5, 0.0, 0.2], velocity=np.zeros(3))
        assert episode_terminated(s, env, mission2, 1, cfg) == Verdict.EXITED

    def test_deployed_blocks_completed(self):
        env, mission, cfg = self.make()
        s = VehicleState(position=[5.0, 0.0, 0.5], velocity=np.zeros(3), deployed=True)
        assert episode_terminated(s, env, mission, 1, cfg) == Verdict.RUNNING
