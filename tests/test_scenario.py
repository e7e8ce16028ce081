import dataclasses
import json

import numpy as np
import pytest

from rtsa.scenario import (
    Scenario,
    ScenarioError,
    default_scenario,
    load_scenario,
    save_scenario,
)


class TestDefaultScenario:
    def test_valid(self):
        assert default_scenario().validate() == []

    def test_hash_stable_across_instances(self):
        assert default_scenario().hash() == default_scenario().hash()

    def test_hash_sensitive_to_content(self):
        s = default_scenario()
        assert s.hash() != s.with_wind(s.sim.wind_sigma + 1.0, s.sim.gust_sigma).hash()

    def test_feature_scales_shape(self):
        s = default_scenario()
        assert s.feature_scales.shape == (8,)
        assert np.all(s.feature_scales > 0)


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        s = default_scenario()
        p = tmp_path / "scenario.json"
        save_scenario(s, p)
        s2 = load_scenario(p)
        assert s2.to_dict() == s.to_dict()
        assert s2.hash() == s.hash()

    def test_with_wind_round_trip(self, tmp_path):
        s = default_scenario().with_wind(7.5, 1.875)
        p = tmp_path / "scenario.json"
        save_scenario(s, p)
        assert load_scenario(p).sim.wind_sigma == 7.5


class TestBundledDemo:
    def test_loads_cleanly(self, calibrated_scenario):
        assert calibrated_scenario.validate() == []

    def test_matches_calibrated_default(self, calibrated_scenario):
        assert calibrated_scenario.hash() == default_scenario().with_wind(7.5, 1.875).hash()


class TestValidationErrors:
    def dump(self, tmp_path, data):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        return p

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError):
            load_scenario(p)

    def test_waypoint_outside_names_index(self, tmp_path):
        d = default_scenario().to_dict()
        d["mission"]["waypoints"][2] = [1e6, 0.0, 12.0]
        with pytest.raises(ScenarioError) as exc:
            load_scenario(self.dump(tmp_path, d))
        assert any("waypoints[2]" in p for p in exc.value.problems)

    def test_dt_zero_reported(self, tmp_path):
        d = default_scenario().to_dict()
        d["sim"]["dt"] = 0.0
        with pytest.raises(ScenarioError) as exc:
            load_scenario(self.dump(tmp_path, d))
        assert any("dt" in p for p in exc.value.problems)

    def test_collects_multiple_problems(self, tmp_path):
        d = default_scenario().to_dict()
        d["sim"]["dt"] = 0.0
        d["mission"]["waypoints"][0] = [1e6, 0.0, 12.0]
        d["feature_scales"] = [1.0, 2.0]
        with pytest.raises(ScenarioError) as exc:
            load_scenario(self.dump(tmp_path, d))
        assert len(exc.value.problems) >= 3

    def test_negative_feature_scale(self, tmp_path):
        d = default_scenario().to_dict()
        d["feature_scales"][0] = -1.0
        with pytest.raises(ScenarioError) as exc:
            load_scenario(self.dump(tmp_path, d))
        assert any("feature_scales" in p for p in exc.value.problems)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("sim", "dt", float("nan")),
            ("sim", "dt", float("inf")),
            ("sim", "dt", "0.05"),
            ("sim", "a_max", float("inf")),
            ("sim", "cruise_speed", float("nan")),
            ("sim", "lookahead", float("inf")),
            ("sim", "air_drag", float("nan")),
            ("sim", "parachute_drag_z", float("inf")),
            ("sim", "parachute_drag_xy", float("nan")),
            ("sim", "wind_sigma", float("nan")),
            ("sim", "gust_sigma", float("inf")),
            ("sim", "max_steps", 2400.5),
            ("sim", "max_steps", 1e9),
            ("sim", "max_steps", 10**9),
            ("sim", "max_steps", "2400"),
            ("sim", "max_steps", True),
            ("mission", "arrival_radius", float("nan")),
            ("mission", "arrival_radius", float("inf")),
            ("reward", "alert_penalty", float("inf")),
            ("reward", "alert_penalty", "0.05"),
        ],
    )
    def test_non_finite_or_out_of_range_field_reported(self, tmp_path, section, key, value):
        # These must never reach the kernels: a NaN step, a C int overflow or
        # a multi-gigabyte trajectory buffer.
        d = default_scenario().to_dict()
        d[section][key] = value
        with pytest.raises(ScenarioError) as exc:
            load_scenario(self.dump(tmp_path, d))
        assert any(key in p for p in exc.value.problems)

    @pytest.mark.parametrize("bad", [float("nan"), "a"], ids=["nan", "string"])
    def test_non_finite_feature_scale(self, tmp_path, bad):
        d = default_scenario().to_dict()
        d["feature_scales"][3] = bad
        with pytest.raises(ScenarioError) as exc:
            load_scenario(self.dump(tmp_path, d))
        assert any("feature_scales" in p for p in exc.value.problems)

    @pytest.mark.parametrize(
        "path,value,problem",
        [
            (("sim", "dt"), 10**400, "sim.dt must be finite"),
            (("sim", "wind_sigma"), -10**400, "sim.wind_sigma must be finite"),
            (("envelope", "min_corner", 0), -10**400, "envelope:"),
            (("envelope", "max_corner", 2), 10**400, "envelope:"),
            (("mission", "waypoints", 1, 0), 10**400, "mission:"),
            (("mission", "arrival_radius"), 10**400, "mission:"),
            (("feature_scales", 0), 10**400, "feature_scales:"),
        ],
        ids=["dt", "wind_sigma", "env_min", "env_max", "waypoint", "arrival_radius", "scale"],
    )
    def test_integer_too_large_for_a_float_reported(self, tmp_path, path, value, problem):
        # json reads such a number as an int that no float holds.
        d = default_scenario().to_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioError) as exc:
            load_scenario(self.dump(tmp_path, d))
        assert any(p.startswith(problem) for p in exc.value.problems)

    def test_direct_validate_reports_bad_discount(self):
        s = default_scenario()
        bad = dataclasses.replace(s, reward=dataclasses.replace(s.reward, discount=1.5))
        assert any("discount" in p for p in bad.validate())
