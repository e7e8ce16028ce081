import json

import numpy as np
import pytest

from rtsa import cli, fastpath
from rtsa.cli import CliError, _parse_policy, _parse_seed_range, main
from rtsa.policy import load_weights, random_weights, save_weights
from rtsa.scenario import default_scenario, save_scenario


@pytest.fixture
def scenario_path(tmp_path, calibrated_scenario):
    p = tmp_path / "scenario.json"
    save_scenario(calibrated_scenario, p)
    return str(p)


class TestParsers:
    def test_policy_grammar(self, tmp_path):
        assert _parse_policy("nominal").kind == "nominal"
        assert _parse_policy("baseline:4.5").delta == 4.5
        wpath = tmp_path / "w.json"
        save_weights(random_weights(np.random.default_rng(0)), wpath)
        assert _parse_policy(f"weights:{wpath}").kind == "weights"

    def test_policy_errors(self):
        with pytest.raises(CliError):
            _parse_policy("bogus")
        with pytest.raises(CliError):
            _parse_policy("baseline:zero")
        # A missing file is an OSError, which main maps to exit 2.
        with pytest.raises(FileNotFoundError):
            _parse_policy("weights:/nonexistent/file.json")

    def test_seed_range(self):
        assert _parse_seed_range("--seeds", "3..6") == [3, 4, 5]
        with pytest.raises(CliError, match="--seeds"):
            _parse_seed_range("--seeds", "6..3")
        with pytest.raises(CliError, match="--seeds"):
            _parse_seed_range("--seeds", "abc")


class TestRun:
    def test_smoke_and_trace(self, scenario_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = main(["run", "--scenario", scenario_path, "--policy", "baseline:8",
                   "--seed", "3", "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy=baseline:8" in out
        first = trace.read_text().splitlines()[0]
        assert first.startswith("# scenario_hash=")

    def test_trace_reproducible_byte_for_byte(self, scenario_path, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for t in (t1, t2):
            assert main(["run", "--scenario", scenario_path, "--policy", "nominal",
                         "--seed", "5", "--trace", str(t)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_missing_scenario_exits_2(self, capsys):
        rc = main(["run", "--scenario", "/nonexistent.json", "--policy", "nominal",
                   "--seed", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bundled_default_scenario(self, capsys):
        assert main(["run", "--policy", "nominal", "--seed", "1"]) == 0
        assert "outcome=" in capsys.readouterr().out


class TestEvaluate:
    def test_confusion_csv(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "cm.csv"
        rc = main(["evaluate", "--scenario", scenario_path, "--policy", "baseline:4",
                   "--seeds", "0..20", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "policy"
        counts = [int(x) for x in lines[2].split(",")[3:]]
        assert sum(counts) == 20

    def test_bad_seed_range_exits_2(self, scenario_path, capsys):
        rc = main(["evaluate", "--scenario", scenario_path, "--policy", "nominal",
                   "--seeds", "5..5"])
        assert rc == 2

    @pytest.mark.parametrize("delta", ["nan", "inf", "0"])
    def test_non_finite_baseline_delta_exits_2(self, scenario_path, tmp_path, capsys, delta):
        out = tmp_path / "cm.csv"
        rc = main(["evaluate", "--scenario", scenario_path, "--policy", f"baseline:{delta}",
                   "--seeds", "0..50", "--out", str(out)])
        assert rc == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestWarmstartAndTrain:
    def test_pipeline(self, scenario_path, tmp_path, capsys):
        w0 = tmp_path / "w0.json"
        rc = main(["warmstart", "--scenario", scenario_path, "--delta", "16",
                   "--episodes", "20", "--seed", "0", "--out", str(w0)])
        assert rc == 0
        theta0 = load_weights(w0)
        assert theta0.shape == (9, 2)
        assert np.any(theta0 != 0)

        w1 = tmp_path / "w1.json"
        log = tmp_path / "log.csv"
        rc = main(["train", "--scenario", scenario_path, "--init", str(w0),
                   "--alert-penalty", "0.05", "--episodes", "5", "--seed", "1",
                   "--out", str(w1), "--log", str(log)])
        assert rc == 0
        assert load_weights(w1).shape == (9, 2)
        lines = log.read_text().splitlines()
        assert lines[0].startswith("# scenario_hash=")
        assert lines[1] == ("episode,return,outcome,deploy_step,epsilon,steps,deploy_greedy,"
                            "max_abs_td_error,theta_norm")
        assert len(lines) == 2 + 5  # comment + header + one row per episode
        for line in lines[2:]:
            row = dict(zip(lines[1].split(","), line.split(",")))
            assert int(row["steps"]) >= 1
            assert (row["deploy_greedy"] == "") == (row["deploy_step"] == "")
            assert float(row["max_abs_td_error"]) >= 0.0
            assert float(row["theta_norm"]) > 0.0  # warm-started weights

    def test_train_diverging_learning_rate_exits_2(self, scenario_path, tmp_path, capsys):
        w0 = tmp_path / "w0.json"
        save_weights(np.zeros((9, 2)), w0)
        with pytest.warns(UserWarning, match="learning_rate"):
            rc = main(["train", "--scenario", scenario_path, "--init", str(w0),
                       "--alert-penalty", "0.05", "--episodes", "5", "--seed", "0",
                       "--learning-rate", "1e6", "--out", str(tmp_path / "w1.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "Traceback" not in err
        assert not (tmp_path / "w1.json").exists()

    def test_non_finite_weights_exit_2(self, scenario_path, tmp_path, capsys):
        theta = np.zeros((9, 2))
        theta[0, 0] = float("nan")
        w = tmp_path / "nan.json"
        # save_weights refuses NaN, so write the file the way another tool might.
        w.write_text(json.dumps({"order": "x", "weights": theta.ravel().tolist()}))
        rc = main(["evaluate", "--scenario", scenario_path, "--policy", f"weights:{w}",
                   "--seeds", "0..2"])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        rc = main(["train", "--scenario", scenario_path, "--init", str(w),
                   "--alert-penalty", "0.05", "--episodes", "1", "--seed", "0",
                   "--out", str(tmp_path / "unused.json")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    def test_train_bad_learning_rate_exits_2(self, scenario_path, tmp_path, capsys):
        w0 = tmp_path / "w0.json"
        save_weights(np.zeros((9, 2)), w0)
        out = tmp_path / "w1.json"
        rc = main(["train", "--scenario", scenario_path, "--init", str(w0),
                   "--alert-penalty", "0.05", "--episodes", "1", "--seed", "0",
                   "--learning-rate", "-1", "--out", str(out)])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_train_seed_without_room_for_its_wind_seeds_exits_2(self, scenario_path, tmp_path,
                                                               capsys):
        # The default wind seeds run from --seed to --seed + --episodes - 1.
        w0 = tmp_path / "w0.json"
        save_weights(np.zeros((9, 2)), w0)
        out = tmp_path / "w1.json"
        rc = main(["train", "--scenario", scenario_path, "--init", str(w0),
                   "--alert-penalty", "0.05", "--episodes", "2",
                   "--seed", str(2**64 - 1), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "learn.seed" in err and str(2**64) not in err
        assert not out.exists()

    def test_warmstart_negative_passes_exits_2(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "w0.json"
        rc = main(["warmstart", "--scenario", scenario_path, "--delta", "16",
                   "--episodes", "2", "--seed", "0", "--passes", "-3", "--out", str(out)])
        assert rc == 2
        assert "counts must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_warmstart_nan_learning_rate_exits_2_before_any_demo(self, scenario_path, tmp_path,
                                                                  capsys, monkeypatch):
        monkeypatch.setattr(fastpath, "train", lambda *a, **k: pytest.fail("ran the demos"))
        out = tmp_path / "w0.json"
        rc = main(["warmstart", "--scenario", scenario_path, "--delta", "16",
                   "--episodes", "2", "--seed", "0", "--learning-rate", "nan",
                   "--out", str(out)])
        assert rc == 2
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("penalty", ["-1", "0", "nan"])
    def test_train_bad_alert_penalty_exits_2(self, scenario_path, tmp_path, capsys, penalty):
        w0 = tmp_path / "w0.json"
        save_weights(np.zeros((9, 2)), w0)
        out = tmp_path / "w1.json"
        rc = main(["train", "--scenario", scenario_path, "--init", str(w0),
                   "--alert-penalty", penalty, "--episodes", "1", "--seed", "0",
                   "--out", str(out)])
        assert rc == 2
        assert "alert_penalty must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_train_missing_init_exits_2(self, scenario_path, capsys):
        rc = main(["train", "--scenario", scenario_path, "--init", "/nope.json",
                   "--alert-penalty", "0.05", "--episodes", "1", "--seed", "0",
                   "--out", "/tmp/unused.json"])
        assert rc == 2


class TestSoc:
    def test_overlapping_seed_ranges_exit_2(self, scenario_path, tmp_path, capsys):
        rc = main(["soc", "--scenario", scenario_path, "--train-seeds", "0..10",
                   "--eval-seeds", "5..15", "--seed", "0", "--out",
                   str(tmp_path / "soc.csv")])
        assert rc == 2
        assert "overlap" in capsys.readouterr().err

    def test_bad_learning_rate_exits_2(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "soc.csv"
        rc = main(["soc", "--scenario", scenario_path, "--train-seeds", "0..10",
                   "--eval-seeds", "20..30", "--seed", "0", "--learning-rate", "0",
                   "--out", str(out)])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--baseline-deltas", "4,nan", "positive and finite"),
            ("--baseline-deltas", "inf", "positive and finite"),
            ("--alert-penalties", "-1", "alert_penalty must be positive and finite"),
            ("--alert-penalties", "0.05,0", "alert_penalty must be positive and finite"),
        ],
    )
    def test_bad_delta_or_penalty_exits_2(self, scenario_path, tmp_path, capsys, monkeypatch,
                                          option, value, message):
        # Refused before the nominal run, the first episode batch of a sweep.
        def no_episodes(*args, **kwargs):
            raise AssertionError("an episode batch ran before the arguments were checked")

        monkeypatch.setattr(cli, "run_batch", no_episodes)
        out = tmp_path / "soc.csv"
        rc = main(["soc", "--scenario", scenario_path, "--train-seeds", "0..10",
                   "--eval-seeds", "20..30", "--seed", "0", "--episodes", "2",
                   option, value, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_sweep(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "soc.csv"
        rc = main(["soc", "--scenario", scenario_path,
                   "--baseline-deltas", "4,8", "--alert-penalties", "0.05",
                   "--train-seeds", "0..30", "--eval-seeds", "100..130",
                   "--seed", "0", "--episodes", "10", "--out", str(out),
                   "--weights-prefix", str(tmp_path / "w_")])
        assert rc == 0
        lines = out.read_text().splitlines()
        # comment + header + nominal + 2 baseline + 1 learned
        assert len(lines) == 6
        families = [ln.split(",")[0] for ln in lines[2:]]
        assert families == ["nominal", "baseline", "baseline", "learned"]
        assert (tmp_path / "w_0.05.json").exists()
        for ln in lines[2:]:
            alert, safe = map(float, ln.split(",")[3:5])
            assert 0.0 <= alert <= 1.0 and 0.0 <= safe <= 1.0


class TestCalibrate:
    def test_writes_calibrated_scenario(self, tmp_path, capsys):
        src = tmp_path / "demo.json"
        save_scenario(default_scenario(), src)
        out = tmp_path / "calibrated.json"
        rc = main(["calibrate", "--scenario", str(src), "--target", "0.25",
                   "--episodes", "120", "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert "calibrated wind_sigma=" in capsys.readouterr().out
        assert out.exists()


def assert_exit_2(argv, capsys, message="error:"):
    """``main(argv)`` returns 2 with one error line naming ``message`` and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


class TestBadInputExits2:
    # Each of these input files used to end in a traceback and exit 1.
    @pytest.fixture
    def weights_without_key(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"order": "x", "theta": [0.0] * 18}))
        return str(path)

    def test_weights_file_without_weights_key_on_run(self, weights_without_key, scenario_path,
                                                     capsys):
        assert_exit_2(["run", "--scenario", scenario_path, "--policy",
                       f"weights:{weights_without_key}", "--seed", "0"], capsys, "weights")

    def test_weights_file_without_weights_key_on_train_init(self, weights_without_key,
                                                            scenario_path, tmp_path, capsys):
        out = tmp_path / "w1.json"
        assert_exit_2(["train", "--scenario", scenario_path, "--init", weights_without_key,
                       "--alert-penalty", "0.05", "--episodes", "1", "--seed", "0",
                       "--out", str(out)], capsys, "weights")
        assert not out.exists()

    def test_weights_file_holding_a_list(self, scenario_path, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps([0.0] * 18))
        assert_exit_2(["evaluate", "--scenario", scenario_path, "--policy", f"weights:{path}",
                       "--seeds", "0..2"], capsys, "JSON object")

    @pytest.mark.parametrize("weight", [{}, [0.0], 10**400], ids=["object", "list", "huge"])
    def test_weights_file_holding_a_non_number(self, scenario_path, tmp_path, capsys, weight):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"weights": [weight] + [0.0] * 17}))
        assert_exit_2(["evaluate", "--scenario", scenario_path, "--policy", f"weights:{path}",
                       "--seeds", "0..2"], capsys, "weight")

    def test_scenario_file_holding_a_list(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[]")
        assert_exit_2(["run", "--scenario", str(path), "--policy", "nominal", "--seed", "0"],
                      capsys, "JSON object")

    @pytest.mark.parametrize("section,key,index", [("sim", "dt", None),
                                                   ("envelope", "min_corner", 0)])
    def test_scenario_holding_an_integer_too_large_for_a_float(self, tmp_path, capsys,
                                                               section, key, index):
        d = default_scenario().to_dict()
        if index is None:
            d[section][key] = 10**400
        else:
            d[section][key][index] = -10**400
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        assert_exit_2(["run", "--scenario", str(path), "--policy", "nominal", "--seed", "0"],
                      capsys, section)

    def test_missing_weights_file(self, scenario_path, capsys):
        assert_exit_2(["run", "--scenario", scenario_path, "--policy",
                       "weights:/nonexistent/file.json", "--seed", "0"], capsys,
                      "/nonexistent/file.json")

    def test_directory_as_weights(self, scenario_path, tmp_path, capsys):
        assert_exit_2(["run", "--scenario", scenario_path, "--policy", f"weights:{tmp_path}",
                       "--seed", "0"], capsys, str(tmp_path))

    def test_directory_as_scenario(self, tmp_path, capsys):
        assert_exit_2(["run", "--scenario", str(tmp_path), "--policy", "nominal",
                       "--seed", "0"], capsys, str(tmp_path))

    def test_directory_as_out(self, scenario_path, tmp_path, capsys):
        assert_exit_2(["evaluate", "--scenario", scenario_path, "--policy", "nominal",
                       "--seeds", "0..2", "--out", str(tmp_path)], capsys, str(tmp_path))


class TestEpisodeCountBound:
    # 10**12 episodes would need terabytes: each count is refused before any
    # seed list, range set or wind table is built, by a message naming it.
    HUGE = str(10**12)

    @pytest.fixture(autouse=True)
    def no_episodes(self, monkeypatch):
        monkeypatch.setattr(fastpath, "wind_draws",
                            lambda *a, **k: pytest.fail("drew a wind table"))

    def test_seed_range(self, scenario_path, capsys):
        assert_exit_2(["evaluate", "--scenario", scenario_path, "--policy", "nominal",
                       "--seeds", f"0..{self.HUGE}"], capsys, "--seeds")

    @pytest.mark.parametrize("option", ["--train-seeds", "--eval-seeds"])
    def test_soc_seed_ranges(self, scenario_path, tmp_path, capsys, option):
        ranges = {"--train-seeds": "0..10", "--eval-seeds": "20..30",
                  option: f"{10**13}..{10**13 + 10**12}"}
        assert_exit_2(["soc", "--scenario", scenario_path, "--seed", "0",
                       "--out", str(tmp_path / "soc.csv"),
                       *[arg for pair in ranges.items() for arg in pair]], capsys, option)

    @pytest.mark.parametrize("command", ["calibrate", "warmstart"])
    def test_episodes(self, scenario_path, tmp_path, capsys, command):
        extra = ["--delta", "16", "--out", str(tmp_path / "w.json")] if command == "warmstart" \
            else []
        assert_exit_2([command, "--scenario", scenario_path, "--episodes", self.HUGE,
                       "--seed", "0", *extra], capsys, "--episodes")

    def test_learn_episodes(self, scenario_path, tmp_path, capsys):
        w0 = tmp_path / "w0.json"
        save_weights(np.zeros((9, 2)), w0)
        assert_exit_2(["train", "--scenario", scenario_path, "--init", str(w0),
                       "--alert-penalty", "0.05", "--episodes", self.HUGE, "--seed", "0",
                       "--out", str(tmp_path / "w1.json")], capsys, "learn.episodes")


def test_warmstart_passes_over_many_demos_run_within_the_episode_bound(
        scenario_path, tmp_path, monkeypatch):
    # 5 passes of 200001 demos exceed MAX_EPISODES in all; they run as calls of
    # whole passes, each within the bound. The stub stands in for the flights.
    calls = []

    def train(theta, discount, learning_rate, epsilons, seed, **kwargs):
        calls.append(len(epsilons))
        return np.zeros((len(epsilons), 9))

    monkeypatch.setattr(fastpath, "train", train)
    assert main(["warmstart", "--scenario", scenario_path, "--delta", "8", "--episodes",
                 "200001", "--seed", "0", "--out", str(tmp_path / "w.json")]) == 0
    assert calls == [4 * 200001, 200001]


def test_calibration_out_of_budget_exits_2(capsys):
    # Three seeds give exit rates in thirds only: none lies within 0.02 of 0.25.
    assert_exit_2(["calibrate", "--episodes", "3", "--seed", "0"], capsys, "40 evaluations")
