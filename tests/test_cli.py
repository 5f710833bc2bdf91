import json
import math

import pytest

from nsprofile import cli
from nsprofile.cli import main
from nsprofile.config import ConfigError, build_run_config, config_hash, merge_config


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_merge_rejects_unknown_section():
    with pytest.raises(ConfigError):
        merge_config("rate", {"paramz": {}})
    with pytest.raises(ConfigError):
        merge_config("rate", {"params": {"alpa": 1.0}})


def test_build_rejects_bad_types_and_invariants():
    with pytest.raises(ConfigError):
        build_run_config("rate", {"params": {"alpha": "one"}})
    with pytest.raises(ConfigError):
        build_run_config("rate", {"time_grid": {"points": 4}})
    with pytest.raises(ConfigError):
        build_run_config("rate", {"time_grid": {"t_min": 0.5}})
    with pytest.raises(ConfigError):
        build_run_config("rate", {"params": {"alpha": -1.0}})
    with pytest.raises(ConfigError):
        build_run_config("rate", {"data": {"amplitude_v": [1.0, 0.0, 0.0]}})
    with pytest.raises(ConfigError):
        build_run_config("rate", {"params": {"n": True}})
    with pytest.raises(ConfigError):
        build_run_config("rate", {"data": {"amplitude_v": [True, 0.0]}})
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            build_run_config("rate", {"params": {"beta": bad}})
        with pytest.raises(ConfigError):
            build_run_config("rate", {"data": {"width": bad}})
        with pytest.raises(ConfigError):
            build_run_config("rate", {"quadrature": {"rel_tol": bad}})
        with pytest.raises(ConfigError):
            build_run_config("rate", {"time_grid": {"t_max": bad}})
    with pytest.raises(ConfigError):
        build_run_config("rate", {"quadrature": {"angular_nodes": 0}})


def test_highfreq_allows_small_t_min():
    cfg = build_run_config("highfreq", {})
    assert cfg.times[0] == pytest.approx(2.0)


def test_config_hash_stable_and_sensitive():
    a = merge_config("rate", {})
    b = merge_config("rate", {"params": {"alpha": 2.0}})
    assert config_hash(a) == config_hash(merge_config("rate", {}))
    assert config_hash(a) != config_hash(b)


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"nope": 1})
    assert main(["rate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "unknown config section" in capsys.readouterr().err


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["rate", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_plot_empty_csv_exits_2(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("t,v\n")
    path = write_config(tmp_path, {"plot": {"input_csv": str(csv)}})
    assert main(["plot", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "no data rows" in capsys.readouterr().err


def test_cli_rate_coarse_run(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "time_grid": {"t_min": 100.0, "t_max": 2000.0, "points": 8},
    })
    assert main(["rate", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "rate.json").read_text())
    assert verdict["pass"] is True
    assert -0.55 <= verdict["metrics"]["slope"] <= -0.45
    assert verdict["config_hash"]
    assert verdict["thresholds"]["rate_slope_tol"] == 0.05
    assert (out / "rate.csv").exists() and (out / "rate.svg").exists()


def test_cli_verdict_failure_exit_1(tmp_path):
    # an impossible tolerance turns the same passing run into a verdict failure
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "time_grid": {"t_min": 100.0, "t_max": 2000.0, "points": 8},
        "thresholds": {"rate_slope_tol": 1e-9},
    })
    assert main(["rate", "--config", path, "--out", str(out)]) == 1
    verdict = json.loads((out / "rate.json").read_text())
    assert verdict["pass"] is False


def test_cli_threads_do_not_change_bytes(tmp_path):
    path = write_config(tmp_path, {
        "data": {"amplitude_v": [0.1, 0.0]},
        "time_grid": {"t_min": 16.0, "t_max": 512.0, "points": 8},
    })
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"out{threads}"
        assert main(["profile-error", "--config", path, "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append((out / "profile-error.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_oracle_check_default_grid(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {})
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "oracle-check.json").read_text())
    assert verdict["pass"] is True
    assert verdict["metrics"]["max_rel_err"] <= 1e-8
    assert verdict["metrics"]["runtime_within_budget"] is True


def test_cli_plot_from_produced_csv(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "time_grid": {"t_min": 100.0, "t_max": 2000.0, "points": 8},
    })
    assert main(["rate", "--config", path, "--out", str(out)]) == 0
    plot_cfg = write_config(tmp_path, {
        "plot": {"input_csv": str(out / "rate.csv"), "x": "t",
                 "y": ["velocity_norm"], "axes": "loglog"},
    }, name="plot.json")
    assert main(["plot", "--config", plot_cfg, "--out", str(out)]) == 0
    assert (out / "plot.svg").exists()


def test_cli_env_thread_fallback_and_json_thread_independence(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    path = write_config(tmp_path, {
        "time_grid": {"t_min": 100.0, "t_max": 2000.0, "points": 8},
    })
    monkeypatch.setenv("NSPROFILE_THREADS", "2")
    assert main(["rate", "--config", path, "--out", str(out1)]) == 0
    monkeypatch.setenv("NSPROFILE_THREADS", "1")
    assert main(["rate", "--config", path, "--out", str(out2)]) == 0
    # verdict files are byte-identical regardless of parallelism
    assert (out1 / "rate.json").read_bytes() == (out2 / "rate.json").read_bytes()
    assert (out1 / "rate.csv").read_bytes() == (out2 / "rate.csv").read_bytes()


def test_cli_bad_thread_env_exits_2(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, {})
    monkeypatch.setenv("NSPROFILE_THREADS", "abc")
    assert main(["rate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["subcommand"] == "rate"
    assert "NSPROFILE_THREADS" in diagnostic["error"]


def test_cli_highfreq_n1_default_config_passes(tmp_path):
    path = write_config(tmp_path, {"params": {"n": 1}})
    assert main(["highfreq", "--config", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("payload", [
    {"params": {"n": True}},
    {"params": {"gamma": math.inf}},
    {"params": {"beta": math.nan}},
])
def test_cli_bad_value_exits_2(tmp_path, capsys, payload):
    # json writes NaN/Infinity, which json.load reads back as floats
    path = write_config(tmp_path, payload)
    assert main(["rate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error_type"] == "ConfigError"
    assert "Traceback" not in err


def test_cli_unexpected_runner_error_exits_2(tmp_path, monkeypatch, capsys):
    def broken(cfg, threads):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli._RUNNERS, "rate", broken)
    out = tmp_path / "out"
    path = write_config(tmp_path, {})
    assert main(["rate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    diagnostic = json.loads(err)
    assert diagnostic["error_type"] == "TypeError"
    assert diagnostic["pass"] is False
    assert diagnostic["traceback"]
    assert json.loads((out / "rate.json").read_text()) == diagnostic
    assert "Traceback" not in err
