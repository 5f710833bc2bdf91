import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from nsprofile import cli
from nsprofile.cli import main
from nsprofile.config import (
    ConfigError,
    build_run_config,
    config_hash,
    default_config,
    merge_config,
)


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
    # each time point costs zone norms, so the grid size is capped
    with pytest.raises(ConfigError, match=r"time_grid.points must be in \[8, 1024\]"):
        build_run_config("rate", {"time_grid": {"points": 10**7}})
    assert build_run_config("rate", {"time_grid": {"points": 1024}}).times.size == 1024
    # so is the dimension: the oracle's step matrices are (n + 1) x (n + 1)
    with pytest.raises(ConfigError, match=r"params.n must be at most 16"):
        build_run_config("oracle-check", {"params": {"n": 10**6}})
    assert build_run_config("oracle-check", {"params": {"n": 16}}).params.n == 16
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
    # the layout settings and the output directory are not config keys
    with pytest.raises(ConfigError):
        build_run_config("rate", {"quadrature": {"angular_nodes": 0}})
    for bad in ({"emit_svg": "false"}, {"emit_svg": 1}, {"output_dir": 3},
                {"oracle": {"radii": 4.5}}, {"oracle": {"seed": 4.5}},
                {"time_grid": {"points": 8.5}}, {"oracle": {"seed": True}},
                {"oracle": {"step": "1e-4"}}, {"params": {"beta": 1e308}},
                {"params": {"gamma": 1e200}},
                # the data are always Gaussian and the time grid geometric
                {"data": {"family": "gaussian"}}, {"time_grid": {"spacing": "geometric"}}):
        with pytest.raises(ConfigError):
            build_run_config("oracle-check", bad)


def test_build_accepts_ints_and_null_where_typed():
    # a float default takes an int; null only where the default is null
    cfg = build_run_config("rate", {"params": {"alpha": 2}, "data": {"amplitude_v": [0, 0]},
                                    "plot": {"y": ["v"]}})
    assert cfg.params.alpha == 2.0 and cfg.data.amplitude_v == (0.0, 0.0)
    cfg = build_run_config("rate", {"data": {"amplitude_v": None}})
    assert cfg.data.amplitude_v == (0.0, 0.0)
    with pytest.raises(ConfigError):
        build_run_config("rate", {"params": {"alpha": None}})


def test_readme_config_block_matches_defaults():
    # the README's config block is valid and shows every section and key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    merge_config("rate", block)

    def keys(cfg):
        return {name: sorted(value) if isinstance(value, dict) else None
                for name, value in cfg.items()}

    assert keys(block) == keys(default_config("rate"))


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


def test_cli_plot_repeated_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "dup.csv"
    csv.write_text("t,v,v\n1,2,3\n2,3,4\n")
    path = write_config(tmp_path, {"plot": {"input_csv": str(csv)}})
    assert main(["plot", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "repeats column 'v'" in capsys.readouterr().err


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
    # on the pre-asymptotic grid t in [1, 4] the fitted slope is far from -n/4
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        "time_grid": {"t_min": 1.0, "t_max": 4.0, "points": 8},
    })
    assert main(["rate", "--config", path, "--out", str(out)]) == 1
    verdict = json.loads((out / "rate.json").read_text())
    assert verdict["pass"] is False
    assert verdict["metrics"]["slope"] > -0.5 + verdict["thresholds"]["rate_slope_tol"]


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
    assert verdict["metrics"]["step"] == 1e-4


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


def test_cli_env_thread_fallback_and_json_thread_independence(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    path = write_config(tmp_path, {
        "time_grid": {"t_min": 100.0, "t_max": 2000.0, "points": 8},
    })
    assert main(["rate", "--config", path, "--out", str(out1), "--threads", "2"]) == 0
    assert main(["rate", "--config", path, "--out", str(out2), "--threads", "1"]) == 0
    # verdict files are byte-identical regardless of parallelism
    assert (out1 / "rate.json").read_bytes() == (out2 / "rate.json").read_bytes()
    assert (out1 / "rate.csv").read_bytes() == (out2 / "rate.csv").read_bytes()


def test_cli_oversized_quadrature_exits_2(tmp_path, monkeypatch, capsys):
    # at alpha 1e-12 the first radial layout needs millions of nodes: the run
    # stops before allocating them, and the default --out is ./out
    path = write_config(tmp_path, {"params": {"alpha": 1e-12}})
    monkeypatch.chdir(tmp_path)
    assert main(["rate", "--config", path]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error_type"] == "QuadratureError"
    assert "nodes" in diagnostic["error"]
    assert json.loads((tmp_path / "out" / "rate.json").read_text()) == diagnostic


def test_cli_highfreq_n1_default_config_passes(tmp_path):
    path = write_config(tmp_path, {"params": {"n": 1}})
    assert main(["highfreq", "--config", path, "--out", str(tmp_path / "out")]) == 0


def assert_rejected_by_config(tmp_path, capsys, subcommand, payload):
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([subcommand, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    diagnostic = json.loads(err)
    assert diagnostic["error_type"] == "ConfigError"
    assert "config_hash" not in diagnostic  # rejected before any runner started
    assert not out.exists()
    assert "Traceback" not in err


@pytest.mark.parametrize("payload", [
    {"params": {"n": True}},
    {"params": {"gamma": math.inf}},
    {"params": {"beta": math.nan}},
    # finite coefficients whose squares overflow
    {"params": {"beta": 1e308}},
    {"params": {"gamma": 1e200}},
    # bool("false") is True; a fraction is rejected where an integer is expected
    {"emit_svg": "false"},
    {"oracle": {"seed": 4.5}}, {"time_grid": {"points": 8.5}},
    # the oracle grid is fixed: its old keys are unknown, even at their old values
    {"oracle": {"radii": 10}},
    # a (4 delta0)^2 overflows in the kernels although gamma^2 is finite
    {"params": {"gamma": 1e150}},
    {"oracle": {"times": 10}}, {"oracle": {"r_min": 0.05}}, {"oracle": {"r_max": 5.0}},
    {"oracle": {"t_min": 0.1}}, {"oracle": {"t_max": 20.0}},
    # so is the RK4 step: its old key is unknown at any value
    {"oracle": {"step": 1e-4}},
    {"oracle": {"step": math.nan}}, {"oracle": {"step": 0.0}}, {"oracle": {"step": -1.0}},
    {"oracle": {"step": math.inf}}, {"oracle": {"seed": -1}},
    # a config names the run, not its pass mark
    {"thresholds": {"rate_slope_tol": math.inf}},
    # a time grid this large would run 10^7 zone norms
    {"time_grid": {"points": 10**7}},
    # so is the dimension: oracle-check would form (10^6 + 1)-square step matrices
    {"params": {"n": 10**6}},
])
def test_cli_bad_value_exits_2(tmp_path, capsys, payload):
    # json writes NaN/Infinity, which json.load reads back as floats
    assert_rejected_by_config(tmp_path, capsys, "rate", payload)


@pytest.mark.parametrize("plot", [
    # an int or a bool would be opened as an inherited file descriptor
    {"input_csv": 3},
    {"input_csv": True},
    # a string would be iterated one character at a time
    {"y": "t"},
])
def test_cli_plot_bad_value_exits_2(tmp_path, capsys, plot):
    csv = tmp_path / "in.csv"
    csv.write_text("t,v\n1,2\n2,1\n")
    assert_rejected_by_config(tmp_path, capsys, "plot",
                              {"plot": {"input_csv": str(csv), **plot}})


def test_cli_plot_escapes_svg_text(tmp_path):
    # title, axis labels and legend labels carry XML markup characters
    csv = tmp_path / "in.csv"
    csv.write_text("t&u,v<w\n1,2\n2,1\n")
    path = write_config(tmp_path, {"plot": {"input_csv": str(csv), "x": "t&u",
                                            "title": "a<b & c"}})
    out = tmp_path / "out"
    assert main(["plot", "--config", path, "--out", str(out)]) == 0
    texts = [el.text for el in ET.parse(out / "plot.svg").iter()
             if el.tag.endswith("text")]
    assert {"a<b & c", "t&u", "v<w"} <= set(texts)


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verdicts-n2"
COMPUTE_SUBCOMMANDS = ["oracle-check", "profile-error", "density-profile-error", "rate",
                       "sandwich", "lemma31", "highfreq", "bounds"]


@pytest.mark.parametrize("subcommand", COMPUTE_SUBCOMMANDS)
def test_cli_csv_header_matches_bench_reference(tmp_path, subcommand):
    # the benchmark gate compares every column of these reference files
    # (read here, never written), so a renamed or reordered column fails here
    path = write_config(tmp_path, {"time_grid": {"points": 8}})
    out = tmp_path / "out"
    assert main([subcommand, "--config", path, "--out", str(out)]) == 0
    header = (out / f"{subcommand}.csv").read_text().split("\n", 1)[0]
    assert header == (REFERENCE / f"{subcommand}.csv").read_text().split("\n", 1)[0]


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
