import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from nsprofile import cli
from nsprofile.cli import THRESHOLDS, main, run_oracle_check
from nsprofile.config import (
    ConfigError,
    build_run_config,
    config_hash,
    default_config,
    geometric_grid,
    merge_config,
)
from nsprofile.decay import field_norm_sq
from nsprofile.profiles import gaussian_moment_bound, moment_defect_field
from nsprofile.quadrature import DEFAULT_REL_TOL
from nsprofile.reporting import AxesSpec, emit_svg, read_csv


def write_config(tmp_path, payload, name="cfg.json"):
    """Write ``payload`` as JSON, or a string as it is."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
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


def test_readme_library_session_runs(capsys):
    # the README's library session imports only names the package still has,
    # and prints the slope it promises
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) == pytest.approx(-0.5, abs=0.05)


def test_readme_config_block_is_the_profile_error_default():
    # the block shows the defaults of the subcommand it names, value by value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    assert "The defaults of `profile-error` are:" in section.split("```json", 1)[0]
    block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert block == default_config("profile-error")
    # and, as the text under it says, the others differ only in the time grid
    grids = {"profile-error": (16.0, 16384.0, 11), "density-profile-error": (16.0, 16384.0, 11),
             "bounds": (16.0, 16384.0, 11), "sandwich": (100.0, 1e4, 12),
             "lemma31": (100.0, 1e4, 12), "highfreq": (2.0, 40.0, 12)}
    del block["time_grid"]
    for sub in cli._RUNNERS:
        cfg = default_config(sub)
        assert tuple(cfg.pop("time_grid").values()) == grids.get(sub, (100.0, 1e4, 11))
        assert cfg == block


def test_highfreq_allows_small_t_min():
    cfg = build_run_config("highfreq", {})
    assert cfg.times[0] == pytest.approx(2.0)


def test_config_hash_stable_and_sensitive():
    a = merge_config("rate", {})
    b = merge_config("rate", {"params": {"alpha": 2.0}})
    assert config_hash(a) == config_hash(merge_config("rate", {}))
    assert config_hash(a) != config_hash(b)


@pytest.mark.parametrize("subcommand,user", [
    ("rate", {}), ("lemma31", {}), ("highfreq", {"params": {"n": 3}, "emit_svg": False}),
    ("oracle-check", {"oracle": {"seed": 7}, "params": {"n": 3},
                      "data": {"amplitude_v": [0.03, 0.04, 0.0]}}),
    ("plot", {"plot": {"input_csv": "r\u00e9sultats.csv", "title": "a<b & \u00fc"}}),
])
def test_config_hash_is_the_sha256_prefix_of_the_canonical_json(subcommand, user):
    # config_hash takes the builtin SHA-256 where the interpreter has one and
    # hashlib's otherwise: both must give hashlib's digest
    cfg = merge_config(subcommand, user)
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    assert config_hash(cfg) == hashlib.sha256(canonical).hexdigest()[:16]


def test_geometric_grid_has_the_bits_of_np_geomspace():
    # every default time grid, the two oracle grids, a seeded sweep of spans
    # and sizes, and the edges: the fewest and most points, a span of one ulp
    # and a span of 600 decades
    for subcommand in cli._RUNNERS:
        g = default_config(subcommand)["time_grid"]
        assert np.array_equal(build_run_config(subcommand, {}).times,
                              np.geomspace(g["t_min"], g["t_max"], g["points"]))
    assert np.array_equal(cli._ORACLE_RADII,
                          np.array(sorted([*np.geomspace(0.05, 5.0, 8), 0.999, 1.001])))
    assert np.array_equal(cli._ORACLE_TIMES, np.geomspace(0.1, 20.0, 10))
    rng = random.Random(41)
    grids = []
    for _ in range(2000):
        start = 10.0 ** rng.uniform(-3.0, 3.0)
        stop = start * 10.0 ** rng.uniform(math.log10(1.0001), 6.0)
        grids.append((start, stop, rng.randint(8, 1024)))
    for points in (8, 1024):
        grids += [(100.0, 1.0e4, points), (1.0, math.nextafter(1.0, math.inf), points),
                  (3.7, math.nextafter(3.7, math.inf), points), (1e-300, 1e300, points)]
    for start, stop, points in grids:
        assert np.array_equal(geometric_grid(start, stop, points),
                              np.geomspace(start, stop, points)), (start, stop, points)


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


def _exit_and_verdict(tmp_path, subcommand, config):
    """Exit code and verdict JSON of a CLI run of ``subcommand`` at ``config``."""
    out = tmp_path / "out"
    code = main([subcommand, "--config", write_config(tmp_path, config), "--out", str(out)])
    return code, json.loads((out / f"{subcommand}.json").read_text())


@pytest.mark.parametrize("factor,code", [(1.04, 0), (1.06, 1)])
@pytest.mark.parametrize("row", ["moment_defect", "sine_correction", "expansion"])
def test_cli_bounds_row_check_fails_alone_past_the_cushion(tmp_path, monkeypatch, row,
                                                          factor, code):
    # one row's bound at measured/factor and the others as computed: within
    # the 1.05 cushion the run passes, past it that row alone fails the verdict
    from nsprofile import replace

    real = cli.remainder_bounds
    field = getattr(cli, f"{row}_field")

    def tight(params, data, t):
        bound = cli.zone_series(field, params, data, [t], "low", DEFAULT_REL_TOL)[0] / factor
        if row == "expansion":  # the triangle bound of (bound, 0, 0, 0, 0) is bound
            return replace(real(params, data, t), expansion=(bound, 0.0, 0.0, 0.0, 0.0))
        return replace(real(params, data, t), **{row: bound})

    monkeypatch.setattr(cli, "remainder_bounds", tight)
    # a nonzero velocity moment, so that every measured row is positive
    exit_code, verdict = _exit_and_verdict(tmp_path, "bounds",
                                           {"data": {"amplitude_v": [0.05, 0.0]}})
    assert (exit_code, verdict["pass"]) == (code, code == 0)


@pytest.mark.parametrize("column,failed", [
    ("heat", []), ("sine", ["acoustic-sine"]), ("cosine", ["damped-cosine"]),
    ("witness", [])], ids=["heat", "sine", "cosine", "witness"])
def test_cli_lemma31_judges_the_quadrature_items(tmp_path, monkeypatch, column, failed):
    # a 1 -> 100 ramp over the grid drives the named column's tail ratio above
    # 4: K_sin is replaced by a share of the Gaussian integral G(b, t) that
    # ramps itself for the sine item and G - K_sin for the cosine item, the
    # heat item ramps through G(2 alpha, t) alone (beta = 2 keeps b = 3 apart
    # from 2 alpha = 2) and the cone witness through its cap area alone.  Only
    # the sine and cosine items are judged
    overrides = {"params": {"beta": 2.0}}
    cfg = build_run_config("lemma31", overrides)
    ramp = np.geomspace(1.0, 100.0, cfg.times.size)
    at = dict(zip(cfg.times.tolist(), ramp))
    gauss, cap = cli.gaussian_moment_bound, cli.cone_cap_area
    if column in ("sine", "cosine"):
        share = (lambda t: 0.005 * at[t]) if column == "sine" else \
            (lambda t: 1.0 - 0.5 / at[t])
        monkeypatch.setattr(cli.decay, "sine_kernel_integral",
                            lambda params, t, rel_tol: share(t) * gauss(params.n, 0, params.b, t))
    elif column == "heat":
        two_alpha = 2.0 * cfg.params.alpha
        monkeypatch.setattr(cli, "gaussian_moment_bound", lambda n, k, rate, t: gauss(
            n, k, rate, t) * (at[t] if rate == two_alpha else 1.0))
    else:
        monkeypatch.setattr(cli, "cone_cap_area", lambda n: cap(n) * ramp)
    exit_code, verdict = _exit_and_verdict(tmp_path, "lemma31", overrides)
    items = verdict["metrics"]["items"]
    assert sorted(items) == ["acoustic-sine", "damped-cosine"]
    assert [label for label, item in items.items() if not item["pass"]] == failed
    assert (exit_code, verdict["pass"]) == (1 if failed else 0, not failed)
    tail = read_csv(str(tmp_path / "out" / "lemma31.csv"))[f"{column}_scaled"][6:]
    assert max(tail) / min(tail) > 4.0


@pytest.mark.parametrize("check", ["nonincreasing", "slope", "r_squared", "conclusion_holds"])
def test_cli_highfreq_check_fails_alone(tmp_path, monkeypatch, check):
    # a synthetic E_h series on the default grid that fails one check alone:
    # one step up by 1e-6, a constant (slope 0), a power law (semi-log r^2
    # 0.86), or an E_h(0) so small that the exponential bound falls below E_h
    def energies(field, params, data, times, zone, rel_tol):
        decaying = np.exp(-0.5 * times)
        if check == "nonincreasing":
            decaying[6] = decaying[5] * (1 + 1e-6)
        return {"nonincreasing": decaying, "slope": np.full(times.size, 0.5),
                "r_squared": times ** -3.0, "conclusion_holds": decaying}[check]

    e_h0 = {"r_squared": 0.125, "conclusion_holds": 1e-3}.get(check, 1.0)
    monkeypatch.setattr(cli, "zone_series", energies)
    monkeypatch.setattr(cli, "highfreq_initial_energy", lambda params, data: e_h0)
    exit_code, verdict = _exit_and_verdict(tmp_path, "highfreq", {})
    metrics = verdict["metrics"]
    failed = {"nonincreasing": not metrics["nonincreasing"], "slope": metrics["slope"] >= 0,
              "r_squared": metrics["r_squared"] < THRESHOLDS["highfreq_min_r_squared"],
              "conclusion_holds": not metrics["conclusion_holds"]}
    assert [name for name, fails in failed.items() if fails] == [check]
    assert (exit_code, verdict["pass"]) == (1, False)


@pytest.mark.parametrize("tail,passed", [
    ([1.0, 2.0], True), ([1.0, float(np.nextafter(2.0, 3.0))], False),
    ([0.0, 1.0], False), ([-2.0, -1.0], False), ([-1.0, 1.0], False), ([0.0, 0.0], False),
])
def test_plateau_passes_on_its_ratio_alone(tail, passed):
    # a tail ratio of exactly max_ratio passes and one ulp more fails; a
    # minimum that is not positive has the infinite ratio, which fails
    scaled = np.array([50.0] * 6 + tail * 3)
    plateau = cli._plateau(scaled, 2.0)
    assert (plateau["plateau_min"], plateau["plateau_max"]) == (min(tail), max(tail))
    assert plateau["pass"] is passed


@pytest.mark.parametrize("check", ["nonincreasing", "conclusion_holds"])
def test_cli_highfreq_checks_compare_exactly(tmp_path, monkeypatch, check):
    # no round-off slack: a flat step is nonincreasing and a step up by one
    # ulp is not; an E_h(0) whose bound just covers E_h past T0 passes and the
    # next float below fails
    grid = {}

    def energies(field, params, data, times, zone, rel_tol):
        values = np.exp(-0.5 * times)
        if check == "nonincreasing":
            values[6] = grid["step"](values[5])
        grid["times"], grid["values"] = times, values
        return values

    monkeypatch.setattr(cli, "zone_series", energies)
    monkeypatch.setattr(cli, "highfreq_initial_energy",
                        lambda params, data: grid.get("e_h0", 1.0))

    def verdict_at(**setting):
        grid.update(setting)
        exit_code, verdict = _exit_and_verdict(tmp_path, "highfreq", {})
        assert verdict["metrics"]["slope"] < 0
        assert verdict["metrics"]["r_squared"] >= THRESHOLDS["highfreq_min_r_squared"]
        return exit_code, verdict["metrics"]

    if check == "nonincreasing":
        at_edge = verdict_at(step=lambda x: x)
        past_edge = verdict_at(step=lambda x: np.nextafter(x, math.inf))
    else:
        metrics = verdict_at()[1]
        times, values = grid["times"], grid["values"]
        on_grid = times >= metrics["komornik_t0"]
        decay = np.exp(1.0 - times / metrics["komornik_t0"])[on_grid]

        def covers(e_h0):
            return bool(np.all(values[on_grid] <= e_h0 * decay))

        edge = float(np.max(values[on_grid] / decay))
        while not covers(edge):
            edge = np.nextafter(edge, math.inf)
        while covers(np.nextafter(edge, 0.0)):
            edge = np.nextafter(edge, 0.0)
        at_edge = verdict_at(e_h0=float(edge))
        past_edge = verdict_at(e_h0=float(np.nextafter(edge, 0.0)))
    assert at_edge[0] == 0 and at_edge[1][check] is True
    assert past_edge[0] == 1 and past_edge[1][check] is False


def test_cli_highfreq_names_the_first_vanished_energy(tmp_path, capsys):
    # at gamma 50 every E_h of the default grid underflows to 0.0: no semi-log
    # fit exists, and the diagnostic names the first entry it refused
    path = write_config(tmp_path, {"params": {"gamma": 50}})
    assert main(["highfreq", "--config", path, "--out", str(tmp_path / "out")]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "values must be strictly positive: entry 0 has t=2, value=0"


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


def test_cli_oracle_seed_fixes_the_csv(tmp_path):
    # the seed drives random.Random: one seed gives one CSV for any run and
    # thread count, another seed other directions and so other errors
    outs = []
    for k, (seed, threads) in enumerate(((0, 1), (0, 1), (0, 2), (1, 1))):
        out = tmp_path / f"out{k}"
        path = write_config(tmp_path, {"oracle": {"seed": seed}}, f"cfg{k}.json")
        assert main(["oracle-check", "--config", path, "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append((out / "oracle-check.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert outs[3] != outs[0]
    rel_err = [read_csv(str(tmp_path / f"out{k}" / "oracle-check.csv"))["rel_err"]
               for k in (0, 3)]
    assert rel_err[0] != rel_err[1]


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_check_passes_for_every_seed(n):
    worst = 0.0
    for seed in range(40):
        cfg = build_run_config("oracle-check", {"params": {"n": n}, "oracle": {"seed": seed}})
        verdict, _, _ = run_oracle_check(cfg)
        assert verdict["pass"] is True, seed
        worst = max(worst, verdict["metrics"]["max_rel_err"])
    assert worst <= 1e-8


def test_cli_oracle_check_default_grid(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {})
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "oracle-check.json").read_text())
    assert verdict["pass"] is True
    assert verdict["metrics"]["max_rel_err"] <= 1e-8
    assert verdict["metrics"]["runtime_within_budget"] is True
    assert verdict["metrics"]["step"] == 1e-4


def test_cli_oracle_check_where_the_data_envelope_underflows(tmp_path):
    # at width 50 the data transform underflows at the larger oracle radii, so
    # the exact and oracle states are both 0 there: exact agreement, rel_err 0
    out = tmp_path / "out"
    path = write_config(tmp_path, {"data": {"width": 50}})
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "oracle-check.json").read_text())
    assert verdict["pass"] is True
    assert verdict["metrics"]["max_rel_err"] <= 1e-8
    assert 0.0 in read_csv(str(out / "oracle-check.csv"))["rel_err"]


@pytest.mark.parametrize("config", [
    {"params": {"gamma": 50}, "data": {"width": 0.04}},
    {"params": {"gamma": 1000, "n": 3}, "data": {"width": 0.002, "amplitude_v": [0.03, 0.04, 0.0]}},
], ids=["gamma50", "gamma1000-n3"])
def test_cli_oracle_check_in_the_model_units(tmp_path, config):
    # the grid's radii are in units of delta0 = 2 gamma / b and its times and
    # step in units of b / (2 gamma^2), so the step guard holds at any gamma;
    # the widths shrink with 1 / delta0 so that the data do not underflow
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "oracle-check.json").read_text())["metrics"]
    assert 0.0 < metrics["max_rel_err"] <= 1e-8
    gamma = config["params"]["gamma"]  # b = 2, so delta0 = gamma
    assert metrics["step"] == 2.0 / (2.0 * gamma ** 2) * 1e-4
    radii = read_csv(str(out / "oracle-check.csv"))["r"]
    assert gamma * 0.999 in radii and gamma * 1.001 in radii


@pytest.mark.parametrize("n", [2, 3])
def test_cli_oracle_check_where_the_state_has_decayed(tmp_path, n):
    # at alpha = 1e-3 some oracle states decay to ~1e-16 of their datum, so
    # the round-off of the RK4 state is large against them; the gap is measured
    # against |y(0)|, which bounds every |y(t)|, and the oracle agrees
    out = tmp_path / "out"
    path = write_config(tmp_path, {"params": {"alpha": 1e-3, "n": n}})
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "oracle-check.json").read_text())
    assert verdict["pass"] is True
    assert verdict["metrics"]["max_rel_err"] <= 1e-8


def test_cli_oracle_off_by_a_share_of_the_datum_fails(tmp_path, monkeypatch):
    # an oracle off by 1e-6 |y(0)| at every point has rel_err 1e-6, over the
    # 1e-8 pass mark: the verdict fails and the run exits 1
    from nsprofile.model import fourier_data_batch

    solve = cli.solve_ode_oracle_batch

    def off(params, data, xi, t, step):
        v, rho = solve(params, data, xi, t, step)
        v0, rho0 = fourier_data_batch(data, xi)
        return v, rho + 1e-6 * np.sqrt(np.sum(v0 * v0, axis=1) + rho0 * rho0)

    monkeypatch.setattr(cli, "solve_ode_oracle_batch", off)
    out = tmp_path / "out"
    path = write_config(tmp_path, {})
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 1
    rel_err = read_csv(str(out / "oracle-check.csv"))["rel_err"]
    assert min(rel_err) == pytest.approx(1e-6, rel=1e-3)
    assert max(rel_err) == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("p0", [[0.05, 0.0, 0.0], [0.0, 0.0, 0.05], [0.05, 0.0], [0.0, 0.05]],
                         ids=["e1", "e3", "n2-e1", "n2-e2"])
def test_cli_oracle_sees_the_u_terms_for_any_moment_direction(tmp_path, monkeypatch, p0):
    # a closed form without its u = xi_hat . p_hat terms b1 and c1 is wrong
    # wherever u != 0; directions drawn on the whole sphere find that for P0
    # along e3 too, where the (e1, e2) plane alone has u = 0, and at n = 2 for
    # P0 along either axis, which the isotropic default datum never tests.
    # Unpatched, the closed form passes at every direction
    from nsprofile import spectral

    out = tmp_path / "out"
    path = write_config(tmp_path, {"params": {"n": len(p0)}, "data": {"amplitude_v": p0}})
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 0
    flow = spectral.flow
    monkeypatch.setattr(spectral, "flow",
                        lambda *args, **kw: flow(*args, **kw)._replace(b1=0.0, c1=0.0))
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 1
    verdict = json.loads((out / "oracle-check.json").read_text())
    assert verdict["metrics"]["max_rel_err"] > 1e-3


def test_cli_oracle_gap_over_a_zero_state_is_not_agreement(tmp_path, monkeypatch, capsys):
    # an oracle that is off where the exact state is 0 disagrees totally:
    # rel_err is capped at 1 there, and the verdict fails with a finite CSV
    solve = cli.solve_ode_oracle_batch

    def off(*args):
        v, rho = solve(*args)
        return v, rho + 1e-100

    monkeypatch.setattr(cli, "solve_ode_oracle_batch", off)
    path = write_config(tmp_path, {"data": {"width": 50}})
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", path, "--out", str(out)]) == 1
    verdict = json.loads((out / "oracle-check.json").read_text())
    assert verdict["pass"] is False
    assert verdict["metrics"]["max_rel_err"] == 1.0
    rel_err = read_csv(str(out / "oracle-check.csv"))["rel_err"]
    assert all(math.isfinite(x) for x in rel_err) and max(rel_err) == 1.0


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


def test_cli_json_and_csv_thread_independence(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    path = write_config(tmp_path, {
        "time_grid": {"t_min": 100.0, "t_max": 2000.0, "points": 8},
    })
    assert main(["rate", "--config", path, "--out", str(out1), "--threads", "2"]) == 0
    assert main(["rate", "--config", path, "--out", str(out2), "--threads", "1"]) == 0
    # verdict files are byte-identical regardless of parallelism
    assert (out1 / "rate.json").read_bytes() == (out2 / "rate.json").read_bytes()
    assert (out1 / "rate.csv").read_bytes() == (out2 / "rate.csv").read_bytes()


def test_cli_threads_start_no_thread(tmp_path, monkeypatch):
    # every run computes on the calling thread, whatever --threads says
    def refuse(self):
        raise RuntimeError("a run started a thread")

    path = write_config(tmp_path, {"params": {"n": 3}})
    assert main(["rate", "--config", path, "--out", str(tmp_path / "t1"),
                 "--threads", "1"]) == 0
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["rate", "--config", path, "--out", str(tmp_path / "t4"),
                 "--threads", "4"]) == 0
    for name in ("rate.csv", "rate.json", "rate.svg"):
        assert (tmp_path / "t4" / name).read_bytes() == (tmp_path / "t1" / name).read_bytes()


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


@pytest.mark.parametrize("subcommand", ["rate", "sandwich", "highfreq"])
@pytest.mark.parametrize("params", [{"alpha": 1e-10, "beta": 1e150, "gamma": 1e150},
                                    {"alpha": 1e-100, "beta": 1e120, "gamma": 1e120}],
                         ids=["beta1e150", "beta1e120"])
def test_cli_radius_where_the_kernels_overflow_exits_2(tmp_path, capsys, subcommand, params):
    # the params are checked at r = 5 delta0, but the full-zone radius
    # 8/sqrt(alpha t) reaches 8e4 and more here, where b^2 r^2 overflows: the
    # norm stops before its probe, and stderr is the one diagnostic JSON
    path = write_config(tmp_path, {"params": params})
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error_type"] == "QuadratureError"
    assert "overflows" in diagnostic["error"]
    assert "traceback" not in diagnostic


@pytest.mark.parametrize("subcommand", list(cli._RUNNERS))
def test_cli_rejects_one_dimension(tmp_path, capsys, subcommand):
    # the paper's decay statements are for n >= 2, so n = 1 is bad input
    path = write_config(tmp_path, {"params": {"n": 1}})
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "n must be an integer >= 2, got 1"
    assert "traceback" not in diagnostic


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
    # a (5 delta0)^2 overflows in the kernels although gamma^2 is finite
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
    # the root and each section must be objects, and the file JSON
    [], {"params": 3}, pytest.param("not json {", id="not-json"),
    # a velocity moment with no component has no dimension
    {"data": {"amplitude_v": []}},
    # a (4 delta0)^2 = 64 gamma^4/b^2 is finite here, a (5 delta0)^2 is not
    {"params": {"alpha": 0.5, "beta": 0.5, "gamma": 3.7e76}},
])
def test_cli_bad_value_exits_2(tmp_path, capsys, payload):
    # json writes NaN/Infinity, which json.load reads back as floats
    assert_rejected_by_config(tmp_path, capsys, "rate", payload)


def test_cli_oracle_check_rejects_an_overflow_at_its_largest_radius(tmp_path, capsys):
    # oracle-check forms a r^2 out to r = 5 delta0, where 100 gamma^4/b^2
    # overflows although 64 gamma^4/b^2 at 4 delta0 does not: the config is
    # rejected before any field is formed, so no numpy warning is raised
    path = write_config(tmp_path, {"params": {"alpha": 0.5, "beta": 0.5, "gamma": 3.7e76}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle-check", "--config", path, "--out", str(tmp_path / "out")]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error_type"] == "ConfigError"
    assert "traceback" not in diagnostic and "(5 delta0)^2" in diagnostic["error"]


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


@pytest.mark.parametrize("plot,message", [
    ({"input_csv": ""}, "plot.input_csv is required"),
    ({"x": "q"}, "plot.x column 'q' not in CSV header"),
    ({"y": ["q"]}, "plot.y column 'q' not in CSV header"),
    ({"axes": "cubic"}, "plot.axes must be loglog/semilogy/linear, got 'cubic'"),
], ids=["no-input", "x-not-in-header", "y-not-in-header", "cubic-axes"])
def test_cli_plot_runner_rejects_its_settings(tmp_path, capsys, plot, message):
    # well-typed plot settings that only the runner can judge against the CSV
    csv = tmp_path / "in.csv"
    csv.write_text("t,v\n1,2\n2,1\n")
    path = write_config(tmp_path, {"plot": {"input_csv": str(csv), **plot}})
    assert main(["plot", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    diagnostic = json.loads(err)
    assert diagnostic["error_type"] == "ConfigError"
    assert diagnostic["error"] == message
    assert diagnostic["config_hash"]
    assert "traceback" not in diagnostic and "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["oracle-check", "profile-error",
                                        "density-profile-error", "rate", "sandwich",
                                        "lemma31", "highfreq", "bounds"])
def test_cli_zero_initial_data_exits_2(tmp_path, capsys, subcommand):
    # every norm of zero data vanishes, so no fit, plateau or relative error exists
    assert_rejected_by_config(tmp_path, capsys, subcommand,
                              {"data": {"amplitude_rho": 0.0, "amplitude_v": [0.0, 0.0]}})


@pytest.mark.parametrize("subcommand", ["oracle-check", "profile-error",
                                        "density-profile-error", "rate", "sandwich",
                                        "lemma31", "highfreq", "bounds"])
@pytest.mark.parametrize("data", [{"amplitude_rho": 1e160},
                                  {"amplitude_v": [1e160, 0.0]},
                                  {"width": 1e200}], ids=["rho", "v", "width"])
def test_cli_amplitude_whose_square_overflows_exits_2(tmp_path, capsys, subcommand, data):
    # |P0|^2 + Q0^2 bounds every energy density and the data envelope
    # e^(-s^2 |xi|^2 / 2) forms the square of the width s, so data whose
    # square is not finite are rejected before any field is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rejected_by_config(tmp_path, capsys, subcommand, {"data": data})
    path = tmp_path / "cfg.json"
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert "traceback" not in diagnostic and "overflows" in diagnostic["error"]


def test_cli_bounds_at_a_narrow_width(tmp_path):
    # the moment defect (e^(-s^2 r^2/2) - 1) times the moments has a squared
    # low-zone norm that scales as s^4; formed as a difference of exp and 1 it
    # lost its digits at small s and the norm no longer converged
    exit_code, verdict = _exit_and_verdict(tmp_path, "bounds", {"data": {"width": 1e-6}})
    assert (exit_code, verdict["pass"]) == (0, True)
    scaled = []
    for s in (1e-5, 1e-6, 1e-7):
        cfg = build_run_config("bounds", {"data": {"width": s}})
        norm = field_norm_sq(moment_defect_field, cfg.params, cfg.data, 16.0, "low",
                             cfg.rel_tol)
        scaled.append(norm.value / s ** 4)
    assert max(scaled) - min(scaled) <= 2 * DEFAULT_REL_TOL * min(scaled)


def test_cli_bounds_draws_only_positive_columns_on_its_log_axis(tmp_path):
    # at width 1e-100 the moment defect's norm (s^4) underflows to 0 at every
    # time: the run passes and writes its SVG without that column, which the
    # CSV still lists; at the defaults every plot column is drawn, so the SVG
    # is the one of the whole plot list
    plotted = ["meas_moment_defect", "bound_moment_defect", "meas_expansion",
               "bound_expansion"]
    for config, drawn in (({"data": {"width": 1e-100}}, plotted[1:]), ({}, plotted)):
        out = tmp_path / str(len(drawn))
        path = write_config(tmp_path, config)
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        columns = read_csv(str(out / "bounds.csv"))
        if len(drawn) < len(plotted):
            assert set(columns["meas_moment_defect"]) == {0.0}
        texts = [el.text for el in ET.parse(out / "bounds.svg").iter() if el.text]
        assert [name for name in plotted if name in texts] == drawn
        emit_svg(columns, drawn, AxesSpec(y_label="squared norm / bound",
                                          title="remainder bounds"), str(out / "all.svg"))
        assert (out / "bounds.svg").read_bytes() == (out / "all.svg").read_bytes()


def test_cli_lemma31_at_n5(tmp_path):
    # a dimension that no reference pins: the sine item against the Kummer
    # closed form of K_sin and the cosine item against |p0|^2/n (G(b, t) - K_sin)
    from oracles import sine_kernel_exact

    exit_code, verdict = _exit_and_verdict(tmp_path, "lemma31", {"params": {"n": 5}})
    assert (exit_code, verdict["pass"]) == (0, True)
    columns = read_csv(str(tmp_path / "out" / "lemma31.csv"))
    cfg = build_run_config("lemma31", {"params": {"n": 5}})
    for t, sine, cosine in zip(columns["t"], columns["sine_scaled"], columns["cosine_scaled"]):
        exact = sine_kernel_exact(cfg.params, t)
        gauss = gaussian_moment_bound(5, 0, cfg.params.b, t)
        assert sine / t ** 2.5 == pytest.approx(exact, rel=2 * cfg.rel_tol)
        assert cosine / t ** 2.5 == pytest.approx(cfg.data.p0_sq / 5 * (gauss - exact),
                                                  rel=2 * cfg.rel_tol)


def test_zero_density_moment_alone_is_accepted():
    cfg = build_run_config("profile-error", {"data": {"amplitude_rho": 0.0,
                                                      "amplitude_v": [0.1, 0.0]}})
    assert cfg.data.amplitude_rho == 0.0


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_threads_below_one_exits_2(tmp_path, capsys, threads):
    path = write_config(tmp_path, {})
    out = tmp_path / "out"
    assert main(["rate", "--config", path, "--out", str(out), "--threads", threads]) == 2
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error_type"] == "ConfigError"
    assert "--threads must be at least 1" in diagnostic["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv,subcommand,message", [
    (["nope"], None, "invalid choice: 'nope'"),
    (["rate"], "rate", "the following arguments are required: --config"),
    (["rate", "--config", "x", "--threads", "abc"], "rate",
     "argument --threads: invalid int value: 'abc'"),
    (["--config", "rate"], None, "the following arguments are required: subcommand"),
    (["--threads=abc", "--config=x", "rate"], "rate",
     "argument --threads: invalid int value: 'abc'"),
    (["rate", "--config"], "rate", "argument --config: expected one argument"),
    (["rate", "--out", "--config", "x"], "rate", "argument --out: expected one argument"),
    (["rate", "--config", "x", "--bogus", "1"], "rate", "unrecognized arguments: --bogus"),
    (["rate", "--conf", "x"], "rate", "unrecognized arguments: --conf"),
    (["rate", "plot", "--config", "x"], "rate", "unrecognized arguments: plot"),
], ids=["unknown-subcommand", "no-config", "non-integer-threads", "config-takes-the-subcommand",
        "equals-form-before-the-subcommand", "missing-config-value", "missing-out-value",
        "unknown-option", "abbreviated-option", "second-positional"])
def test_cli_argument_error_exits_2_with_a_diagnostic(capsys, argv, subcommand, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    diagnostic = json.loads(captured.err)
    assert diagnostic["subcommand"] == subcommand
    assert diagnostic["error_type"] == "ConfigError"
    assert message in diagnostic["error"]
    assert "traceback" not in diagnostic and "usage:" not in captured.err


def test_cli_takes_options_in_either_form_before_or_after_the_subcommand(tmp_path):
    path = write_config(tmp_path, {"time_grid": {"points": 8}})
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(["rate", "--config", path, "--out", str(spaced), "--threads", "2"]) == 0
    assert main([f"--out={joined}", f"--config={path}", "--threads=2", "rate"]) == 0
    for name in ("rate.csv", "rate.json", "rate.svg"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    assert "--threads" in usage
    assert all(sub in usage for sub in cli._RUNNERS)


@pytest.mark.parametrize("argv", [["-h"], ["rate", "--config", "x", "-h"]])
def test_cli_short_help_is_help(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    usage = capsys.readouterr().out
    with pytest.raises(SystemExit) as short_exit:
        main(argv)
    assert (short_exit.value.code, capsys.readouterr()) == (exit_info.value.code, (usage, ""))


def printed(code: str) -> str:
    """What ``code`` prints, stripped, in a fresh interpreter that imports
    this package from the source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_cli_import_loads_no_executor_machinery():
    # concurrent.futures pulls in logging and queue on every run
    code = ("import sys, nsprofile.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging', 'queue') "
            "if m in sys.modules))")
    assert printed(code) == "[]"


def test_cli_import_adds_no_module_beyond_numpys_budget():
    # the per-run import cost: the CLI may add json, the builtin SHA-256 and
    # the like to what numpy loads, but no argument-parsing machinery (argparse
    # loads gettext, and building a parser loads locale: the CLI parses its
    # one argument form itself), no executor, logging, queue, TLS or XML
    # machinery, no dataclasses (the records build no code), no copy (the
    # defaults are a literal) and no traceback (only an unanticipated error
    # loads it)
    code = ("import sys, numpy; loaded = set(sys.modules); import nsprofile.cli; "
            "print(sorted(m for m in set(sys.modules) - loaded if m.partition('.')[0] "
            "in ('argparse', 'gettext', 'locale', 'concurrent', 'logging', 'queue', 'ssl', "
            "'xml', 'dataclasses', 'copy', 'traceback')))")
    assert printed(code) == "[]"


def test_cli_runs_load_no_rng_or_openssl_machinery(tmp_path):
    # the oracle draws its directions from random.Random and, where the
    # interpreter has a builtin SHA-256 (_sha256 up to 3.11, _sha2 from 3.12),
    # the config hash does not load OpenSSL's _hashlib
    path = write_config(tmp_path, {})
    out = str(tmp_path / "out")
    code = ("import importlib.util, sys, nsprofile.cli as cli; "
            f"codes = [cli.main([s, '--config', {path!r}, '--out', {out!r}]) "
            "for s in ('oracle-check', 'rate')]; "
            "builtin = any(map(importlib.util.find_spec, ('_sha256', '_sha2'))); "
            "unwanted = ['numpy.random'] + (['_hashlib'] if builtin else []); "
            "print(codes, sorted(m for m in unwanted if m in sys.modules))")
    # the runs print their own status lines before the one checked here
    assert printed(code).splitlines()[-1] == "[0, 0] []"


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


@pytest.mark.parametrize("subcommand,component", [("profile-error", "velocity"),
                                                  ("density-profile-error", "density")])
def test_cli_remainder_svg_title_names_its_component(tmp_path, subcommand, component):
    out = tmp_path / "out"
    assert main([subcommand, "--config", write_config(tmp_path, {}), "--out", str(out)]) == 0
    texts = [el.text for el in ET.parse(out / f"{subcommand}.svg").iter()
             if el.tag.endswith("text")]
    assert texts[0].startswith(f"{component}-remainder-sq: slope ")


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


# Rss in KiB of the mappings whose path names OpenBLAS, None if there are none
OPENBLAS_RSS = '''
def openblas_rss():
    sizes, inside = [], False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            key, _, rest = line.partition(" ")
            if not key.endswith(":"):  # a mapping's header line
                inside = "openblas" in rest
            elif inside and key == "Rss:":
                sizes.append(int(rest.split()[0]))
    return sum(sizes) if sizes else None
'''


@pytest.mark.parametrize("n, subcommands", [(2, COMPUTE_SUBCOMMANDS),
                                            (3, COMPUTE_SUBCOMMANDS[1:])], ids=["n2", "n3"])
def test_cli_runs_page_in_no_openblas(tmp_path, n, subcommands):
    # runtime code calls no BLAS-backed numpy function (see the spectral
    # docstring): the first call would page OpenBLAS code and buffers in
    if not Path("/proc/self/smaps").exists():
        pytest.skip("no /proc/self/smaps to read the mappings from")
    path = write_config(tmp_path, {"params": {"n": n}})
    out = str(tmp_path / "out")
    code = OPENBLAS_RSS + (
        "import json, nsprofile.cli as cli\n"
        "before = openblas_rss()\n"
        f"codes = [cli.main([s, '--config', {path!r}, '--out', {out!r}]) for s in {subcommands!r}]\n"
        "print(json.dumps([codes, before, openblas_rss()]))\n")
    codes, before, after = json.loads(printed(code).splitlines()[-1])
    if before is None:
        pytest.skip("this numpy maps no OpenBLAS library")
    assert codes == [0] * len(subcommands)
    assert after == before, f"OpenBLAS Rss grew from {before} to {after} KiB"


def test_cli_unexpected_runner_error_exits_2(tmp_path, monkeypatch, capsys):
    def broken(cfg):
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


def test_cli_moment_off_the_first_axis_matches_its_rotation(tmp_path):
    # the fields depend on the velocity moment only through |P0| and the
    # cosine u of its angle to xi, so a moment off e1 gives the verdicts of
    # the same moment rotated onto e1
    columns = {}
    for label, moment in (("diagonal", [0.05, 0.05]), ("axis", [0.05 * math.sqrt(2), 0.0])):
        path = write_config(tmp_path, {"params": {"n": 2}, "data": {"amplitude_v": moment}},
                            name=f"{label}.json")
        for sub in COMPUTE_SUBCOMMANDS[1:]:
            out = tmp_path / label
            assert main([sub, "--config", path, "--out", str(out)]) != 2
            columns[label, sub] = read_csv(str(out / f"{sub}.csv"))
    for sub in COMPUTE_SUBCOMMANDS[1:]:
        diagonal, axis = columns["diagonal", sub], columns["axis", sub]
        assert diagonal.keys() == axis.keys()
        for name in axis:
            for got, want in zip(diagonal[name], axis[name]):
                assert abs(got - want) <= 1e-12 * abs(want), (sub, name, got, want)
