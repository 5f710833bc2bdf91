"""Batch CLI: run verification workflows and emit CSV / JSON / SVG artifacts.

    nsprofile <subcommand> --config <file> [--out <dir>] [--threads N]

Each subcommand writes ``<out>/<subcommand>.csv`` (the series it computed),
``<subcommand>.json`` (verdict, fitted numbers, thresholds, config hash) and,
unless disabled, ``<subcommand>.svg``.  Exit status: 0 when every verdict
passes, 1 on a verdict failure, 2 on configuration or numerical errors and on
any other error (with a diagnostic JSON on stderr, never a traceback).
Inner norm evaluations run on a thread pool with an order-preserving reduce,
so results are byte-identical for any thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from .config import ConfigError, RunConfig, load_config_file
from .decay import (
    check_moment_ratio,
    density_remainder_series,
    fit_loglog,
    highfreq_energy,
    ordered_map,
    velocity_norm_series,
    velocity_remainder_series,
    verify_kernel_plateaus,
    verify_sandwich,
)
from .model import moments
from .profiles import measured_remainder_norms, remainder_bounds
from .quadrature import QuadratureError
from .reporting import AxesSpec, Series, emit_csv, emit_svg, read_csv
from .spectral import solve_exact_batch, solve_ode_oracle_batch

SUBCOMMANDS = ("oracle-check", "profile-error", "density-profile-error", "rate",
               "sandwich", "lemma31", "highfreq", "bounds", "plot")


def _series_from_rows(rows, x: str, ys: list[str]) -> list[Series]:
    return [Series(label=y, x=tuple(r[x] for r in rows), y=tuple(r[y] for r in rows))
            for y in ys]


def run_oracle_check(cfg: RunConfig, threads: int):
    o = cfg.oracle
    n_r, n_t = int(o["radii"]), int(o["times"])
    if n_r < 4 or n_t < 2:
        raise ConfigError("oracle grid needs at least 4 radii and 2 times")
    delta0 = cfg.params.delta0
    radii = np.sort(np.concatenate([
        np.geomspace(float(o["r_min"]), float(o["r_max"]), n_r - 2),
        [delta0 * 0.999, delta0 * 1.001],
    ]))
    times = np.geomspace(float(o["t_min"]), float(o["t_max"]), n_t)
    rng = np.random.default_rng(int(o["seed"]))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(n_t, n_r))
    step = float(o["step"])

    start = time.perf_counter()
    rows = []
    worst = 0.0
    for j, t in enumerate(times):
        dirs = np.zeros((n_r, cfg.params.n))
        dirs[:, 0] = np.cos(angles[j])
        if cfg.params.n > 1:
            dirs[:, 1] = np.sin(angles[j])
        xi = radii[:, None] * dirs
        v_e, rho_e = solve_exact_batch(cfg.params, cfg.data, xi, float(t))
        v_o, rho_o = solve_ode_oracle_batch(cfg.params, cfg.data, xi, float(t), step)
        exact = np.concatenate([v_e, rho_e[:, None]], axis=1)
        oracle = np.concatenate([v_o, rho_o[:, None]], axis=1)
        rel = (np.linalg.norm(exact - oracle, axis=1)
               / np.linalg.norm(exact, axis=1))
        worst = max(worst, float(np.max(rel)))
        rows.extend({"r": float(r), "t": float(t), "rel_err": float(e)}
                    for r, e in zip(radii, rel))
    runtime = time.perf_counter() - start

    # measured seconds go to stdout only: verdict files must be byte-identical
    # across runs, so they carry the boolean gate, not the wall time
    print(f"oracle-check runtime: {runtime:.2f}s", flush=True)
    budget = cfg.thresholds["oracle_runtime_budget_s"]
    tol = cfg.thresholds["oracle_max_rel_err"]
    verdict = {
        "pass": worst <= tol and runtime <= budget,
        "metrics": {"max_rel_err": worst, "runtime_within_budget": runtime <= budget,
                    "step": step, "grid": {"radii": n_r, "times": n_t}},
    }
    return verdict, rows, None


def run_profile_error(cfg: RunConfig, threads: int):
    series = velocity_remainder_series(cfg.params, cfg.data, cfg.times,
                                       cfg.quadrature, threads)
    return _remainder_verdict(cfg, series)


def run_density_profile_error(cfg: RunConfig, threads: int):
    series = density_remainder_series(cfg.params, cfg.data, cfg.times,
                                      cfg.quadrature, threads)
    return _remainder_verdict(cfg, series)


def _remainder_verdict(cfg: RunConfig, series):
    fit = fit_loglog(series)
    expected = -(cfg.params.n / 2 + 1)
    threshold = expected + cfg.thresholds["remainder_slope_margin"]
    rows = [{"t": float(t), "remainder_norm_sq": float(v)}
            for t, v in zip(series.times, series.values)]
    verdict = {
        "pass": fit.slope <= threshold,
        "metrics": {"slope": fit.slope, "intercept": fit.intercept,
                    "r_squared": fit.r_squared, "threshold_slope": threshold,
                    "expected_slope": expected},
        "window": list(fit.window),
    }
    svg = (_series_from_rows(rows, "t", ["remainder_norm_sq"]),
           AxesSpec(y_label="squared low-zone remainder norm",
                    title=f"{series.label}: slope {fit.slope:.3f}",
                    guide_slope=expected))
    return verdict, rows, svg


def run_rate(cfg: RunConfig, threads: int):
    check_moment_ratio(cfg.params, cfg.data)
    series = velocity_norm_series(cfg.params, cfg.data, cfg.times, cfg.quadrature, threads)
    fit = fit_loglog(series)
    expected = -cfg.params.n / 4.0
    tol = cfg.thresholds["rate_slope_tol"]
    rows = [{"t": float(t), "velocity_norm": float(v)}
            for t, v in zip(series.times, series.values)]
    verdict = {
        "pass": abs(fit.slope - expected) <= tol,
        "metrics": {"slope": fit.slope, "expected_slope": expected, "tolerance": tol,
                    "intercept": fit.intercept, "r_squared": fit.r_squared},
        "window": list(fit.window),
    }
    svg = (_series_from_rows(rows, "t", ["velocity_norm"]),
           AxesSpec(y_label="velocity norm", title=f"decay rate: slope {fit.slope:.3f}",
                    guide_slope=expected))
    return verdict, rows, svg


def run_sandwich(cfg: RunConfig, threads: int):
    rep = verify_sandwich(cfg.params, cfg.data, cfg.times, cfg.quadrature, threads)
    max_ratio = cfg.thresholds["sandwich_max_ratio"]
    n4 = cfg.params.n / 4.0
    rows = [{"t": float(t), "velocity_norm": float(v * t ** -n4), "normalized": float(v)}
            for t, v in zip(rep.times, rep.normalized_values)]
    verdict = {
        "pass": rep.passed(max_ratio),
        "metrics": {"plateau_min": rep.plateau_min, "plateau_max": rep.plateau_max,
                    "ratio": rep.ratio, "max_ratio": max_ratio,
                    "normalized_last": float(rep.normalized_values[-1])},
        "window": list(rep.window),
    }
    svg = (_series_from_rows(rows, "t", ["normalized"]),
           AxesSpec(y_label="normalized velocity norm", y_log=False,
                    title=f"sandwich plateau: ratio {rep.ratio:.4f}"))
    return verdict, rows, svg


def run_lemma31(cfg: RunConfig, threads: int):
    p0 = moments(cfg.data).P0
    rep = verify_kernel_plateaus(cfg.params, p0, cfg.times, cfg.quadrature, threads)
    max_ratio = cfg.thresholds["kernel_max_ratio"]
    rows = [
        {"t": float(t),
         "heat_scaled": float(rep.heat_projection.scaled_values[i]),
         "sine_scaled": float(rep.acoustic_sine.scaled_values[i]),
         "cosine_scaled": float(rep.damped_cosine.scaled_values[i]),
         "witness_scaled": float(rep.witness_scaled[i])}
        for i, t in enumerate(cfg.times)
    ]
    items = {}
    for item in (rep.heat_projection, rep.acoustic_sine, rep.damped_cosine):
        items[item.label] = {"plateau_min": item.plateau_min,
                             "plateau_max": item.plateau_max, "ratio": item.ratio,
                             "pass": item.passed(max_ratio)}
    verdict = {
        "pass": rep.passed(max_ratio),
        "metrics": {"items": items, "sine_limit": rep.sine_limit,
                    "witness_ok": rep.witness_ok, "max_ratio": max_ratio},
        "window": list(rep.heat_projection.window),
    }
    svg = (_series_from_rows(rows, "t",
                             ["heat_scaled", "sine_scaled", "cosine_scaled",
                              "witness_scaled"]),
           AxesSpec(y_label="t^{n/2}-scaled integral", y_log=False,
                    title="kernel plateaus"))
    return verdict, rows, svg


def run_highfreq(cfg: RunConfig, threads: int):
    rep = highfreq_energy(cfg.params, cfg.data, cfg.times, cfg.quadrature, threads)
    bound = rep.initial_energy * np.exp(1.0 - rep.series.times / rep.komornik_t0)
    rows = [{"t": float(t), "energy": float(v), "exp_bound": float(b)}
            for t, v, b in zip(rep.series.times, rep.series.values, bound)]
    verdict = {
        "pass": rep.passed(cfg.thresholds["highfreq_min_r_squared"]),
        "metrics": {"slope": rep.exp_fit.slope, "r_squared": rep.exp_fit.r_squared,
                    "komornik_t0": rep.komornik_t0, "initial_energy": rep.initial_energy,
                    "nonincreasing": rep.nonincreasing,
                    "komornik_holds": rep.komornik_holds,
                    "conclusion_holds": rep.conclusion_holds},
        "window": list(rep.exp_fit.window),
    }
    svg = (_series_from_rows(rows, "t", ["energy", "exp_bound"]),
           AxesSpec(x_log=False, y_label="high-zone energy",
                    title=f"high-frequency decay: rate {-rep.exp_fit.slope:.3f}"))
    return verdict, rows, svg


def run_bounds(cfg: RunConfig, threads: int):
    cushion = cfg.thresholds["bounds_cushion"]

    def row_at(t: float):
        measured = measured_remainder_norms(cfg.params, cfg.data, t, cfg.quadrature)
        rb = remainder_bounds(cfg.params, cfg.data, t)
        triangle = sum(math.sqrt(e) for e in rb.expansion) ** 2
        row = {
            "t": t,
            "meas_moment_defect": measured["moment_defect"],
            "bound_moment_defect": rb.moment_defect,
            "meas_sine_correction": measured["sine_correction"],
            "bound_sine_correction": rb.sine_correction,
            "meas_expansion": measured["expansion"],
            "bound_expansion": triangle,
        }
        for i, e in enumerate(rb.expansion, start=1):
            row[f"bound_exp{i}"] = e
        row["bound_total"] = rb.total
        ok = (measured["moment_defect"] <= rb.moment_defect * cushion
              and measured["sine_correction"] <= rb.sine_correction * cushion + 1e-300
              and measured["expansion"] <= triangle * cushion + 1e-300)
        return row, ok

    results = ordered_map(row_at, [float(t) for t in cfg.times], threads)
    rows = [row for row, _ in results]
    ok = all(flag for _, flag in results)
    verdict = {"pass": ok, "metrics": {"cushion": cushion, "points": len(rows)}}
    svg = (_series_from_rows(rows, "t",
                             ["meas_moment_defect", "bound_moment_defect",
                              "meas_expansion", "bound_expansion"]),
           AxesSpec(y_label="squared norm / bound", title="remainder bounds"))
    return verdict, rows, svg


def run_plot(cfg: RunConfig, threads: int):
    p = cfg.plot
    if not p["input_csv"]:
        raise ConfigError("plot.input_csv is required")
    rows = read_csv(p["input_csv"])
    x = p["x"]
    if x not in rows[0]:
        raise ConfigError(f"plot.x column {x!r} not in CSV header")
    ys = p["y"] or [c for c in rows[0] if c != x]
    for y in ys:
        if y not in rows[0]:
            raise ConfigError(f"plot.y column {y!r} not in CSV header")
    axes_kind = p["axes"]
    if axes_kind not in ("loglog", "semilogy", "linear"):
        raise ConfigError(f"plot.axes must be loglog/semilogy/linear, got {axes_kind!r}")
    axes = AxesSpec(x_label=x, y_label=",".join(ys), title=p.get("title", ""),
                    x_log=axes_kind == "loglog", y_log=axes_kind != "linear")
    series = _series_from_rows(rows, x, ys)
    verdict = {"pass": True, "metrics": {"input": p["input_csv"], "columns": ys,
                                         "rows": len(rows)}}
    return verdict, rows, (series, axes)


_ANTICIPATED = (ConfigError, QuadratureError, ArithmeticError, ValueError, OSError)

_RUNNERS = {
    "oracle-check": run_oracle_check,
    "profile-error": run_profile_error,
    "density-profile-error": run_density_profile_error,
    "rate": run_rate,
    "sandwich": run_sandwich,
    "lemma31": run_lemma31,
    "highfreq": run_highfreq,
    "bounds": run_bounds,
    "plot": run_plot,
}


def _write_outputs(cfg: RunConfig, out_dir: str, verdict: dict, rows, svg) -> None:
    os.makedirs(out_dir, exist_ok=True)
    name = cfg.subcommand
    emit_csv(rows, os.path.join(out_dir, f"{name}.csv"))
    payload = {
        "subcommand": name,
        "pass": bool(verdict["pass"]),
        "config_hash": cfg.config_hash,
        "thresholds": cfg.thresholds,
        **{k: v for k, v in verdict.items() if k != "pass"},
    }
    with open(os.path.join(out_dir, f"{name}.json"), "w", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if svg is not None and cfg.emit_svg:
        series, axes = svg
        emit_svg(series, axes, os.path.join(out_dir, f"{name}.svg"))


def _env_threads() -> int:
    raw = os.environ.get("NSPROFILE_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"NSPROFILE_THREADS must be an integer, got {raw!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsprofile",
        description="Frequency-space decay verification for a linearized "
                    "compressible viscous flow model.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default NSPROFILE_THREADS or 1)")
    args = parser.parse_args(argv)

    try:
        threads = max(1, args.threads if args.threads is not None else _env_threads())
        cfg = load_config_file(args.subcommand, args.config)
    except Exception as exc:  # every failure exits 2; exit 1 means a verdict failed
        return _fail({"subcommand": args.subcommand}, exc)

    out_dir = args.out or cfg.output_dir
    try:
        verdict, rows, svg = _RUNNERS[args.subcommand](cfg, threads)
        _write_outputs(cfg, out_dir, verdict, rows, svg)
    except Exception as exc:
        diagnostic = {"subcommand": args.subcommand, "pass": False,
                      "config_hash": cfg.config_hash}
        return _fail(diagnostic, exc, os.path.join(out_dir, f"{args.subcommand}.json"))
    return 0 if verdict["pass"] else 1


def _fail(diagnostic: dict, exc: Exception, path: str | None = None) -> int:
    """Write the diagnostic JSON of ``exc`` to stderr (and to ``path``); return 2.

    An error other than the anticipated input and numerical ones also
    carries its stack frames, so the defect behind it can be located.
    """
    diagnostic = {**diagnostic, "error": str(exc), "error_type": type(exc).__name__}
    if not isinstance(exc, _ANTICIPATED):
        diagnostic["traceback"] = traceback.format_tb(exc.__traceback__)
    if path is not None:
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(diagnostic, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError:
            pass
    json.dump(diagnostic, sys.stderr, indent=2)
    sys.stderr.write("\n")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
