"""Batch CLI: run verification workflows and emit CSV / JSON / SVG artifacts.

    nsprofile <subcommand> --config <file> [--out <dir>] [--threads N]

Each subcommand writes ``<out>/<subcommand>.csv`` (the series it computed),
``<subcommand>.json`` (verdict, fitted numbers, thresholds, config hash) and,
unless disabled, ``<subcommand>.svg``.  Exit status: 0 when every verdict
passes, 1 on a verdict failure, 2 on argument, configuration or numerical
errors and on any other error (with a diagnostic JSON on stderr, never a
traceback).
Each runner takes its series and norms from ``decay``, judges its verdict
against its pass mark in ``THRESHOLDS``, and returns (verdict, columns, plot).
Inner norm evaluations run on ``--threads`` threads with an order-preserving
map, so results are byte-identical for any thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from functools import partial

import numpy as np

from .config import ConfigError, RunConfig, load_config_file
from .decay import (
    check_moment_ratio,
    fit_loglog,
    fit_semilog,
    highfreq_energy_series,
    kernel_series,
    measured_remainder_norms,
    ordered_map,
    remainder_series,
    tail_window,
    velocity_norm_series,
)
from .model import fourier_data_batch
from .profiles import gaussian_moment_bound, remainder_bounds
from .quadrature import QuadratureError
from .reporting import AxesSpec, emit_csv, emit_svg, read_csv
from .spectral import solve_exact_batch, solve_ode_oracle_batch

# the verdicts' pass marks, fixed so that a config names a run and not its
# pass mark; every verdict JSON lists them
THRESHOLDS = {"rate_slope_tol": 0.05, "remainder_slope_margin": 0.1,
              "sandwich_max_ratio": 2.0, "kernel_max_ratio": 4.0,
              "oracle_max_rel_err": 1.0e-8, "oracle_runtime_budget_s": 30.0,
              "bounds_cushion": 1.05, "highfreq_min_r_squared": 0.99}

# oracle-check grid: geometric radii (plus two at delta0 (1 -+ 1e-3)) and times,
# and the RK4 step, which fixes the oracle's accuracy against its pass mark
_ORACLE_RADII = np.geomspace(0.05, 5.0, 8)
_ORACLE_TIMES = np.geomspace(0.1, 20.0, 10)
_ORACLE_STEP = 1e-4


def run_oracle_check(cfg: RunConfig, threads: int):
    delta0 = cfg.params.delta0
    radii = np.sort(np.concatenate([_ORACLE_RADII, [delta0 * 0.999, delta0 * 1.001]]))
    n_r, n_t = radii.size, _ORACLE_TIMES.size
    # random.Random is loaded at interpreter start; numpy.random would add 16 modules
    rng = random.Random(cfg.oracle["seed"])
    angles = 2.0 * math.pi * np.array([[rng.random() for _ in range(n_r)] for _ in range(n_t)])

    start = time.perf_counter()
    columns = {"r": [], "t": [], "rel_err": []}
    for j, t in enumerate(_ORACLE_TIMES):
        dirs = np.zeros((n_r, cfg.params.n))
        dirs[:, 0] = np.cos(angles[j])
        dirs[:, 1] = np.sin(angles[j])
        xi = radii[:, None] * dirs
        v_e, rho_e = solve_exact_batch(cfg.params, cfg.data, xi, float(t))
        v_o, rho_o = solve_ode_oracle_batch(cfg.params, cfg.data, xi, float(t), _ORACLE_STEP)
        exact = np.concatenate([v_e, rho_e[:, None]], axis=1)
        oracle = np.concatenate([v_o, rho_o[:, None]], axis=1)
        v_0, rho_0 = fourier_data_batch(cfg.data, xi)
        gap = np.linalg.norm(exact - oracle, axis=1)
        # the gap is taken relative to |y(0)|, the data transform at xi: the
        # flow does not increase |y|, so this bounds the state at every t,
        # while the state itself may have decayed to nothing by t.  A gap as
        # large as the datum is total disagreement, so rel_err is capped at 1,
        # and where the data envelope underflows exact agreement counts as 0
        size = np.linalg.norm(np.concatenate([v_0, rho_0[:, None]], axis=1), axis=1)
        with np.errstate(invalid="ignore"):
            rel = np.where(gap == 0.0, 0.0, gap / np.maximum(size, gap))
        columns["r"].extend(radii)
        columns["t"].extend([t] * n_r)
        columns["rel_err"].extend(rel)
    worst = float(max(columns["rel_err"]))
    runtime = time.perf_counter() - start

    # measured seconds go to stdout only: verdict files must be byte-identical
    # across runs, so they carry the boolean gate, not the wall time
    print(f"oracle-check runtime: {runtime:.2f}s", flush=True)
    in_budget = runtime <= THRESHOLDS["oracle_runtime_budget_s"]
    verdict = {
        "pass": worst <= THRESHOLDS["oracle_max_rel_err"] and in_budget,
        "metrics": {"max_rel_err": worst, "runtime_within_budget": in_budget,
                    "step": _ORACLE_STEP, "grid": {"radii": n_r, "times": n_t}},
    }
    return verdict, columns, None


def run_remainder(component: str, cfg: RunConfig, threads: int):
    series = remainder_series(cfg.params, cfg.data, cfg.times, component,
                              cfg.rel_tol, threads)
    fit = fit_loglog(series)
    expected = -(cfg.params.n / 2 + 1)
    threshold = expected + THRESHOLDS["remainder_slope_margin"]
    verdict = {
        "pass": fit.slope <= threshold,
        "metrics": {"slope": fit.slope, "intercept": fit.intercept,
                    "r_squared": fit.r_squared, "threshold_slope": threshold,
                    "expected_slope": expected},
        "window": list(fit.window),
    }
    columns = {"t": series.times, "remainder_norm_sq": series.values}
    plot = (["remainder_norm_sq"],
            AxesSpec(y_label="squared low-zone remainder norm",
                     title=f"{series.label}: slope {fit.slope:.3f}", guide_slope=expected))
    return verdict, columns, plot


def run_rate(cfg: RunConfig, threads: int):
    check_moment_ratio(cfg.params, cfg.data)
    series = velocity_norm_series(cfg.params, cfg.data, cfg.times, cfg.rel_tol, threads)
    fit = fit_loglog(series)
    expected = -cfg.params.n / 4.0
    tol = THRESHOLDS["rate_slope_tol"]
    verdict = {
        "pass": abs(fit.slope - expected) <= tol,
        "metrics": {"slope": fit.slope, "expected_slope": expected, "tolerance": tol,
                    "intercept": fit.intercept, "r_squared": fit.r_squared},
        "window": list(fit.window),
    }
    columns = {"t": series.times, "velocity_norm": series.values}
    plot = (["velocity_norm"],
            AxesSpec(y_label="velocity norm", title=f"decay rate: slope {fit.slope:.3f}",
                     guide_slope=expected))
    return verdict, columns, plot


def _plateau(scaled: np.ndarray, max_ratio: float) -> dict:
    """Extremes of ``scaled`` on its tail window and their ratio; two-sided
    (sandwich) behavior passes when the minimum is positive and the ratio is
    at most ``max_ratio``."""
    lo, hi = tail_window(scaled.size)
    low, high = float(np.min(scaled[lo:hi])), float(np.max(scaled[lo:hi]))
    ratio = high / low if low > 0 else math.inf
    return {"plateau_min": low, "plateau_max": high, "ratio": ratio,
            "pass": low > 0 and ratio <= max_ratio}


def run_sandwich(cfg: RunConfig, threads: int):
    # two-sided optimality: ||v(t)|| t^{n/4} must plateau on the tail
    check_moment_ratio(cfg.params, cfg.data)
    series = velocity_norm_series(cfg.params, cfg.data, cfg.times, cfg.rel_tol, threads)
    scaled = series.values * series.times ** (cfg.params.n / 4)
    max_ratio = THRESHOLDS["sandwich_max_ratio"]
    plateau = _plateau(scaled, max_ratio)
    passed = plateau.pop("pass")
    verdict = {
        "pass": passed,
        "metrics": {**plateau, "max_ratio": max_ratio, "normalized_last": float(scaled[-1])},
        "window": list(tail_window(scaled.size)),
    }
    columns = {"t": series.times, "velocity_norm": series.values, "normalized": scaled}
    plot = (["normalized"],
            AxesSpec(y_label="normalized velocity norm", y_log=False,
                     title=f"sandwich plateau: ratio {plateau['ratio']:.4f}"))
    return verdict, columns, plot


def run_lemma31(cfg: RunConfig, threads: int):
    # each profile-term integral, scaled by t^{n/2}, must plateau on the tail
    n = cfg.params.n
    heat, sine, cosine, witness = kernel_series(cfg.params, cfg.data, cfg.times, cfg.rel_tol,
                                                threads)
    scale = cfg.times ** (n / 2)
    max_ratio = THRESHOLDS["kernel_max_ratio"]
    items = {label: _plateau(values * scale, max_ratio)
             for label, values in (("heat-projection", heat), ("acoustic-sine", sine),
                                   ("damped-cosine", cosine))}
    # lower-bound witness: a quarter of the conical-region mass never exceeds
    # the full cosine integral.  Both are multiples of the one cosine mass
    # G(b, t) - K_sin(t), so witness/cosine is the constant
    # n |cap| / (4 |S^(n-1)|) (1/6 at n = 2, 3/16 at n = 3): the check cannot
    # fail, and it is kept as a guard on the two cap measures
    witness_ok = bool(np.all(witness <= cosine * (1 + 1e-9)))
    verdict = {
        "pass": all(item["pass"] for item in items.values()) and witness_ok,
        "metrics": {"items": items,
                    # t^{n/2} K_sin(t) -> G(b, 1)/2: sin^2 averages to 1/2
                    "sine_limit": 0.5 * gaussian_moment_bound(n, 0, cfg.params.b, 1.0),
                    "witness_ok": witness_ok, "max_ratio": max_ratio},
        "window": list(tail_window(cfg.times.size)),
    }
    columns = {"t": cfg.times, "heat_scaled": heat * scale, "sine_scaled": sine * scale,
               "cosine_scaled": cosine * scale, "witness_scaled": witness * scale}
    plot = (list(columns)[1:],
            AxesSpec(y_label="t^{n/2}-scaled integral", y_log=False, title="kernel plateaus"))
    return verdict, columns, plot


def run_highfreq(cfg: RunConfig, threads: int):
    series, e_h0 = highfreq_energy_series(cfg.params, cfg.data, cfg.times, cfg.rel_tol,
                                          threads)
    fit = fit_semilog(series)
    times, values = series.times, series.values
    # averaged-energy inequality int_t^T E_h <= T0 E_h(t): T0 is the largest
    # sampled ratio, so it holds at every sample by construction, and it
    # implies E_h(t) <= E_h(0) e^{1 - t/T0} for t >= T0, re-checked on the grid
    remaining = np.array([float(np.trapezoid(values[i:], times[i:]))
                          for i in range(times.size - 1)])
    t0 = float(np.max(remaining / values[:-1]))
    komornik_holds = bool(np.all(remaining <= t0 * values[:-1] * (1 + 1e-12)))
    bound = e_h0 * np.exp(1.0 - times / t0)
    on_grid = times >= t0
    conclusion = bool(np.all(values[on_grid] <= bound[on_grid] * (1 + 1e-9)))
    nonincreasing = bool(np.all(np.diff(values) <= values[:-1] * 1e-12))
    verdict = {
        "pass": (nonincreasing and fit.slope < 0
                 and fit.r_squared >= THRESHOLDS["highfreq_min_r_squared"]
                 and komornik_holds and conclusion),
        "metrics": {"slope": fit.slope, "r_squared": fit.r_squared,
                    "komornik_t0": t0, "initial_energy": e_h0,
                    "nonincreasing": nonincreasing,
                    "komornik_holds": komornik_holds,
                    "conclusion_holds": conclusion},
        "window": list(fit.window),
    }
    columns = {"t": times, "energy": values, "exp_bound": bound}
    plot = (["energy", "exp_bound"],
            AxesSpec(x_log=False, y_label="high-zone energy",
                     title=f"high-frequency decay: rate {-fit.slope:.3f}"))
    return verdict, columns, plot


def run_bounds(cfg: RunConfig, threads: int):
    cushion = THRESHOLDS["bounds_cushion"]

    def row_at(t: float):
        measured = measured_remainder_norms(cfg.params, cfg.data, t, cfg.rel_tol)
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
    columns = {key: [row[key] for row, _ in results] for key in results[0][0]}
    verdict = {"pass": all(ok for _, ok in results),
               "metrics": {"cushion": cushion, "points": len(results)}}
    plot = (["meas_moment_defect", "bound_moment_defect", "meas_expansion", "bound_expansion"],
            AxesSpec(y_label="squared norm / bound", title="remainder bounds"))
    return verdict, columns, plot


def run_plot(cfg: RunConfig, threads: int):
    p = cfg.plot
    if not p["input_csv"]:
        raise ConfigError("plot.input_csv is required")
    columns = read_csv(p["input_csv"])
    x = p["x"]
    if x not in columns:
        raise ConfigError(f"plot.x column {x!r} not in CSV header")
    ys = p["y"] or [c for c in columns if c != x]
    for y in ys:
        if y not in columns:
            raise ConfigError(f"plot.y column {y!r} not in CSV header")
    axes_kind = p["axes"]
    if axes_kind not in ("loglog", "semilogy", "linear"):
        raise ConfigError(f"plot.axes must be loglog/semilogy/linear, got {axes_kind!r}")
    axes = AxesSpec(x_label=x, y_label=",".join(ys), title=p["title"],
                    x_log=axes_kind == "loglog", y_log=axes_kind != "linear")
    verdict = {"pass": True, "metrics": {"input": p["input_csv"], "columns": ys,
                                         "rows": len(columns[x])}}
    return verdict, columns, (ys, axes)


_ANTICIPATED = (ConfigError, QuadratureError, ArithmeticError, ValueError, OSError)

_RUNNERS = {
    "oracle-check": run_oracle_check,
    "profile-error": partial(run_remainder, "velocity"),
    "density-profile-error": partial(run_remainder, "density"),
    "rate": run_rate,
    "sandwich": run_sandwich,
    "lemma31": run_lemma31,
    "highfreq": run_highfreq,
    "bounds": run_bounds,
    "plot": run_plot,
}


def _write_outputs(cfg: RunConfig, out_dir: str, verdict: dict, columns: dict, plot) -> None:
    """Write the CSV of ``columns``, the verdict JSON and, given a ``plot`` (y
    column names, axes), the SVG of those columns (see :func:`emit_svg`)."""
    os.makedirs(out_dir, exist_ok=True)
    name = cfg.subcommand
    emit_csv(columns, os.path.join(out_dir, f"{name}.csv"))
    payload = {
        "subcommand": name,
        "pass": bool(verdict["pass"]),
        "config_hash": cfg.config_hash,
        "thresholds": THRESHOLDS,
        **{k: v for k, v in verdict.items() if k != "pass"},
    }
    with open(os.path.join(out_dir, f"{name}.json"), "w", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if plot is not None and cfg.emit_svg:
        emit_svg(columns, *plot, os.path.join(out_dir, f"{name}.svg"))


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a :class:`ConfigError` on bad arguments instead of exiting, so
    that they take the exit-2 path with a diagnostic JSON."""

    def error(self, message: str):
        raise ConfigError(message)


_PARSER = _ArgumentParser(
    prog="nsprofile",
    description="Frequency-space decay verification for a linearized "
                "compressible viscous flow model.",
)
_PARSER.add_argument("subcommand", choices=_RUNNERS, metavar="subcommand",
                     help=", ".join(_RUNNERS))
_PARSER.add_argument("--config", required=True, help="JSON run configuration")
_PARSER.add_argument("--out", default="out", help="output directory (default: out)")
_PARSER.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _PARSER.parse_args(argv)
    except ConfigError as exc:
        return _fail({"subcommand": next((a for a in argv if a in _RUNNERS), None)}, exc)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = load_config_file(args.subcommand, args.config)
    except Exception as exc:  # every failure exits 2; exit 1 means a verdict failed
        return _fail({"subcommand": args.subcommand}, exc)

    try:
        verdict, columns, plot = _RUNNERS[args.subcommand](cfg, args.threads)
        _write_outputs(cfg, args.out, verdict, columns, plot)
    except Exception as exc:
        diagnostic = {"subcommand": args.subcommand, "pass": False,
                      "config_hash": cfg.config_hash}
        return _fail(diagnostic, exc, os.path.join(args.out, f"{args.subcommand}.json"))
    return 0 if verdict["pass"] else 1


def _fail(diagnostic: dict, exc: Exception, path: str | None = None) -> int:
    """Write the diagnostic JSON of ``exc`` to stderr (and to ``path``); return 2.

    An error other than the anticipated input and numerical ones also
    carries its stack frames, so the defect behind it can be located.
    """
    diagnostic = {**diagnostic, "error": str(exc), "error_type": type(exc).__name__}
    if not isinstance(exc, _ANTICIPATED):
        import traceback  # here, so that only an unanticipated error loads it
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
