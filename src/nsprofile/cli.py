"""Batch CLI: run verification workflows and emit CSV / JSON / SVG artifacts.

    nsprofile <subcommand> --config PATH [--out DIR] [--threads N]

Options take ``--opt value`` or ``--opt=value``, before or after the
subcommand; ``-h`` or ``--help`` prints the usage.
Each subcommand writes ``<out>/<subcommand>.csv`` (the series it computed),
``<subcommand>.json`` (verdict, fitted numbers, thresholds, config hash) and,
unless disabled, ``<subcommand>.svg``.  Exit status: 0 when every verdict
passes, 1 on a verdict failure, 2 on argument, configuration or numerical
errors and on any other error (with a diagnostic JSON on stderr, never a
traceback).
Each verdict runner builds its series of norms with ``decay.zone_series``
(``lemma31`` takes its acoustic sine kernel from ``decay.sine_kernel_integral``
at each time: the norm of the velocity profile at the unit density datum),
judges its verdict against its pass mark in ``THRESHOLDS``, and returns
(verdict, columns, plot).
Every run computes on the calling thread.  ``--threads N`` is still accepted
and checked (N below 1 exits 2) but changes nothing: at the default sizes a
zone norm is a run of short numpy calls that hold the GIL, so worker threads
saved no time and cost memory.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from functools import partial

import numpy as np

from . import decay
from .config import ConfigError, RunConfig, geometric_grid, load_config_file
from .decay import (
    DecaySeries,
    check_moment_ratio,
    energy_field,
    fit_loglog,
    fit_semilog,
    highfreq_initial_energy,
    ordered_map,
    remainder_field,
    tail_window,
    velocity_field,
    zone_series,
)
from .model import fourier_data_batch
from .profiles import (
    expansion_field,
    gaussian_moment_bound,
    moment_defect_field,
    remainder_bounds,
    sine_correction_field,
)
from .quadrature import QuadratureError, cone_cap_area, sphere_area
from .reporting import AxesSpec, emit_csv, emit_svg, read_csv
from .spectral import solve_exact_batch, solve_ode_oracle_batch

# the verdicts' pass marks, fixed so that a config names a run and not its
# pass mark; every verdict JSON lists them
THRESHOLDS = {"rate_slope_tol": 0.05, "remainder_slope_margin": 0.1,
              "sandwich_max_ratio": 2.0, "kernel_max_ratio": 4.0,
              "oracle_max_rel_err": 1.0e-8, "oracle_runtime_budget_s": 30.0,
              "bounds_cushion": 1.05, "highfreq_min_r_squared": 0.99}

# oracle-check grid in the model's own units: geometric radii plus two at
# 1 -+ 1e-3 in units of delta0 (ordered by Python's sorted: np.sort would page
# numpy's sort kernels in), and times and the RK4 step, which fixes the
# oracle's accuracy against its pass mark, in units of b/(2 gamma^2).
# Then b |xi|^2 step = 2 |eta|^2 h, eta and h the radius and step in these
# units, whatever the coefficients; at the defaults both units are 1.0
_ORACLE_RADII = np.array(sorted([*geometric_grid(0.05, 5.0, 8), 0.999, 1.001]))
_ORACLE_TIMES = geometric_grid(0.1, 20.0, 10)
_ORACLE_STEP = 1e-4


def run_oracle_check(cfg: RunConfig):
    unit_t = cfg.params.b / (2.0 * cfg.params.a)
    radii = cfg.params.delta0 * _ORACLE_RADII
    times, step = unit_t * _ORACLE_TIMES, unit_t * _ORACLE_STEP
    n_r, n_t = radii.size, times.size
    # random.Random is loaded at interpreter start; numpy.random would add 16 modules
    rng = random.Random(cfg.oracle["seed"])
    # normalised Gaussian vectors are uniform on S^(n-1)
    dirs = np.array([[[rng.gauss(0.0, 1.0) for _ in range(cfg.params.n)] for _ in range(n_r)]
                     for _ in range(n_t)])
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)

    start = time.perf_counter()
    columns = {"r": [], "t": [], "rel_err": []}
    for j, t in enumerate(times):
        xi = radii[:, None] * dirs[j]
        v_e, rho_e = solve_exact_batch(cfg.params, cfg.data, xi, float(t))
        v_o, rho_o = solve_ode_oracle_batch(cfg.params, cfg.data, xi, float(t), step)
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
                    "step": step, "grid": {"radii": n_r, "times": n_t}},
    }
    return verdict, columns, None


def run_remainder(component: str, cfg: RunConfig):
    field = partial(remainder_field, component=component)
    series = DecaySeries(cfg.times, zone_series(field, cfg.params, cfg.data, cfg.times, "low",
                                                cfg.rel_tol))
    fit = fit_loglog(series)
    expected = -(cfg.params.n / 2 + 1)
    threshold = expected + THRESHOLDS["remainder_slope_margin"]
    verdict = {
        "pass": fit.slope <= threshold,
        "metrics": {"slope": fit.slope, "intercept": fit.intercept,
                    "r_squared": fit.r_squared, "threshold_slope": threshold,
                    "expected_slope": expected},
        "window": [0, cfg.times.size],
    }
    columns = {"t": series.times, "remainder_norm_sq": series.values}
    plot = (["remainder_norm_sq"],
            AxesSpec(y_label="squared low-zone remainder norm",
                     title=f"{component}-remainder-sq: slope {fit.slope:.3f}",
                     guide_slope=expected))
    return verdict, columns, plot


def run_rate(cfg: RunConfig):
    check_moment_ratio(cfg.params, cfg.data)
    norms_sq = zone_series(velocity_field, cfg.params, cfg.data, cfg.times, "full", cfg.rel_tol)
    series = DecaySeries(cfg.times, np.sqrt(norms_sq))
    fit = fit_loglog(series)
    expected = -cfg.params.n / 4.0
    tol = THRESHOLDS["rate_slope_tol"]
    verdict = {
        "pass": abs(fit.slope - expected) <= tol,
        "metrics": {"slope": fit.slope, "expected_slope": expected, "tolerance": tol,
                    "intercept": fit.intercept, "r_squared": fit.r_squared},
        "window": [0, cfg.times.size],
    }
    columns = {"t": series.times, "velocity_norm": series.values}
    plot = (["velocity_norm"],
            AxesSpec(y_label="velocity norm", title=f"decay rate: slope {fit.slope:.3f}",
                     guide_slope=expected))
    return verdict, columns, plot


def _plateau(scaled: np.ndarray, max_ratio: float) -> dict:
    """Extremes of ``scaled`` on its tail window and their ratio; two-sided
    (sandwich) behavior passes when the ratio is at most ``max_ratio``, which
    a minimum that is not positive fails by its infinite ratio."""
    lo, hi = tail_window(scaled.size)
    low, high = float(np.min(scaled[lo:hi])), float(np.max(scaled[lo:hi]))
    ratio = high / low if low > 0 else math.inf
    return {"plateau_min": low, "plateau_max": high, "ratio": ratio,
            "pass": ratio <= max_ratio}


def run_sandwich(cfg: RunConfig):
    # two-sided optimality: ||v(t)|| t^{n/4} must plateau on the tail
    check_moment_ratio(cfg.params, cfg.data)
    norms_sq = zone_series(velocity_field, cfg.params, cfg.data, cfg.times, "full", cfg.rel_tol)
    series = DecaySeries(cfg.times, np.sqrt(norms_sq))
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


def run_lemma31(cfg: RunConfig):
    # The three profile-term integrals and the cone witness at each time: the
    # full-space norms of the heat projection xi (xi.p0)/|xi|^2 e^{-alpha t |xi|^2}
    # and the damped cosine projection xi (xi.p0)/|xi|^2 e^{-b t |xi|^2/2}
    # cos(gamma t |xi|), the acoustic sine kernel K_sin, and a quarter of
    # |p0|^2 times the cone mass of the damped cosine, p0 the velocity moment.
    # K_sin is the one quadrature, ``decay.sine_kernel_integral``: the
    # full-zone norm of the velocity profile at the unit density datum
    # (Q0 = 1, P0 = 0).  The sphere mean of
    # |xi_hat . p0|^2 is |p0|^2/n and cos^2 = 1 - sin^2, so with G(rate, t) the
    # full-space integral of e^{-rate t |xi|^2}:
    #     heat = |p0|^2/n G(2 alpha, t),
    #     cosine = |p0|^2/n (G(b, t) - K_sin),
    #     witness = |p0|^2/4 |cap|/|S^(n-1)| (G(b, t) - K_sin).
    # Each item that carries K_sin, scaled by t^{n/2}, must plateau on the
    # tail; the heat item and the witness are reported, not judged
    n, p_sq = cfg.params.n, cfg.data.p0_sq
    if p_sq == 0.0:
        raise ValueError("kernel plateau items need a nonzero moment vector")
    # looked up on ``decay`` at call time: bench/spans.py wraps that attribute
    sine = np.array(ordered_map(lambda t: decay.sine_kernel_integral(cfg.params, t, cfg.rel_tol),
                                [float(t) for t in cfg.times]))
    gauss = lambda rate: np.array([gaussian_moment_bound(n, 0, rate, float(t))
                                   for t in cfg.times])
    cos_mass = gauss(cfg.params.b) - sine
    heat, cosine = p_sq / n * gauss(2.0 * cfg.params.alpha), p_sq / n * cos_mass
    witness = 0.25 * p_sq * cone_cap_area(n) / sphere_area(n) * cos_mass
    scale = cfg.times ** (n / 2)
    max_ratio = THRESHOLDS["kernel_max_ratio"]
    items = {label: _plateau(values * scale, max_ratio)
             for label, values in (("acoustic-sine", sine), ("damped-cosine", cosine))}
    verdict = {
        "pass": all(item["pass"] for item in items.values()),
        "metrics": {"items": items,
                    # t^{n/2} K_sin(t) -> G(b, 1)/2: sin^2 averages to 1/2
                    "sine_limit": 0.5 * gaussian_moment_bound(n, 0, cfg.params.b, 1.0),
                    "max_ratio": max_ratio},
        "window": list(tail_window(cfg.times.size)),
    }
    columns = {"t": cfg.times, "heat_scaled": heat * scale, "sine_scaled": sine * scale,
               "cosine_scaled": cosine * scale, "witness_scaled": witness * scale}
    plot = (list(columns)[1:],
            AxesSpec(y_label="t^{n/2}-scaled integral", y_log=False, title="kernel plateaus"))
    return verdict, columns, plot


def run_highfreq(cfg: RunConfig):
    series = DecaySeries(cfg.times, zone_series(energy_field, cfg.params, cfg.data, cfg.times,
                                                "high", cfg.rel_tol))
    e_h0 = highfreq_initial_energy(cfg.params, cfg.data)
    fit = fit_semilog(series)
    times, values = series.times, series.values
    # averaged-energy inequality int_t^T E_h <= T0 E_h(t): T0 is the largest
    # sampled ratio, so it holds at every sample by definition, and it implies
    # E_h(t) <= E_h(0) e^{1 - t/T0} for t >= T0, checked on the grid
    remaining = np.array([float(np.trapezoid(values[i:], times[i:]))
                          for i in range(times.size - 1)])
    t0 = float(np.max(remaining / values[:-1]))
    bound = e_h0 * np.exp(1.0 - times / t0)
    on_grid = times >= t0
    conclusion = bool(np.all(values[on_grid] <= bound[on_grid]))
    nonincreasing = bool(np.all(values[1:] <= values[:-1]))
    verdict = {
        "pass": (nonincreasing and fit.slope < 0
                 and fit.r_squared >= THRESHOLDS["highfreq_min_r_squared"] and conclusion),
        "metrics": {"slope": fit.slope, "r_squared": fit.r_squared,
                    "komornik_t0": t0, "initial_energy": e_h0,
                    "nonincreasing": nonincreasing, "conclusion_holds": conclusion},
        "window": [0, cfg.times.size],
    }
    columns = {"t": times, "energy": values, "exp_bound": bound}
    plot = (["energy", "exp_bound"],
            AxesSpec(x_log=False, y_label="high-zone energy",
                     title=f"high-frequency decay: rate {-fit.slope:.3f}"))
    return verdict, columns, plot


def run_bounds(cfg: RunConfig):
    cushion = THRESHOLDS["bounds_cushion"]
    measured = {name: zone_series(field, cfg.params, cfg.data, cfg.times, "low", cfg.rel_tol)
                for name, field in (("moment_defect", moment_defect_field),
                                    ("sine_correction", sine_correction_field),
                                    ("expansion", expansion_field))}
    rbs = [remainder_bounds(cfg.params, cfg.data, float(t)) for t in cfg.times]
    bounds = {"moment_defect": [rb.moment_defect for rb in rbs],
              "sine_correction": [rb.sine_correction for rb in rbs],
              "expansion": [sum(math.sqrt(e) for e in rb.expansion) ** 2 for rb in rbs]}
    columns = {"t": cfg.times}
    for name in measured:
        columns[f"meas_{name}"], columns[f"bound_{name}"] = measured[name], bounds[name]
    for k in range(5):
        columns[f"bound_exp{k + 1}"] = [rb.expansion[k] for rb in rbs]
    columns["bound_total"] = [rb.total for rb in rbs]
    # every row must hold each measured mass within the cushion of its bound
    passed = all(m <= b * cushion for name in measured
                 for m, b in zip(measured[name], bounds[name]))
    verdict = {"pass": passed, "metrics": {"cushion": cushion, "points": len(rbs)}}
    # a log axis draws only positive columns: a narrow datum's moment defect (s^4) underflows to 0
    drawn = [name for name in ("meas_moment_defect", "bound_moment_defect", "meas_expansion",
                               "bound_expansion") if all(v > 0 for v in columns[name])]
    plot = (drawn, AxesSpec(y_label="squared norm / bound", title="remainder bounds"))
    return verdict, columns, plot


def run_plot(cfg: RunConfig):
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


_OPTIONS = ("--config", "--out", "--threads")
_USAGE = """\
usage: nsprofile <subcommand> --config PATH [--out DIR] [--threads N]

Frequency-space decay verification for a linearized compressible viscous flow model.

subcommands: {}

options:
  --config PATH  JSON run configuration (required)
  --out DIR      output directory (default: out)
  --threads N    accepted and checked (at least 1); every run uses one thread
  -h, --help     print this message and exit"""


def _parse_args(argv: list[str]) -> tuple[str | None, dict, str | None]:
    """(subcommand, options, problem) of ``argv``, which takes one subcommand
    and ``--opt value`` or ``--opt=value`` in any order, the last of a repeated
    option counting; ``options`` maps each option name to its value, the
    defaults filled in and ``--threads`` an int.  The subcommand is the
    positional one if it names a runner, else None; ``problem`` is the message
    of the first bad argument, else of the missing ones, else None.  ``-h`` or
    ``--help`` anywhere prints the usage and exits 0."""
    if "-h" in argv or "--help" in argv:
        print(_USAGE.format(", ".join(_RUNNERS)))
        raise SystemExit(0)
    subcommand, problems, positional = None, [], False
    options = {"--out": "out", "--threads": 1}
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if name in _OPTIONS:
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    problems.append(f"argument {name}: expected one argument")
                    continue
            if name == "--threads":
                try:
                    value = int(value)
                except ValueError:
                    problems.append(f"argument --threads: invalid int value: {value!r}")
                    continue
                if value < 1:
                    problems.append(f"--threads must be at least 1, got {value}")
                    continue
            options[name] = value
        elif arg.startswith("-") or positional:
            problems.append(f"unrecognized arguments: {arg}")
        else:
            positional = True
            if arg in _RUNNERS:
                subcommand = arg
            else:
                problems.append(f"argument subcommand: invalid choice: {arg!r} "
                                f"(choose from {', '.join(_RUNNERS)})")
    missing = [name for name, given in (("subcommand", positional),
                                        ("--config", "--config" in options)) if not given]
    if missing:
        problems.append("the following arguments are required: " + ", ".join(missing))
    return subcommand, options, problems[0] if problems else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    subcommand, options, problem = _parse_args(argv)
    try:
        if problem is not None:
            raise ConfigError(problem)
        cfg = load_config_file(subcommand, options["--config"])
    except Exception as exc:  # every failure exits 2; exit 1 means a verdict failed
        return _fail({"subcommand": subcommand}, exc)

    out = options["--out"]
    try:
        verdict, columns, plot = _RUNNERS[subcommand](cfg)
        _write_outputs(cfg, out, verdict, columns, plot)
    except Exception as exc:
        diagnostic = {"subcommand": subcommand, "pass": False,
                      "config_hash": cfg.config_hash}
        return _fail(diagnostic, exc, os.path.join(out, f"{subcommand}.json"))
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
