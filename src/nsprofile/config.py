"""Run configuration: JSON schema, defaults, validation, and hashing.

Configs are flat JSON objects with one nesting level per section.  Unknown
keys and wrong types are rejected so archived configs stay unambiguous; the
canonical (sorted, compact) JSON of the fully-merged config is hashed into
every verdict for reproduction.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .model import InitialData, ModelParams, ParameterError
from .quadrature import QuadratureSpec


class ConfigError(ValueError):
    """Raised for malformed or invalid run configurations."""


_BASE_DEFAULTS: dict[str, Any] = {
    "params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "n": 2},
    "data": {"amplitude_v": None, "amplitude_rho": 1.0, "width": 1.0, "family": "gaussian"},
    "time_grid": {"t_min": 100.0, "t_max": 1.0e4, "points": 11, "spacing": "geometric"},
    "quadrature": {"base_panels": 12, "osc_factor": 2, "angular_nodes": 3,
                   "rel_tol": 1.0e-6, "r_max": None},
    "thresholds": {"rate_slope_tol": 0.05, "remainder_slope_margin": 0.1,
                   "sandwich_max_ratio": 2.0, "kernel_max_ratio": 4.0,
                   "oracle_max_rel_err": 1.0e-8, "oracle_runtime_budget_s": 30.0,
                   "bounds_cushion": 1.05, "highfreq_min_r_squared": 0.99},
    "oracle": {"r_min": 0.05, "r_max": 5.0, "radii": 10, "times": 10,
               "t_min": 0.1, "t_max": 20.0, "step": 1.0e-4, "seed": 0},
    "plot": {"input_csv": "", "x": "t", "y": [], "axes": "loglog", "title": ""},
    "output_dir": "out",
    "emit_svg": True,
}

# per-subcommand time grids: remainder runs start earlier, the exponential
# high-frequency run needs a short-time window
_GRID_OVERRIDES = {
    "profile-error": {"t_min": 16.0, "t_max": 16384.0, "points": 11},
    "density-profile-error": {"t_min": 16.0, "t_max": 16384.0, "points": 11},
    "bounds": {"t_min": 16.0, "t_max": 16384.0, "points": 11},
    "sandwich": {"points": 12},
    "lemma31": {"points": 12},
    "highfreq": {"t_min": 2.0, "t_max": 40.0, "points": 12},
}

_ASYMPTOTIC_SUBCOMMANDS = {"profile-error", "density-profile-error", "rate",
                           "sandwich", "lemma31", "bounds"}


def default_config(subcommand: str) -> dict[str, Any]:
    cfg = copy.deepcopy(_BASE_DEFAULTS)
    cfg["time_grid"].update(_GRID_OVERRIDES.get(subcommand, {}))
    return cfg


def _check_type(section: str, key: str, value, kinds) -> None:
    # bool is a subclass of int, but JSON true/false is never a number here
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{section}.{key}: expected {kinds}, got {type(value).__name__}")


def merge_config(subcommand: str, user: dict[str, Any]) -> dict[str, Any]:
    """Overlay a user config onto the defaults, rejecting unknown keys."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = default_config(subcommand)
    for section, value in user.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if isinstance(cfg[section], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section {section!r} must be an object")
            for key, item in value.items():
                if key not in cfg[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                cfg[section][key] = item
        else:
            cfg[section] = value
    return cfg


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: ModelParams
    data: InitialData
    times: np.ndarray
    quadrature: QuadratureSpec
    thresholds: dict[str, float]
    oracle: dict[str, float]
    plot: dict[str, Any]
    output_dir: str
    emit_svg: bool
    raw: dict[str, Any]

    @property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def config_hash(cfg: dict[str, Any]) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_run_config(subcommand: str, user: dict[str, Any]) -> RunConfig:
    cfg = merge_config(subcommand, user)

    p = cfg["params"]
    for key in ("alpha", "beta", "gamma"):
        _check_type("params", key, p[key], (int, float))
    _check_type("params", "n", p["n"], int)
    try:
        params = ModelParams(alpha=float(p["alpha"]), beta=float(p["beta"]),
                             gamma=float(p["gamma"]), n=p["n"])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    d = cfg["data"]
    if d["amplitude_v"] is None:
        # the kernel-plateau run needs a moment direction; everything else
        # defaults to a pure density bump
        if subcommand == "lemma31":
            d["amplitude_v"] = [1.0] + [0.0] * (params.n - 1)
        else:
            d["amplitude_v"] = [0.0] * params.n
    _check_type("data", "amplitude_v", d["amplitude_v"], list)
    for c in d["amplitude_v"]:
        _check_type("data", "amplitude_v", c, (int, float))
    _check_type("data", "amplitude_rho", d["amplitude_rho"], (int, float))
    _check_type("data", "width", d["width"], (int, float))
    try:
        data = InitialData(amplitude_v=tuple(float(c) for c in d["amplitude_v"]),
                           amplitude_rho=float(d["amplitude_rho"]),
                           width=float(d["width"]), family=d["family"])
    except (ParameterError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if data.n != params.n:
        raise ConfigError(f"amplitude_v has {data.n} components but params.n = {params.n}")

    g = cfg["time_grid"]
    for key in ("t_min", "t_max"):
        _check_type("time_grid", key, g[key], (int, float))
    _check_type("time_grid", "points", g["points"], int)
    if g["spacing"] != "geometric":
        raise ConfigError("time_grid.spacing: only 'geometric' is supported")
    if g["points"] < 8:
        raise ConfigError("time_grid.points must be >= 8")
    if not 0 < g["t_min"] < g["t_max"] < math.inf:
        raise ConfigError("need 0 < t_min < t_max < inf")
    if subcommand in _ASYMPTOTIC_SUBCOMMANDS and g["t_min"] < 1.0:
        raise ConfigError(f"{subcommand} is an asymptotic run and needs t_min >= 1")
    times = np.geomspace(float(g["t_min"]), float(g["t_max"]), g["points"])

    q = cfg["quadrature"]
    for key in ("base_panels", "osc_factor", "angular_nodes"):
        _check_type("quadrature", key, q[key], int)
    _check_type("quadrature", "rel_tol", q["rel_tol"], (int, float))
    if q["r_max"] is not None:
        _check_type("quadrature", "r_max", q["r_max"], (int, float))
    try:
        spec = QuadratureSpec(base_panels=q["base_panels"], osc_factor=q["osc_factor"],
                              angular_nodes=q["angular_nodes"], rel_tol=float(q["rel_tol"]),
                              r_max=None if q["r_max"] is None else float(q["r_max"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for key, value in cfg["thresholds"].items():
        _check_type("thresholds", key, value, (int, float))

    return RunConfig(
        subcommand=subcommand,
        params=params,
        data=data,
        times=times,
        quadrature=spec,
        thresholds={k: float(v) for k, v in cfg["thresholds"].items()},
        oracle=cfg["oracle"],
        plot=cfg["plot"],
        output_dir=str(cfg["output_dir"]),
        emit_svg=bool(cfg["emit_svg"]),
        raw=cfg,
    )


def load_config_file(subcommand: str, path: str) -> RunConfig:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return build_run_config(subcommand, user)
