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
from .quadrature import DEFAULT_REL_TOL


class ConfigError(ValueError):
    """Raised for malformed or invalid run configurations."""


_BASE_DEFAULTS: dict[str, Any] = {
    "params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "n": 2},
    "data": {"amplitude_v": None, "amplitude_rho": 1.0, "width": 1.0},
    "time_grid": {"t_min": 100.0, "t_max": 1.0e4, "points": 11},
    "quadrature": {"rel_tol": DEFAULT_REL_TOL},
    "oracle": {"seed": 0},
    "plot": {"input_csv": "", "x": "t", "y": [], "axes": "loglog", "title": ""},
    "emit_svg": True,
}

# per-subcommand time grids: remainder runs start earlier, the exponential
# high-frequency run needs a short-time window
_GRID_OVERRIDES = {
    "profile-error": {"t_min": 16.0, "t_max": 16384.0},
    "density-profile-error": {"t_min": 16.0, "t_max": 16384.0},
    "bounds": {"t_min": 16.0, "t_max": 16384.0},
    "sandwich": {"points": 12},
    "lemma31": {"points": 12},
    "highfreq": {"t_min": 2.0, "t_max": 40.0, "points": 12},
}

# every time point costs one zone norm per series, so the grid size is capped
_MAX_TIME_POINTS = 1024

# the oracle's step matrices are (n + 1)-square, so the dimension is capped
_MAX_DIMENSION = 16

_ASYMPTOTIC_SUBCOMMANDS = {"profile-error", "density-profile-error", "rate",
                           "sandwich", "lemma31", "bounds"}


def default_config(subcommand: str) -> dict[str, Any]:
    cfg = copy.deepcopy(_BASE_DEFAULTS)
    cfg["time_grid"].update(_GRID_OVERRIDES.get(subcommand, {}))
    return cfg


# keys whose default (None or an empty list) does not show the type a user
# value must have, given as a value of that type
_TYPE_EXAMPLES = {("data", "amplitude_v"): [0.0], ("plot", "y"): [""]}


def _check_type(name: str, value, example) -> None:
    """Reject ``value`` unless it has the type of ``example``: a float also
    takes an int, and a list is checked item by item against its first item."""
    kind = type(example)
    kinds = (int, float) if kind is float else kind
    # JSON true/false is accepted only where a bool is expected: bool is a
    # subclass of int, but never a number here
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is list:
        for item in value:
            _check_type(name, item, example[0])


def merge_config(subcommand: str, user: dict[str, Any]) -> dict[str, Any]:
    """Overlay a user config onto the defaults, rejecting unknown keys and
    values of another type than the default's."""
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
                default = cfg[section][key]
                if item is not None or default is not None:
                    example = _TYPE_EXAMPLES.get((section, key), default)
                    _check_type(f"{section}.{key}", item, example)
                cfg[section][key] = item
        else:
            _check_type(section, value, cfg[section])
            cfg[section] = value
    return cfg


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: ModelParams
    data: InitialData
    times: np.ndarray
    rel_tol: float
    oracle: dict[str, Any]
    plot: dict[str, Any]
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
    try:
        params = ModelParams(alpha=float(p["alpha"]), beta=float(p["beta"]),
                             gamma=float(p["gamma"]), n=p["n"])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if params.n > _MAX_DIMENSION:
        raise ConfigError(f"params.n must be at most {_MAX_DIMENSION}, got {params.n}")

    d = cfg["data"]
    if d["amplitude_v"] is None:
        # the kernel-plateau run needs a moment direction; everything else
        # defaults to a pure density bump
        if subcommand == "lemma31":
            d["amplitude_v"] = [1.0] + [0.0] * (params.n - 1)
        else:
            d["amplitude_v"] = [0.0] * params.n
    try:
        data = InitialData(amplitude_v=tuple(float(c) for c in d["amplitude_v"]),
                           amplitude_rho=float(d["amplitude_rho"]),
                           width=float(d["width"]))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if data.n != params.n:
        raise ConfigError(f"amplitude_v has {data.n} components but params.n = {params.n}")

    g = cfg["time_grid"]
    if not 8 <= g["points"] <= _MAX_TIME_POINTS:
        raise ConfigError(f"time_grid.points must be in [8, {_MAX_TIME_POINTS}], "
                          f"got {g['points']}")
    if not 0 < g["t_min"] < g["t_max"] < math.inf:
        raise ConfigError("need 0 < t_min < t_max < inf")
    if subcommand in _ASYMPTOTIC_SUBCOMMANDS and g["t_min"] < 1.0:
        raise ConfigError(f"{subcommand} is an asymptotic run and needs t_min >= 1")
    times = np.geomspace(float(g["t_min"]), float(g["t_max"]), g["points"])

    rel_tol = float(cfg["quadrature"]["rel_tol"])
    if not 0 < rel_tol < math.inf:
        raise ConfigError(f"quadrature.rel_tol must be finite and positive, got {rel_tol}")
    o = cfg["oracle"]
    if o["seed"] < 0:
        raise ConfigError(f"oracle.seed must be >= 0, got {o['seed']}")

    return RunConfig(
        subcommand=subcommand,
        params=params,
        data=data,
        times=times,
        rel_tol=rel_tol,
        oracle=o,
        plot=cfg["plot"],
        emit_svg=cfg["emit_svg"],
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
