"""Decay-rate fits, two-sided plateau checks, and high-frequency energy decay.

Every norm a verdict reports is taken here, each by one ``zone_norm_sq`` call:
the velocity, energy, remainder and kernel-projection fields, the isotropic
sine and cone kernels, and the measured remainder masses.  Time series of
these norms are turned into verdicts: log-log slopes for polynomial rates,
normalized tail plateaus for two-sided (sandwich) optimality, and semi-log
fits plus an averaged-energy inequality for the exponential high-frequency
regime.  Tail windows are the last half of the geometric time grid with at
least six points; every report records the window it used.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import InitialData, ModelParams, moments
from .profiles import (
    expansion_field,
    moment_defect_field,
    profile_field,
    sine_correction_field,
)
from .quadrature import DEFAULT_REL_TOL, cone_cap_area, sphere_area, zone_norm_sq
from .spectral import Field, exact_field
# no function here calls them: bench/spans.py wraps these attributes as trace sites
from .profiles import density_profile, velocity_profile  # noqa: F401
from .spectral import solve_exact_batch  # noqa: F401

_TAIL_MIN_POINTS = 6
_MAX_MOMENT_RATIO = 0.1  # |P0|/|Q0| above which the sandwich statement is not made


def ordered_map(fn, items, threads: int = 1) -> list:
    """Map preserving input order; thread count never changes the results."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class DecaySeries:
    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape or t.size < 4:
            raise ValueError("series needs matching times/values with >= 4 entries")
        if np.any(np.diff(t) <= 0) or np.any(t <= 0):
            raise ValueError("times must be ascending and positive")
        if np.any(v <= 0):
            raise ValueError("values must be strictly positive")


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]


def tail_window(length: int) -> tuple[int, int]:
    """Last half of the grid, widened to at least ``_TAIL_MIN_POINTS`` entries."""
    start = max(0, min(length // 2, length - _TAIL_MIN_POINTS))
    return start, length


def _linear_fit(x: np.ndarray, y: np.ndarray, window: tuple[int, int]) -> DecayFit:
    lo, hi = window
    if hi - lo < 4:
        raise ValueError("fit window must contain at least 4 points")
    xs, ys = x[lo:hi], y[lo:hi]
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(float(slope), float(intercept), r2, (int(lo), int(hi)))


def fit_loglog(series: DecaySeries, window: tuple[int, int] | None = None) -> DecayFit:
    """Least-squares line through (log t, log value)."""
    window = window or (0, series.times.size)
    return _linear_fit(np.log(series.times), np.log(series.values), window)


def fit_semilog(series: DecaySeries) -> DecayFit:
    """Least-squares line through (t, log value) over the whole series; slope
    is minus the rate."""
    return _linear_fit(series.times, np.log(series.values), (0, series.times.size))


def zone_series(field_at, params: ModelParams, times: np.ndarray, zone: str,
                rel_tol: float, threads: int) -> np.ndarray:
    """:func:`zone_norm_sq` of the field ``field_at(t)`` (radii to a
    ``spectral.Field``) at each time, mapped in order over ``threads`` workers."""
    def at(t: float) -> float:
        field = field_at(t)
        return zone_norm_sq(lambda r: field(r).abs_sq(), params, t, zone, rel_tol).value

    return np.array(ordered_map(at, [float(t) for t in times], threads))


def velocity_field(params: ModelParams, data: InitialData, t: float):
    """Radii to the exact velocity transform."""
    return lambda r: exact_field(params, data, r, t).vector()


def remainder_field(params: ModelParams, data: InitialData, t: float, component: str):
    """Radii to the exact solution minus its leading profile, the ``component``
    "velocity" or "density"."""
    mom = moments(data)
    part = {"velocity": Field.vector, "density": Field.scalar}[component]
    return lambda r: part(exact_field(params, data, r, t) - profile_field(params, mom, r, t))


def energy_field(params: ModelParams, data: InitialData, t: float):
    """Radii to (v_hat, rho_hat) / sqrt(2), whose |.|^2 is the energy density."""
    return lambda r: Field(*(c / math.sqrt(2.0) for c in exact_field(params, data, r, t)))


def projection_field(params: ModelParams, p0: np.ndarray, t: float, kind: str):
    """Radii to xi (xi.p0)/|xi|^2 times e^{-alpha |xi|^2 t} (``kind`` "heat")
    or e^{-b |xi|^2 t/2} cos(gamma t |xi|) ("cosine")."""
    p = float(np.linalg.norm(p0))

    def field(r):
        rr = r * r
        if kind == "heat":
            return Field(b1=p * np.exp(-params.alpha * rr * t))
        return Field(b1=p * np.exp(-params.b * rr * t / 2) * np.cos(params.gamma * t * r))

    return field


def _damped_square_norm(params: ModelParams, t: float, wave, rel_tol: float) -> float:
    """Full-zone norm of the isotropic |kernel|^2 = e^{-b t |xi|^2} wave(gamma t |xi|)^2."""
    def f(r):
        zero = np.zeros_like(r)
        return np.exp(-params.b * t * r * r) * wave(params.gamma * t * r) ** 2, zero, zero

    return zone_norm_sq(f, params, t, "full", rel_tol).value


def sine_kernel_integral(params: ModelParams, t: float,
                         rel_tol: float = DEFAULT_REL_TOL) -> float:
    """The squared L^2 norm of the acoustic sine kernel,

        int |i xi e^{-b |xi|^2 t / 2} sin(gamma t |xi|)/|xi||^2 dxi
        = omega_{n-1} int_0^inf r^{n-1} e^{-b t r^2} sin^2(gamma t r) dr.

    For large t this behaves like (S0/2) omega_{n-1} b^{-n/2} t^{-n/2} with
    S0 = Gamma(n/2)/2.
    """
    return _damped_square_norm(params, t, np.sin, rel_tol)


def cone_cosine_integral(params: ModelParams, t: float,
                         rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Damped-cosine mass on a cone {xi : (xi.p)/(|xi||p|) >= 1/2} around any
    direction p,

        int_K e^{-b t |xi|^2} cos^2(gamma t |xi|) dxi
        = c(n) int_0^inf r^{n-1} e^{-b t r^2} cos^2(gamma t r) dr,

    where c(n) is the spherical cap measure (2*pi/3 in 2-d, pi in 3-d); the
    value is rotation invariant, so it does not depend on p.
    """
    n = params.n
    return cone_cap_area(n) / sphere_area(n) * _damped_square_norm(params, t, np.cos, rel_tol)


def measured_remainder_norms(params: ModelParams, data: InitialData, t: float,
                             rel_tol: float = DEFAULT_REL_TOL) -> dict[str, float]:
    """Quadrature values of the computable remainder masses on the low zone.

    Returns the squared norms of the moment defect, the longitudinal sine
    correction, and the lumped five expansion corrections (obtained as the
    exact moment flow minus leading profile minus sine correction).
    """
    mom = moments(data)
    fields = {"moment_defect": lambda r: moment_defect_field(params, data, r, t),
              "sine_correction": lambda r: sine_correction_field(params, mom, r, t),
              "expansion": lambda r: expansion_field(params, mom, r, t)}
    return {name: zone_norm_sq(lambda r: field(r).abs_sq(), params, t, "low", rel_tol).value
            for name, field in fields.items()}


def velocity_norm_series(params: ModelParams, data: InitialData, times: np.ndarray,
                         rel_tol: float = DEFAULT_REL_TOL, threads: int = 1) -> DecaySeries:
    """L^2 norms ||v_hat(t, .)|| of the exact solution on a time grid."""
    values = zone_series(partial(velocity_field, params, data), params, times, "full",
                         rel_tol, threads)
    return DecaySeries(np.asarray(times, float), np.sqrt(values), label="velocity-norm")


def remainder_series(params: ModelParams, data: InitialData, times: np.ndarray,
                     component: str, rel_tol: float = DEFAULT_REL_TOL,
                     threads: int = 1) -> DecaySeries:
    """Squared low-zone L^2 norms of (exact solution - leading profile) for the
    ``component`` "velocity" or "density"."""
    values = zone_series(lambda t: remainder_field(params, data, t, component), params,
                         times, "low", rel_tol, threads)
    return DecaySeries(np.asarray(times, float), values, label=f"{component}-remainder-sq")


def check_moment_ratio(params: ModelParams, data: InitialData):
    mom = moments(data)
    p0_norm = float(np.linalg.norm(mom.P0))
    if mom.Q0 == 0:
        raise ValueError("the optimality statement needs a nonzero density moment")
    if p0_norm / abs(mom.Q0) > _MAX_MOMENT_RATIO:
        raise ValueError(f"|P0|/|Q0| = {p0_norm / abs(mom.Q0):.3g} exceeds the admissible "
                         f"ratio {_MAX_MOMENT_RATIO}")


@dataclass(frozen=True)
class PlateauReport:
    """Values scaled by a power of t and their extremes on the tail window."""

    label: str
    times: np.ndarray
    scaled_values: np.ndarray
    window: tuple[int, int]
    plateau_min: float
    plateau_max: float

    @property
    def ratio(self) -> float:
        return self.plateau_max / self.plateau_min if self.plateau_min > 0 else math.inf

    def passed(self, max_ratio: float) -> bool:
        return self.plateau_min > 0 and self.ratio <= max_ratio


def _plateau(label: str, times: np.ndarray, scaled: np.ndarray) -> PlateauReport:
    lo, hi = tail_window(times.size)
    tail = scaled[lo:hi]
    return PlateauReport(label, times, scaled, (lo, hi),
                         float(np.min(tail)), float(np.max(tail)))


def verify_sandwich(params: ModelParams, data: InitialData, times: np.ndarray,
                    rel_tol: float = DEFAULT_REL_TOL, threads: int = 1) -> PlateauReport:
    """Two-sided optimality check: ||v(t)|| t^{n/4} must plateau on the tail."""
    check_moment_ratio(params, data)
    series = velocity_norm_series(params, data, times, rel_tol, threads)
    return _plateau("sandwich", series.times, series.values * series.times ** (params.n / 4))


@dataclass(frozen=True)
class KernelPlateauReport:
    """Two-sided plateau reports for the three profile building blocks.

    Each series is the integral scaled by t^{n/2}; all three must stay inside
    a positive interval on the tail window.  The damped-cosine item carries a
    lower-bound witness: a quarter of the conical-region mass never exceeds
    the full integral.
    """

    heat_projection: PlateauReport
    acoustic_sine: PlateauReport
    damped_cosine: PlateauReport
    sine_limit: float
    witness_scaled: np.ndarray
    witness_ok: bool

    def passed(self, max_ratio: float) -> bool:
        return (self.heat_projection.passed(max_ratio)
                and self.acoustic_sine.passed(max_ratio)
                and self.damped_cosine.passed(max_ratio)
                and self.witness_ok)


def verify_kernel_plateaus(params: ModelParams, p0: np.ndarray, times: np.ndarray,
                           rel_tol: float = DEFAULT_REL_TOL,
                           threads: int = 1) -> KernelPlateauReport:
    """Two-sided t^{-n/2} behavior of the three profile-term integrals.

    Needs a nonzero moment direction p0 for the projection items.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (params.n,):
        raise ValueError(f"p0 must have shape ({params.n},)")
    if float(np.linalg.norm(p0)) == 0.0:
        raise ValueError("kernel plateau items need a nonzero moment vector")
    times = np.asarray(times, dtype=float)
    n = params.n
    scale = times ** (n / 2)

    heat_vals = zone_series(lambda t: projection_field(params, p0, t, "heat"), params, times,
                            "full", rel_tol, threads)
    cos_vals = zone_series(lambda t: projection_field(params, p0, t, "cosine"), params, times,
                           "full", rel_tol, threads)
    sine_vals = np.array(ordered_map(lambda t: sine_kernel_integral(params, t, rel_tol),
                                     times, threads))
    witness = np.array(ordered_map(
        lambda t: 0.25 * float(p0 @ p0) * cone_cosine_integral(params, t, rel_tol),
        times, threads))

    s0 = math.gamma(n / 2) / 2.0
    limit = 0.5 * s0 * sphere_area(n) * params.b ** (-n / 2)
    witness_ok = bool(np.all(witness <= cos_vals * (1 + 1e-9)))
    return KernelPlateauReport(
        heat_projection=_plateau("heat-projection", times, heat_vals * scale),
        acoustic_sine=_plateau("acoustic-sine", times, sine_vals * scale),
        damped_cosine=_plateau("damped-cosine", times, cos_vals * scale),
        sine_limit=limit,
        witness_scaled=witness * scale,
        witness_ok=witness_ok,
    )


@dataclass(frozen=True)
class HighFreqReport:
    """High-frequency energy decay summary.

    ``komornik_t0`` is the largest sampled ratio of the remaining energy
    integral to the pointwise energy; the averaged-energy inequality then
    holds at every sample by construction and implies the exponential bound
    ``E_h(t) <= E_h(0) e^{1 - t/T0}`` for t >= T0, which is re-checked on the
    grid.
    """

    series: DecaySeries
    exp_fit: DecayFit
    komornik_t0: float
    initial_energy: float
    nonincreasing: bool
    komornik_holds: bool
    conclusion_holds: bool

    def passed(self, min_r_squared: float) -> bool:
        return (self.nonincreasing and self.exp_fit.slope < 0
                and self.exp_fit.r_squared >= min_r_squared
                and self.komornik_holds and self.conclusion_holds)


def highfreq_energy(params: ModelParams, data: InitialData, times: np.ndarray,
                    rel_tol: float = DEFAULT_REL_TOL, threads: int = 1) -> HighFreqReport:
    """High-zone energy E_h(t) with exponential-decay and averaged-energy checks."""
    times = np.asarray(times, dtype=float)
    values = zone_series(partial(energy_field, params, data), params, times, "high",
                         rel_tol, threads)
    series = DecaySeries(times, values, label="highfreq-energy")
    fit = fit_semilog(series)

    # E_h(0): the data energy carries no time decay, so size the truncation
    # radius by the data width instead of the default t-dependent formula
    r_max = max(4.0 * params.delta0, 12.0 / data.width)
    energy_0 = energy_field(params, data, 0.0)
    e_h0 = zone_norm_sq(lambda r: energy_0(r).abs_sq(), params, 0.0, "high", rel_tol,
                        r_max=r_max).value

    remaining = np.array([float(np.trapezoid(values[i:], times[i:]))
                          for i in range(times.size - 1)])
    ratios = remaining / values[:-1]
    t0 = float(np.max(ratios))
    komornik_holds = bool(np.all(remaining <= t0 * values[:-1] * (1 + 1e-12)))
    on_grid = times >= t0
    conclusion = bool(np.all(values[on_grid]
                             <= e_h0 * np.exp(1.0 - times[on_grid] / t0) * (1 + 1e-9)))
    nonincreasing = bool(np.all(np.diff(values) <= values[:-1] * 1e-12))
    return HighFreqReport(
        series=series,
        exp_fit=fit,
        komornik_t0=t0,
        initial_energy=e_h0,
        nonincreasing=nonincreasing,
        komornik_holds=komornik_holds,
        conclusion_holds=conclusion,
    )
