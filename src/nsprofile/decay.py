"""Every norm a verdict reports, decay series, and their least-squares fits.

Each quadrature norm is one ``zone_norm_sq`` call: the isotropic sine kernel,
and through :func:`field_norm_sq` every field(params, data, r, t) of this
module and of ``profiles``, which ``zone_norm_sq`` evaluates on bounded slices
of ascending radii.  The other kernel items of ``lemma31`` (the heat
and damped-cosine projections and the cone witness) are closed-form Gaussian
integrals and multiples of G - K_sin, with G the Gaussian integral and K_sin
the sine kernel, since sin^2 + cos^2 = 1.  The norms of a time grid are taken
in order on the calling thread: at the default sizes each is a run of short
numpy calls that hold the GIL, so worker threads saved no time and cost
memory.  Time series are fitted by log-log lines for polynomial rates and
semi-log lines for the exponential high-frequency regime.  The verdicts
themselves, with their pass marks, are judged by the CLI runners.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ._record import record
from .model import InitialData, ModelParams, check_dimension
from .profiles import (
    expansion_field,
    gaussian_moment_bound,
    moment_defect_field,
    profile_field,
    sine_correction_field,
)
from .quadrature import DEFAULT_REL_TOL, ZoneNorm, cone_cap_area, sphere_area, zone_norm_sq
from .spectral import Field, exact_field
# no function here calls them: bench/spans.py wraps these attributes as trace sites
from .profiles import density_profile, velocity_profile  # noqa: F401
from .spectral import solve_exact_batch  # noqa: F401

_TAIL_MIN_POINTS = 6
_MAX_MOMENT_RATIO = 0.1  # |P0|/|Q0| above which the sandwich statement is not made


# a plain map; bench/spans.py wraps it and binds ``fn`` and ``threads``, so both stay
def ordered_map(fn, items, threads: int = 1) -> list:
    """``fn`` of each item, in input order, on the calling thread; ``threads``
    is ignored."""
    return [fn(x) for x in items]


@record
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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(t) <= 0) or np.any(t <= 0):
            raise ValueError("times must be ascending and positive")
        if np.any(v <= 0):
            raise ValueError("values must be strictly positive")


@record
class DecayFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]


def tail_window(length: int) -> tuple[int, int]:
    """Last half of the grid, widened to at least ``_TAIL_MIN_POINTS`` entries."""
    start = max(0, min(length // 2, length - _TAIL_MIN_POINTS))
    return start, length


def _linear_fit(x: np.ndarray, y: np.ndarray) -> DecayFit:
    # closed form about correctly rounded means
    mx, my = math.fsum(x) / x.size, math.fsum(y) / y.size
    xc, yc = x - mx, y - my
    slope = float(np.sum(xc * yc) / np.sum(xc * xc))
    intercept = my - slope * mx
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum(yc**2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(slope, intercept, r2, (0, int(x.size)))


def fit_loglog(series: DecaySeries) -> DecayFit:
    """Least-squares line through (log t, log value) over the whole series."""
    return _linear_fit(np.log(series.times), np.log(series.values))


def fit_semilog(series: DecaySeries) -> DecayFit:
    """Least-squares line through (t, log value) over the whole series; slope
    is minus the rate."""
    return _linear_fit(series.times, np.log(series.values))


def field_norm_sq(field, params: ModelParams, data: InitialData, t: float, zone: str,
                  rel_tol: float) -> ZoneNorm:
    """:func:`zone_norm_sq` of ``field(params, data, r, t)``, a
    ``spectral.Field`` at the radii r: the one place that turns a field into
    the sphere means and maxima that a zone norm integrates.  ``zone_norm_sq``
    hands the field one slice of a level's radii at a time, so no temporary of
    the field spans a whole level layout (up to 5,115 radii at the defaults).
    The field works elementwise and the slices are ascending, so each radius
    gets the bits that the whole level gives it (see ``spectral._phi_psi``)."""
    check_dimension(params, data.n)
    return zone_norm_sq(lambda r: field(params, data, r, t).sphere_mean_max(params.n),
                        params, t, zone, rel_tol)


def zone_series(field, params: ModelParams, data: InitialData, times: np.ndarray,
                zone: str, rel_tol: float) -> np.ndarray:
    """:func:`field_norm_sq` values at each time."""
    return np.array(ordered_map(
        lambda t: field_norm_sq(field, params, data, t, zone, rel_tol).value,
        [float(t) for t in times]))


def velocity_field(params: ModelParams, data: InitialData, r: np.ndarray, t: float) -> Field:
    """The exact velocity transform."""
    return exact_field(params, data, r, t, scalar=False)


def remainder_field(params: ModelParams, data: InitialData, r: np.ndarray, t: float,
                    component: str) -> Field:
    """The exact solution minus its leading profile, the ``component``
    "velocity" or "density"."""
    part = {"velocity": {"scalar": False}, "density": {"vector": False}}[component]
    return exact_field(params, data, r, t, **part) - profile_field(params, data, r, t, **part)


def energy_field(params: ModelParams, data: InitialData, r: np.ndarray, t: float) -> Field:
    """(v_hat, rho_hat) / sqrt(2), whose |.|^2 is the energy density."""
    return Field(*(c / math.sqrt(2.0) for c in exact_field(params, data, r, t)))


def sine_kernel_integral(params: ModelParams, t: float,
                         rel_tol: float = DEFAULT_REL_TOL) -> float:
    """The squared L^2 norm of the acoustic sine kernel,

        K_sin(t) = int |i xi e^{-b |xi|^2 t / 2} sin(gamma t |xi|)/|xi||^2 dxi
                 = omega_{n-1} int_0^inf r^{n-1} e^{-b t r^2} sin^2(gamma t r) dr,

    the only kernel item that needs quadrature.  For large t it behaves like
    (S0/2) omega_{n-1} b^{-n/2} t^{-n/2} with S0 = Gamma(n/2)/2.
    """
    def f(r):
        value = np.exp(-params.b * t * r * r) * np.sin(params.gamma * t * r) ** 2
        return value, value

    return zone_norm_sq(f, params, t, "full", rel_tol).value


def cone_cosine_integral(params: ModelParams, t: float,
                         rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Damped-cosine mass on a cone {xi : (xi.p)/(|xi||p|) >= 1/2} around any
    direction p,

        int_K e^{-b t |xi|^2} cos^2(gamma t |xi|) dxi = c(n)/omega_{n-1} (G(b, t) - K_sin(t)),

    by cos^2 = 1 - sin^2, where c(n) is the spherical cap measure (2*pi/3 in
    2-d, pi in 3-d) and G(b, t) = ``gaussian_moment_bound(n, 0, b, t)`` the
    full-space integral of e^{-b t |xi|^2}; the value is rotation invariant,
    so it does not depend on p.
    """
    n = params.n
    return cone_cap_area(n) / sphere_area(n) * (gaussian_moment_bound(n, 0, params.b, t)
                                                - sine_kernel_integral(params, t, rel_tol))


def measured_remainder_norms(params: ModelParams, data: InitialData, t: float,
                             rel_tol: float = DEFAULT_REL_TOL) -> dict[str, float]:
    """Quadrature values of the computable remainder masses on the low zone.

    Returns the squared norms of the moment defect, the longitudinal sine
    correction, and the lumped five expansion corrections (obtained as the
    exact moment flow minus leading profile minus sine correction).
    """
    fields = {"moment_defect": moment_defect_field, "sine_correction": sine_correction_field,
              "expansion": expansion_field}
    return {name: field_norm_sq(field, params, data, t, "low", rel_tol).value
            for name, field in fields.items()}


def velocity_norm_series(params: ModelParams, data: InitialData, times: np.ndarray,
                         rel_tol: float = DEFAULT_REL_TOL) -> DecaySeries:
    """L^2 norms ||v_hat(t, .)|| of the exact solution on a time grid."""
    values = zone_series(velocity_field, params, data, times, "full", rel_tol)
    return DecaySeries(np.asarray(times, float), np.sqrt(values), label="velocity-norm")


def remainder_series(params: ModelParams, data: InitialData, times: np.ndarray,
                     component: str, rel_tol: float = DEFAULT_REL_TOL) -> DecaySeries:
    """Squared low-zone L^2 norms of (exact solution - leading profile) for the
    ``component`` "velocity" or "density"."""
    values = zone_series(partial(remainder_field, component=component), params, data,
                         times, "low", rel_tol)
    return DecaySeries(np.asarray(times, float), values, label=f"{component}-remainder-sq")


def check_moment_ratio(params: ModelParams, data: InitialData):
    q0 = data.amplitude_rho
    if q0 == 0:
        raise ValueError("the optimality statement needs a nonzero density moment")
    if data.p0_norm / abs(q0) > _MAX_MOMENT_RATIO:
        raise ValueError(f"|P0|/|Q0| = {data.p0_norm / abs(q0):.3g} exceeds the admissible "
                         f"ratio {_MAX_MOMENT_RATIO}")


def kernel_series(params: ModelParams, data: InitialData, times: np.ndarray,
                  rel_tol: float = DEFAULT_REL_TOL):
    """The three profile-term integrals and the conical-region witness at each
    time: the full-space norms of the heat projection xi (xi.p0)/|xi|^2
    e^{-alpha t |xi|^2} and the damped cosine projection xi (xi.p0)/|xi|^2
    e^{-b t |xi|^2/2} cos(gamma t |xi|), the acoustic sine kernel K_sin, and a
    quarter of |p0|^2 times the cone mass of the damped cosine.

    Only K_sin is a quadrature (:func:`sine_kernel_integral`).  The sphere mean
    of |xi_hat . p0|^2 is |p0|^2/n and cos^2 = 1 - sin^2, so with G(rate, t)
    the full-space integral of e^{-rate t |xi|^2}:

        heat = |p0|^2/n G(2 alpha, t),
        cosine = |p0|^2/n (G(b, t) - K_sin),
        witness = |p0|^2/4 |cap|/|S^(n-1)| (G(b, t) - K_sin).

    p0 is the velocity moment of ``data``; the projection items need it nonzero.
    """
    check_dimension(params, data.n)
    p_sq = data.p0_sq
    if p_sq == 0.0:
        raise ValueError("kernel plateau items need a nonzero moment vector")
    n = params.n
    times = [float(t) for t in times]
    sine = np.array(ordered_map(lambda t: sine_kernel_integral(params, t, rel_tol), times))
    gauss = lambda rate: np.array([gaussian_moment_bound(n, 0, rate, t) for t in times])
    cos_mass = gauss(params.b) - sine
    heat = p_sq / n * gauss(2.0 * params.alpha)
    witness = 0.25 * p_sq * cone_cap_area(n) / sphere_area(n) * cos_mass
    return heat, sine, p_sq / n * cos_mass, witness


def highfreq_initial_energy(params: ModelParams, data: InitialData) -> float:
    """E_h(0), the data energy (|P0|^2 + Q0^2) e^(-s^2 |xi|^2) / 2 outside the low
    zone, s the data width, in closed form: (|P0|^2 + Q0^2) |S^(n-1)| Gamma(n/2, x)
    / (4 s^n) with x = s^2 r_low^2.  Gamma(1, x) = e^(-x) or Gamma(1/2, x) =
    sqrt(pi) erfc(sqrt(x)) is raised by Gamma(a + 1, x) = a Gamma(a, x) + x^a e^(-x),
    with x^a e^(-x) formed as exp(a log x - x) so that it cannot overflow."""
    n, s = params.n, data.width
    x = (s * params.delta0) * (s * params.delta0) / 2.0  # s^2 r_low^2, r_low unrounded
    a, upper = ((0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))) if n % 2
                else (1.0, math.exp(-x)))
    while a < n / 2:
        upper = a * upper + (math.exp(a * math.log(x) - x) if 0.0 < x < math.inf else 0.0)
        a += 1.0
    return data.mass_sq * sphere_area(n) * upper / (4.0 * s ** n)


def highfreq_energy_series(params: ModelParams, data: InitialData, times: np.ndarray,
                           rel_tol: float = DEFAULT_REL_TOL) -> tuple[DecaySeries, float]:
    """High-zone energy E_h(t) on a time grid, and E_h(0)."""
    values = zone_series(energy_field, params, data, times, "high", rel_tol)
    series = DecaySeries(times, values, label="highfreq-energy")
    return series, highfreq_initial_energy(params, data)
