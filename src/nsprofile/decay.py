"""Every norm a verdict reports, decay series, and their least-squares fits.

Each quadrature norm is one ``zone_norm_sq`` call through :func:`field_norm_sq`
of a field(params, data, r, t) of this module or of ``profiles``, which
``zone_norm_sq`` evaluates on bounded slices of radii.  The acoustic sine
kernel K_sin is one of them: the norm of the velocity profile at the unit
density datum.  The cone mass of the damped cosine is a closed-form multiple
of G - K_sin, with G the Gaussian integral, since sin^2 + cos^2 = 1.  The
norms of a time grid are taken in order on the calling thread: at the default
sizes each is a run of short numpy calls that hold the GIL, so worker threads
saved no time and cost memory.  Time series are fitted by log-log lines for
polynomial rates and semi-log lines for the exponential high-frequency regime.
The verdicts themselves, with their pass marks, are judged by the CLI runners.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ._record import record
from .model import InitialData, ModelParams, check_dimension
from .profiles import gaussian_moment_bound, profile_field
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

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape or t.size < 4:
            raise ValueError("series needs matching times/values with >= 4 entries")
        # each check names the first entry it rejects
        for message, bad in (("times and values must be finite",
                              ~(np.isfinite(t) & np.isfinite(v))),
                             ("times must be ascending and positive",
                              t <= np.concatenate(([0.0], t[:-1]))),
                             ("values must be strictly positive", v <= 0)):
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(f"{message}: entry {i} has t={t[i]:g}, value={v[i]:g}")


@record
class DecayFit:
    slope: float
    intercept: float
    r_squared: float


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
    return DecayFit(slope, intercept, r2)


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
    The field works elementwise, so each radius gets the bits that the whole
    level gives it (see ``spectral._phi_psi``)."""
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

    the full-zone norm of the velocity profile at the unit density datum
    (Q0 = 1, P0 = 0), whose one term is the acoustic sine.  For large t it
    behaves like (S0/2) omega_{n-1} b^{-n/2} t^{-n/2} with S0 = Gamma(n/2)/2.
    """
    unit = InitialData((0.0,) * params.n, 1.0, 1.0)
    return field_norm_sq(partial(profile_field, scalar=False), params, unit, t, "full",
                         rel_tol).value


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


def check_moment_ratio(params: ModelParams, data: InitialData):
    q0 = data.amplitude_rho
    if q0 == 0:
        raise ValueError("the optimality statement needs a nonzero density moment")
    if data.p0_norm / abs(q0) > _MAX_MOMENT_RATIO:
        raise ValueError(f"|P0|/|Q0| = {data.p0_norm / abs(q0):.3g} exceeds the admissible "
                         f"ratio {_MAX_MOMENT_RATIO}")


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
