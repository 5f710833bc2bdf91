"""Test-only references for closed forms of the runtime package.

The two quadratures integrate in radial coordinates with plain panel-wise
Gauss-Legendre, independently of the package's own quadrature; the density
residual checks the closed-form solution against its second-order ODE; the
complex roots and their divided differences are the reference for the
package's real Phi and Psi.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from nsprofile.model import InitialData, ModelParams
from nsprofile.profiles import gaussian_moment_bound
from nsprofile.spectral import solve_exact_batch


def l11_norm_radial_quadrature(data: InitialData, panels: int = 64, order: int = 16,
                               r_max_widths: float = 14.0) -> float:
    """Independent check of the closed-form density L^{1,1} norm.

    Integrates (1 + r) |rho0(r)| over R^n in radial coordinates with
    panel-wise Gauss-Legendre; validates the Gamma-function closed form to
    ~1e-10 relative.
    """
    n, s = data.n, data.width
    area = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    nodes, weights = leggauss(order)
    edges = np.linspace(0.0, r_max_widths * s, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = 0.5 * (nodes + 1.0) * (hi - lo) + lo
        w = 0.5 * (hi - lo) * weights
        rho = abs(data.amplitude_rho) * (2 * math.pi * s * s) ** (-n / 2) * np.exp(-r * r / (2 * s * s))
        total += float(np.sum((1.0 + r) * rho * r ** (n - 1) * w))
    return area * total


def gaussian_moment_integral(n: int, k: int, rate: float, t: float, r_cut: float,
                             panels: int = 64) -> float:
    """Radial quadrature of int_{|xi| <= r_cut} |xi|^k e^{-rate |xi|^2 t} dxi.

    Asserts the value stays below :func:`gaussian_moment_bound`; the smooth
    integrand needs no oscillation handling, only grading near the decay scale.
    """
    if k + n <= 0:
        raise ValueError("need k + n > 0")
    if rate <= 0 or t <= 0 or r_cut <= 0:
        raise ValueError("rate, t and r_cut must be positive")
    area = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    hi = min(r_cut, math.sqrt(100.0 / (rate * t)))
    nodes, weights = leggauss(16)
    edges = np.geomspace(hi / panels, hi, panels)
    edges = np.concatenate([[0.0], edges])
    total = 0.0
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        r = 0.5 * (nodes + 1.0) * (hi_e - lo_e) + lo_e
        w = 0.5 * (hi_e - lo_e) * weights
        total += float(np.sum(r ** (n - 1 + k) * np.exp(-rate * t * r * r) * w))
    value = area * total
    bound = gaussian_moment_bound(n, k, rate, t)
    if value > bound * (1.0 + 1e-9):
        raise ArithmeticError(
            f"moment integral {value!r} exceeded its dominating constant {bound!r}"
        )
    return value


def density_ode_residual(params: ModelParams, data: InitialData, xi: np.ndarray,
                         t: float, dt: float) -> float:
    """|finite-difference residual| of the second-order density equation.

    The density transform satisfies rho_tt + b r^2 rho_t + a r^2 rho = 0;
    this evaluates it with central differences on the closed-form solution at
    the one frequency ``xi`` (an n-vector), so the result should be O(dt^2)
    against the term magnitudes.  Requires gamma |xi| dt < 0.1 so the
    oscillation is resolved, and t > dt.
    """
    xi = np.asarray(xi, dtype=float)
    r = float(np.linalg.norm(xi))
    if params.gamma * r * dt >= 0.1:
        raise ValueError("dt too large: gamma |xi| dt must stay below 0.1")
    if t <= dt:
        raise ValueError("need t > dt for the centered stencil")
    rm, r0, rp = (solve_exact_batch(params, data, xi[None, :], s)[1][0]
                  for s in (t - dt, t, t + dt))
    rho_tt = (rp - 2.0 * r0 + rm) / dt ** 2
    rho_t = (rp - rm) / (2.0 * dt)
    r2 = r * r
    return abs(rho_tt + params.b * r2 * rho_t + params.a * r2 * r0)


def complex_roots(params: ModelParams, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots (sigma1, sigma2) of lambda^2 + b r^2 lambda + a r^2 at radii r >= 0,
    as complex arrays.

    On the real branch sigma1 is the small-magnitude root (computed
    cancellation-free as a r^2 / sigma2) and sigma2 the large-magnitude one.
    """
    a, b = params.a, params.b
    r = np.asarray(r, dtype=float)
    r2 = r * r
    disc = 4.0 * a - b * b * r2  # > 0 oscillatory, 0 at r = delta0, < 0 overdamped
    s1 = np.empty(r.shape, dtype=complex)
    s2 = np.empty(r.shape, dtype=complex)
    osc = disc > 0.0
    re = -0.5 * b * r2[osc]
    im = 0.5 * r[osc] * np.sqrt(disc[osc])
    s1[osc] = re + 1j * im
    s2[osc] = re - 1j * im
    dbl = disc == 0.0
    s1[dbl] = s2[dbl] = -0.5 * b * r2[dbl]
    over = disc < 0.0
    big = -0.5 * (b * r2[over] + r[over] * np.sqrt(-disc[over]))
    s1[over] = (a * r2[over]) / big
    s2[over] = big
    return s1, s2


def complex_phi_psi(s1: np.ndarray, s2: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Divided differences Phi = (e^{s1 t}-e^{s2 t})/(s1-s2) and
    Psi = (s1 e^{s1 t}-s2 e^{s2 t})/(s1-s2) in complex arithmetic, the double
    root s1 = s2 giving Phi = t e^{s1 t} and Psi = (1 + s1 t) e^{s1 t}."""
    s1 = np.asarray(s1, dtype=complex)
    s2 = np.asarray(s2, dtype=complex)
    e1, e2 = np.exp(s1 * t), np.exp(s2 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(s1 == s2, t * e1, (e1 - e2) / (s1 - s2))
        psi = np.where(s1 == s2, (1.0 + s1 * t) * e1, (s1 * e1 - s2 * e2) / (s1 - s2))
    return phi, psi
