"""Test-only reference quadratures for closed forms of the runtime package.

Both integrate in radial coordinates with plain panel-wise Gauss-Legendre,
independently of the package's own quadrature.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from nsprofile.model import InitialData
from nsprofile.profiles import gaussian_moment_bound


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
