"""Asymptotic diffusion-wave profiles and computable remainder machinery.

The large-time velocity transform is a four-term profile: transverse heat
flow of the velocity moment, minus its longitudinal projection, an acoustic
sine term carried by the density moment, and a damped cosine term on the
longitudinal projection.  The density transform has the matching two-term
profile.  Subtracting the profile from the exact solution leaves a remainder
that splits into

* a *moment defect* (the part of the flow driven by the data transform minus
  its zeroth moment) — computable pointwise and evaluated here exactly;
* five *expansion corrections* from mean-value expansions of the oscillation
  phase and amplitude — they contain inaccessible mean-value angles, so only
  their closed-form upper bounds are evaluated;
* one *longitudinal sine correction* — computable pointwise.

Every piece is a ``spectral.Field``: coefficients at a batch of radii, which
the zone norms integrate and the ``*_profile`` and ``*_term`` functions
assemble at an (m, n) batch of frequencies.  The exact flow, the pure-moment
flow and the moment defect are one closed-form kernel (``spectral.flow``)
applied to three data pairs: the data transform, the zeroth moments (P0, Q0),
and the moment remainder A (``ab_decomposition`` in ``tests/oracles.py``).
Because that kernel is linear in the data, the moment defect equals
``solve_exact_batch`` minus the pure-moment flow identically; tests use that
identity at machine precision.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .model import VERSINE_RATIO, InitialData, ModelParams, check_dimension, l11_weight
from .quadrature import sphere_area
from .spectral import Field, flow, pointwise
# no function here calls it: bench/spans.py wraps this attribute as a trace site
from .spectral import solve_exact_batch  # noqa: F401


def profile_field(params: ModelParams, data: InitialData, r: np.ndarray, t: float,
                  vector: bool = True, scalar: bool = True) -> Field:
    """Leading profiles at radii r: ``spectral.flow``'s assembly
    (``Field.from_factors``) with gamma r Phi replaced by the damped sine
    e^{-b r^2 t/2} sin(gamma t r), and Psi and Psi + b r^2 Phi by the damped
    cosine; the heat, sine and cosine are formed only where it reads them."""
    p, q = data.p0_norm, data.amplitude_rho
    rr = r * r
    wave = np.exp(-params.b * rr * t / 2.0)
    phase = params.gamma * t * r
    sine = wave * np.sin(phase) if (vector and q) or (scalar and p) else None
    cosine = wave * np.cos(phase) if (vector and p) or (scalar and q) else None
    heat = np.exp(-params.alpha * rr * t) if vector and p else None
    return Field.from_factors(p, q, vector, scalar, heat, sine, cosine, cosine)


def moment_defect_field(params: ModelParams, data: InitialData, r: np.ndarray,
                        t: float) -> Field:
    """Remainder driven by the data transform minus its moments (low zone).

    This is the exact velocity flow of the moment remainder A of the even data
    (``ab_decomposition`` in ``tests/oracles.py``, B = 0), (e^{-s^2 r^2/2} - 1)
    times the moments, formed by expm1: at small s r the difference keeps its
    precision, and its squared norm scales as s^4.  Restricted to r <= delta0,
    where the divided differences are oscillatory.
    """
    if np.any(r > params.delta0 * (1 + 1e-12)):
        raise ValueError("moment defect is evaluated on |xi| <= delta0 only")
    defect = np.expm1(-data.width ** 2 * (r * r) / 2.0)
    p, q = data.p0_norm, data.amplitude_rho
    return flow(params, r, t, p * defect if p else 0.0, q * defect if q else 0.0,
                scalar=False)


def sine_correction_field(params: ModelParams, data: InitialData, r: np.ndarray,
                          t: float) -> Field:
    """Longitudinal damped-sine correction,
    -(b/2) xi (xi.P0) e^{-b r^2 t/2} sin(gamma t r) / (gamma r); zeros over r
    for P0 = 0, so that its sphere means are arrays like those of every field
    whose norm is taken."""
    p = data.p0_norm
    if not p:
        return Field(b1=np.zeros(r.size))
    wave = np.exp(-params.b * (r * r) * t / 2.0)
    return Field(b1=(-0.5 * params.b * p * r * wave * np.sin(params.gamma * t * r)
                     / params.gamma))


def moment_field(params: ModelParams, data: InitialData, r: np.ndarray, t: float) -> Field:
    """Exact velocity flow of the bare moments (P0, Q0) with the true
    divided-difference coefficients; the moment defect is the exact velocity
    minus this."""
    return flow(params, r, t, data.p0_norm, data.amplitude_rho, scalar=False)


def expansion_field(params: ModelParams, data: InitialData, r: np.ndarray, t: float) -> Field:
    """The five expansion corrections together: the exact moment flow minus
    the leading velocity profile minus the sine correction."""
    return (moment_field(params, data, r, t)
            - profile_field(params, data, r, t, scalar=False)
            - sine_correction_field(params, data, r, t))


def velocity_profile(params: ModelParams, data: InitialData, xi: np.ndarray,
                     t: float) -> np.ndarray:
    """Four-term leading profile of the velocity transform at (t, xi != 0)."""
    return pointwise(profile_field, params, data, xi, t)[0]


def density_profile(params: ModelParams, data: InitialData, xi: np.ndarray, t: float):
    """Two-term leading profile of the density transform at (t, xi != 0)."""
    return pointwise(profile_field, params, data, xi, t)[1]


def moment_flow(params: ModelParams, data: InitialData, xi: np.ndarray,
                t: float) -> np.ndarray:
    """:func:`moment_field` at xi of shape (m, n)."""
    return pointwise(moment_field, params, data, xi, t)[0]


def moment_defect_term(params: ModelParams, data: InitialData, xi: np.ndarray,
                       t: float) -> np.ndarray:
    """:func:`moment_defect_field` at xi of shape (m, n)."""
    return pointwise(moment_defect_field, params, data, xi, t)[0]


def sine_correction_term(params: ModelParams, data: InitialData, xi: np.ndarray,
                         t: float) -> np.ndarray:
    """:func:`sine_correction_field` at xi of shape (m, n)."""
    return pointwise(sine_correction_field, params, data, xi, t)[0]


def gaussian_moment_bound(n: int, k: int, rate: float, t: float) -> float:
    """Closed-form dominating constant for the truncated Gaussian moment:

        int_{|xi| <= r_cut} |xi|^k e^{-rate |xi|^2 t} dxi
            <= omega_{n-1} Gamma((n+k)/2) / (2 rate^{(n+k)/2}) * t^{-(n+k)/2},

    the full-space value of the same integral.
    """
    if k + n <= 0:
        raise ValueError("need k + n > 0")
    if rate <= 0 or t <= 0:
        raise ValueError("rate and t must be positive")
    c = sphere_area(n) * math.gamma((n + k) / 2) / (2.0 * rate ** ((n + k) / 2))
    return c * t ** (-(n + k) / 2)


@record
class RemainderBounds:
    """Closed-form upper bounds for the squared low-zone L^2 norms of the moment
    defect, the five expansion corrections and the longitudinal sine correction.
    ``total`` sums these squares; it does not bound the square of the pieces' sum."""

    moment_defect: float
    expansion: tuple[float, float, float, float, float]
    sine_correction: float

    @property
    def total(self) -> float:
        return self.moment_defect + sum(self.expansion) + self.sine_correction


def remainder_bounds(params: ModelParams, data: InitialData, t: float) -> RemainderBounds:
    """Evaluate the closed-form remainder bounds at time t > 0.

    Every entry is an explicit coefficient times a dominated Gaussian moment;
    the mean-value amplitude factors use 4a - b^2 theta^2 r^2 >= 2a on the low
    zone, and the data-dependent entries use the paper's moment bounds
    |A| <= VERSINE_RATIO |xi| L^{1,1} and |B| <= |xi| L^{1,1} (the 1.0 in lm).
    """
    check_dimension(params, data.n)
    if t <= 0:
        raise ValueError("t must be positive")
    a, b, g, n = params.a, params.b, params.gamma, params.n
    weight = l11_weight(data.n, data.width)  # the L^{1,1} norms are the moments times it
    p0_sq = data.p0_sq
    q0_sq = data.amplitude_rho ** 2
    sv = float(np.sum((np.abs(data.amplitude_v) * weight) ** 2))
    sr = (abs(data.amplitude_rho) * weight) ** 2
    lm = VERSINE_RATIO ** 2 + 1.0

    gm = lambda k, rate: gaussian_moment_bound(n, k, rate, t)

    # heat-decayed A/B part, acoustic-coupling part, and longitudinal bracket
    # (3-term Cauchy-Schwarz split, inner 3-way split on the bracket)
    defect = (3.0 * lm * sv * gm(2, 2 * params.alpha)
              + 3.0 * (2.0 * g ** 2 / a) * lm * sr * gm(2, b)
              + 9.0 * lm * sv * ((b ** 2 / (2 * a)) * gm(4, b) + gm(2, b) + gm(2, 2 * params.alpha)))

    e1 = (b ** 4 / (4 * a)) * p0_sq * t ** 2 * gm(6, b)
    e2 = (b ** 6 / (2 * a) ** 3) * p0_sq * gm(6, b)
    e3 = (b ** 6 / (8 * a ** 2)) * p0_sq * t ** 2 * gm(8, b)
    e4 = (4 * g ** 2 * b ** 4 / (2 * a) ** 3) * q0_sq * gm(4, b)
    e5 = (b ** 4 * g ** 2 / (8 * a ** 2)) * q0_sq * t ** 2 * gm(6, b)
    e6 = (b ** 2 / (4 * g ** 2)) * p0_sq * gm(2, b)
    return RemainderBounds(moment_defect=defect, expansion=(e1, e2, e3, e4, e5),
                           sine_correction=e6)
