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

The exact flow, the pure-moment flow and the moment defect are one closed-form
kernel (``spectral._flow``) applied to three data pairs: the data transform,
the zeroth moments (P0, Q0), and the moment remainder
(e^{-s^2 |xi|^2/2} - 1)(P0, Q0).  Because that kernel is linear in the data,
the moment defect equals ``solve_exact`` minus the pure-moment flow
identically; tests use that identity at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InitialData, ModelParams, Moments, moment_bound_constants, moments
from .quadrature import sphere_area
from .spectral import _flow, solve_exact_batch


def _as_batch(xi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """(xi as an (m, n) batch, |xi|^2, whether xi was a single frequency)."""
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    if xi.ndim not in (1, 2) or xi.shape[-1] != n:
        raise ValueError(f"xi must have shape ({n},) or (m, {n}), got {xi.shape}")
    xi = xi[None, :] if single else xi
    r2 = np.sum(xi * xi, axis=1)
    if np.any(r2 == 0.0):
        raise ValueError("xi = 0 is excluded from profile evaluation")
    return xi, r2, single


def velocity_profile(params: ModelParams, mom: Moments, xi: np.ndarray, t: float) -> np.ndarray:
    """Four-term leading profile of the velocity transform at (t, xi != 0)."""
    xi, r2, single = _as_batch(xi, params.n)
    r = np.sqrt(r2)
    b, g = params.b, params.gamma
    p0 = np.asarray(mom.P0, dtype=float)
    heat = np.exp(-params.alpha * r2 * t)
    wave = np.exp(-b * r2 * t / 2.0)
    xi_p0 = xi @ p0
    long_proj = (xi_p0 / r2)[:, None] * xi  # xi (xi.P0)/|xi|^2
    out = (heat[:, None] * p0[None, :]
           - heat[:, None] * long_proj
           - 1j * (wave * np.sin(g * t * r) / r * mom.Q0)[:, None] * xi
           + (wave * np.cos(g * t * r))[:, None] * long_proj)
    return out[0] if single else out


def density_profile(params: ModelParams, mom: Moments, xi: np.ndarray, t: float):
    """Two-term leading profile of the density transform at (t, xi != 0)."""
    xi, r2, single = _as_batch(xi, params.n)
    r = np.sqrt(r2)
    wave = np.exp(-params.b * r2 * t / 2.0)
    xi_p0 = xi @ np.asarray(mom.P0, dtype=float)
    out = (-1j * xi_p0 * wave * np.sin(params.gamma * t * r) / r
           + mom.Q0 * wave * np.cos(params.gamma * t * r))
    return complex(out[0]) if single else out


def moment_flow(params: ModelParams, mom: Moments, xi: np.ndarray, t: float) -> np.ndarray:
    """Exact velocity flow of the pure moments (P0, Q0) with the true
    divided-difference coefficients; the moment defect is solve_exact minus this."""
    xi, r2, single = _as_batch(xi, params.n)
    p0 = np.asarray(mom.P0, dtype=float)[None, :]
    out, _ = _flow(params, xi, r2, t, p0, np.array([mom.Q0], dtype=float))
    return out[0] if single else out


def moment_defect_term(params: ModelParams, data: InitialData, xi: np.ndarray,
                       t: float) -> np.ndarray:
    """Remainder driven by the data transform minus its moments (low zone).

    This is the exact velocity flow of the moment-remainder split (A - iB) of
    the data; for the even Gaussian family B vanishes and
    A = (e^{-s^2 r^2/2} - 1) times the moments.  Restricted to
    |xi| <= delta0, where the divided differences are oscillatory.
    """
    xi, r2, single = _as_batch(xi, params.n)
    if np.any(np.sqrt(r2) > params.delta0 * (1 + 1e-12)):
        raise ValueError("moment defect is evaluated on |xi| <= delta0 only")
    env = np.exp(-data.width ** 2 * r2 / 2.0) - 1.0
    p0 = np.asarray(data.amplitude_v, dtype=float)
    out, _ = _flow(params, xi, r2, t, env[:, None] * p0[None, :], env * data.amplitude_rho)
    return out[0] if single else out


def sine_correction_term(params: ModelParams, mom: Moments, xi: np.ndarray,
                         t: float) -> np.ndarray:
    """Longitudinal damped-sine correction,
    -(b/2) xi (xi.P0) e^{-b r^2 t/2} sin(gamma t r) / (gamma r)."""
    xi, r2, single = _as_batch(xi, params.n)
    r = np.sqrt(r2)
    xi_p0 = xi @ np.asarray(mom.P0, dtype=float)
    coef = (-0.5 * params.b * xi_p0 * np.exp(-params.b * r2 * t / 2.0)
            * np.sin(params.gamma * t * r) / (params.gamma * r))
    out = coef[:, None] * xi
    return (out[0] if single else out).astype(complex)


@dataclass(frozen=True)
class ProfileDecomposition:
    """Profile terms and computable remainder pieces at one (t, xi)."""

    leading: np.ndarray
    moment_defect: np.ndarray
    sine_correction: np.ndarray
    raw_remainder: np.ndarray


def decompose_velocity(params: ModelParams, data: InitialData, xi: np.ndarray,
                       t: float) -> ProfileDecomposition:
    """Exact solution split into leading profile plus remainder pieces.

    ``raw_remainder`` is exact minus leading by construction; subtracting the
    two computable pieces leaves only the five bounded expansion corrections.
    """
    mom = moments(data)
    xi1, _, _ = _as_batch(xi, params.n)
    v_hat, _ = solve_exact_batch(params, data, xi1, t)
    leading = velocity_profile(params, mom, xi1, t)
    return ProfileDecomposition(
        leading=leading[0],
        moment_defect=moment_defect_term(params, data, xi1, t)[0],
        sine_correction=sine_correction_term(params, mom, xi1, t)[0],
        raw_remainder=v_hat[0] - leading[0],
    )


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


@dataclass(frozen=True)
class RemainderBounds:
    """Closed-form upper bounds for the squared low-zone L^2 norms of the
    remainder pieces: the moment defect, the five expansion corrections, and
    the longitudinal sine correction.  ``total`` is their sum."""

    moment_defect: float
    expansion: tuple[float, float, float, float, float]
    sine_correction: float

    @property
    def total(self) -> float:
        return self.moment_defect + sum(self.expansion) + self.sine_correction


def measured_remainder_norms(params: ModelParams, data: InitialData, t: float,
                             spec=None) -> dict[str, float]:
    """Quadrature values of the computable remainder masses on the low zone.

    Returns the squared norms of the moment defect, the longitudinal sine
    correction, and the lumped five expansion corrections (obtained as the
    exact moment flow minus leading profile minus sine correction).
    """
    from .quadrature import zone_norm_sq

    mom = moments(data)

    def defect(xi):
        return moment_defect_term(params, data, xi, t)

    def sine(xi):
        return sine_correction_term(params, mom, xi, t)

    def expansion(xi):
        return (moment_flow(params, mom, xi, t)
                - velocity_profile(params, mom, xi, t)
                - sine_correction_term(params, mom, xi, t))

    out = {}
    for name, f in (("moment_defect", defect), ("sine_correction", sine),
                    ("expansion", expansion)):
        out[name] = zone_norm_sq(f, params, t, "low", spec).require_converged().value
    return out


def remainder_bounds(params: ModelParams, data: InitialData, t: float) -> RemainderBounds:
    """Evaluate the closed-form remainder bounds at time t > 0.

    Every entry is an explicit coefficient times a dominated Gaussian moment;
    the mean-value amplitude factors use 4a - b^2 theta^2 r^2 >= 2a on the low
    zone, and the data-dependent entries use the trigonometric moment bounds
    with the weighted L^{1,1} norms.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    a, b, g, n = params.a, params.b, params.gamma, params.n
    mom = moments(data)
    p0_sq = float(np.dot(mom.P0, mom.P0))
    q0_sq = mom.Q0 ** 2
    sv = float(np.sum(mom.l11_v ** 2))
    sr = mom.l11_rho ** 2
    const = moment_bound_constants()
    lm = const.versine_ratio ** 2 + const.sinc_ratio ** 2

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
