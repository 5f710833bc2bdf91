"""L^2 norms over frequency zones by radial-angular reduction.

All acceptance integrands are axially symmetric about the initial-velocity
moment direction, so an n-dimensional integral reduces to a 2-d one in the
radius r and u = cos(phi), the cosine of the angle to the e1 axis, with weight
``omega_{n-2} r^{n-1} (1-u^2)^((n-3)/2)`` (n = 1 degenerates to the two
half-lines).  The angular rule is Gauss in u for that weight: Gauss-Chebyshev
in closed form for n = 2, Gauss-Legendre for n = 3 and Golub-Welsch (1969)
for n >= 4; k nodes integrate polynomials in u of degree 2k - 1 exactly, and
the integrands here are quadratic in u.  Every call certifies this on the
radial probe: k and k + 1 angular nodes must give the same probe mass to
within ``rel_tol``, otherwise the call raises :class:`QuadratureError`.

Radial panels are fixed-order-8 Gauss-Legendre laid out densely enough to
resolve the sin/cos(gamma t r) oscillation; a cheap deterministic probe
locates the radially active sub-interval so that huge times do not pay for
panels where the integrand has already underflowed.  One refinement loop
(:func:`_refine`) serves both the zone norms and the 1-d oscillatory kernel
integrals: the layout starts coarse and doubles until two successive levels
agree to ``rel_tol``; every result carries that difference as its error
estimate, plus an analytic Gaussian bound for the truncated tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import ModelParams

_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)
_PROBE_POINTS = 97
_PROBE_FLOOR = 1e-26
_DECAY_EXPONENT = 80.0  # e^-80 ~ 1.8e-35, below any tolerance after polynomial factors


class QuadratureError(RuntimeError):
    """Raised when a norm evaluation cannot meet its tolerance."""


class SymmetryError(ValueError):
    """Raised when the integrand fails the axial-symmetry spot check."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel layout and tolerance knobs.

    Refinement level 0 lays out at least ``base_panels`` radial panels, and
    at least ``osc_factor`` panels per oscillation period 2*pi/(gamma*t) on
    the radially active sub-interval; each further level doubles them, up to
    ``max_refinements`` times.  The defaults start coarse, because doubling
    stops as soon as two levels agree to ``rel_tol``.  ``angular_nodes`` is
    the number k of Gauss nodes in u = cos(phi), exact to degree 2k - 1; the
    (k+1)-node certificate rejects integrands that k nodes do not resolve.
    ``r_max`` overrides the default high-zone truncation
    max(4*delta0, 8/sqrt(alpha*t)).
    """

    base_panels: int = 12
    osc_factor: int = 2
    angular_nodes: int = 3
    rel_tol: float = 1e-6
    r_max: float | None = None
    max_refinements: int = 6

    def __post_init__(self):
        if not min(self.base_panels, self.osc_factor, self.angular_nodes) >= 1:
            raise ValueError(f"panel and node counts must be >= 1: {self}")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")


@dataclass(frozen=True)
class ZoneNorm:
    zone: str
    value: float
    est_error: float
    converged: bool

    def require_converged(self) -> "ZoneNorm":
        if not self.converged:
            raise QuadratureError(
                f"{self.zone}-zone norm did not converge: value={self.value:.6g}, "
                f"est_error={self.est_error:.3g}"
            )
        return self


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 points for n = 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


def cone_cap_area(n: int) -> float:
    """Measure of the unit-sphere cap {w : w.e >= 1/2} in R^n.

    Closed form 2*pi/3 for n = 2 and pi for n = 3; other dimensions use the
    polar-angle integral of sin^{n-2} over [0, pi/3].
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n == 1:
        return 1.0
    if n == 2:
        return 2.0 * math.pi / 3.0
    if n == 3:
        return math.pi
    nodes = 0.5 * (_GL_NODES + 1.0) * (math.pi / 3.0)
    weights = 0.5 * (math.pi / 3.0) * _GL_WEIGHTS
    return sphere_area(n - 1) * float(np.sum(np.sin(nodes) ** (n - 2) * weights))


def _panel_nodes(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, panels + 1)
    width = (hi - lo) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + 0.5 * width * _GL_NODES[None, :]).ravel()
    weights = np.broadcast_to(0.5 * width * _GL_WEIGHTS, (panels, _GL_ORDER)).ravel()
    return nodes, weights


def _gauss_u(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-node Gauss rule on [-1, 1] for the weight (1-u^2)^((n-3)/2), n >= 2.

    n = 2 is Gauss-Chebyshev in closed form and n = 3 Gauss-Legendre.  For
    n >= 4 (Gauss-Gegenbauer) the nodes are the eigenvalues of the symmetric
    Jacobi matrix of the weight and the weights are its total mass times the
    squared first components of the eigenvectors (Golub & Welsch 1969).
    """
    if n == 2:
        return np.cos((2 * np.arange(k) + 1) * math.pi / (2 * k)), np.full(k, math.pi / k)
    if n == 3:
        return leggauss(k)
    a = (n - 3) / 2
    j = np.arange(1, k)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a - 1) * (2 * j + 2 * a + 1)))
    u, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mass = math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5)
    return u, mass * vecs[0] ** 2


def _angular_frame(n: int, angular_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (u, sqrt(1-u^2), 0, ...) and their angular weights."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    u, w = _gauss_u(n, angular_nodes)
    dirs = np.zeros((angular_nodes, n))
    dirs[:, 0] = u
    dirs[:, 1] = np.sqrt(1.0 - u * u)
    # omega_{n-2}: area of S^{n-2} (equals 2 for n = 2, the two half-planes)
    return dirs, sphere_area(n - 1) * w


def _abs_sq(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values)
    if v.ndim == 1:
        return np.abs(v) ** 2
    return np.sum(np.abs(v) ** 2, axis=1)


def _eval_abs_sq(f: Callable[[np.ndarray], np.ndarray], xi: np.ndarray,
                 chunk: int = 1 << 19) -> np.ndarray:
    out = np.empty(xi.shape[0])
    for start in range(0, xi.shape[0], chunk):
        out[start:start + chunk] = _abs_sq(f(xi[start:start + chunk]))
    return out


def _check_axial_symmetry(f, radii: np.ndarray, n: int) -> None:
    """Compare |f|^2 at each radius on two directions at the same angle to e1:
    tilted into e2 and reflected (n = 2), or tilted into e2 and into e3."""
    if n == 1:
        return
    phi = 1.03
    xi = np.zeros((2, radii.size, n))
    xi[:, :, 0] = radii * math.cos(phi)
    xi[0, :, 1] = radii * math.sin(phi)
    if n == 2:
        xi[1, :, 1] = -radii * math.sin(phi)
    else:
        xi[1, :, 2] = radii * math.sin(phi)
    fa, fb = _abs_sq(f(xi.reshape(-1, n))).reshape(2, radii.size)
    for r, a, b in zip(radii, fa.tolist(), fb.tolist()):
        if abs(a - b) > 1e-8 * max(a, b) + 1e-280:
            raise SymmetryError(
                f"integrand is not axially symmetric at r={r:.4g}: {a!r} vs {b!r}"
            )


def _radial_profile(f, radii: np.ndarray, n: int, dirs: np.ndarray,
                    ang_w: np.ndarray) -> np.ndarray:
    """r^(n-1) times the angular integral of |f|^2 at each radius."""
    xi = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    vals = (_eval_abs_sq(f, xi).reshape(radii.size, -1) * ang_w[None, :]).sum(axis=1)
    return vals * radii ** (n - 1)


def _check_angular_rule(f, radii: np.ndarray, probe: np.ndarray, n: int,
                        spec: QuadratureSpec) -> None:
    """Raise unless k + 1 angular nodes reproduce the k-node probe mass."""
    if n == 1:
        return
    finer = _radial_profile(f, radii, n, *_angular_frame(n, spec.angular_nodes + 1))
    gap = float(np.sum(np.abs(finer - probe)))
    mass = float(np.sum(finer))
    if not gap <= spec.rel_tol * mass:
        raise QuadratureError(
            f"{spec.angular_nodes} angular nodes do not resolve the integrand: "
            f"probe mass {mass:.6g} moves by {gap:.3g} with one node more"
        )


def _active_end(radii: np.ndarray, probe: np.ndarray, r_lo: float, r_hi: float) -> float:
    """Largest radius where the probe sees non-negligible mass, plus padding."""
    spacing = (r_hi - r_lo) / radii.size
    peak = float(np.max(probe))
    if peak == 0.0:
        return min(r_hi, r_lo + 2.0 * spacing)
    above = np.nonzero(probe > peak * _PROBE_FLOOR)[0]
    return min(r_hi, float(radii[above[-1]]) + 2.0 * spacing)


def _gaussian_tail_bound(r_from: float, lam: float, n: int) -> float:
    """Upper bound for int_{r_from}^inf r^{n-1} e^{-lam (r^2 - r_from^2)} dr.

    For n <= 2, r^{n-1} <= r r_from^{n-2} on r >= r_from gives
    r_from^{n-2} / (2 lam), exact at n = 2.
    """
    if lam <= 0:
        return math.inf
    if n <= 2:
        return r_from ** (n - 2) / (2.0 * lam)
    p = n / 2 - 1
    scale = 2.0 ** max(p - 1, 0.0) if p > 1 else 1.0
    return 0.5 * scale * (r_from ** (n - 2) / lam + math.gamma(n / 2) / lam ** (n / 2))


def _osc_panels(gamma_t: float, span: float, spec: QuadratureSpec) -> int:
    required = spec.osc_factor * gamma_t * span / (2.0 * math.pi)
    return max(spec.base_panels, int(math.ceil(required)))


def _radial_layout(r_lo: float, r_hi: float, split: float, gamma_t: float,
                   spec: QuadratureSpec, refine: int) -> tuple[np.ndarray, np.ndarray]:
    mult = 2 ** refine
    if split >= r_hi:
        panels = _osc_panels(gamma_t, r_hi - r_lo, spec) * mult
        return _panel_nodes(r_lo, r_hi, panels)
    n1 = _osc_panels(gamma_t, split - r_lo, spec) * mult
    r1, w1 = _panel_nodes(r_lo, split, n1)
    r2, w2 = _panel_nodes(split, r_hi, spec.base_panels * mult)
    return np.concatenate([r1, r2]), np.concatenate([w1, w2])


def default_r_max(params: ModelParams, t: float) -> float:
    if t <= 0:
        raise ValueError("default truncation radius needs t > 0; pass spec.r_max")
    return max(4.0 * params.delta0, 8.0 / math.sqrt(params.alpha * t))


def _refine(evaluate: Callable[[int], float], tail: float,
            spec: QuadratureSpec) -> tuple[float, float, bool]:
    """Evaluate levels 0, 1, ... until two successive ones agree to ``rel_tol``;
    returns (value, est_error, converged), est_error = level gap + ``tail``."""
    coarse = evaluate(0)
    diff = math.inf
    for refine in range(1, spec.max_refinements + 1):
        fine = evaluate(refine)
        diff = abs(fine - coarse)
        scale = max(abs(fine), 1e-300)
        if diff + tail <= spec.rel_tol * scale or (fine == 0.0 and diff == 0.0):
            return fine, diff + tail, True
        coarse = fine
    return coarse, diff + tail, False


def zone_norm_sq(f: Callable[[np.ndarray], np.ndarray], params: ModelParams, t: float,
                 zone: str, spec: QuadratureSpec | None = None) -> ZoneNorm:
    """Integral of |f(xi)|^2 over a frequency zone.

    ``f`` maps a batch of frequencies (m, n) to complex scalars (m,) or
    complex vectors (m, n) and must be axially symmetric about the e1 axis
    (spot-checked), with |f|^2 resolved by the angular rule in u (certified
    on the probe; :class:`QuadratureError` otherwise).  Zones: "low" =
    {|xi| <= delta0/sqrt(2)}, "high" = the complement truncated at r_max,
    "full" = both.
    """
    spec = spec or QuadratureSpec()
    n = params.n
    if zone == "low":
        r_lo, r_hi = 0.0, params.r_low
        truncated = False
    elif zone == "high":
        r_lo, r_hi = params.r_low, spec.r_max or default_r_max(params, t)
        truncated = True
    elif zone == "full":
        r_lo, r_hi = 0.0, spec.r_max or default_r_max(params, t)
        truncated = True
    else:
        raise ValueError(f"unknown zone {zone!r}")
    if r_hi <= r_lo:
        raise ValueError(f"truncation radius {r_hi} does not exceed the zone start {r_lo}")

    dirs, ang_w = _angular_frame(n, spec.angular_nodes)
    _check_axial_symmetry(f, np.array([0.25, 0.55, 0.85]) * (r_hi - r_lo) + r_lo, n)
    radii = r_lo + (np.arange(_PROBE_POINTS) + 0.5) * ((r_hi - r_lo) / _PROBE_POINTS)
    probe = _radial_profile(f, radii, n, dirs, ang_w)
    _check_angular_rule(f, radii, probe, n, spec)
    split = _active_end(radii, probe, r_lo, r_hi)
    gamma_t = params.gamma * max(t, 0.0)

    def evaluate(refine: int) -> float:
        r, wr = _radial_layout(r_lo, r_hi, split, gamma_t, spec, refine)
        return float(np.dot(_radial_profile(f, r, n, dirs, ang_w), wr))

    tail = 0.0
    if truncated:
        xi_edge = r_hi * dirs
        edge = float(np.max(_eval_abs_sq(f, xi_edge)))
        lam = min(2.0 * params.alpha, params.b) * max(t, 0.0)
        tail = edge * sphere_area(n) * _gaussian_tail_bound(r_hi, lam, n) if lam > 0 else 0.0

    return ZoneNorm(zone, *_refine(evaluate, tail, spec))


def _radial_osc_integral(g: Callable[[np.ndarray], np.ndarray], params: ModelParams,
                         t: float, spec: QuadratureSpec, power: int, label: str) -> float:
    """Integral of g(r) r^power over (0, inf) for g with e^{-b t r^2} envelope;
    :class:`QuadratureError` naming ``label`` if it does not converge."""
    if t <= 0:
        raise ValueError("t must be positive")
    n = power + 1
    r_hi = math.sqrt(_DECAY_EXPONENT / (params.b * t))
    gamma_t = params.gamma * t
    # |g| <= e^{-b t r^2}, so the truncated mass is bounded analytically
    tail = math.exp(-_DECAY_EXPONENT) * _gaussian_tail_bound(r_hi, params.b * t, n)

    def evaluate(refine: int) -> float:
        panels = _osc_panels(gamma_t, r_hi, spec) * 2 ** refine
        r, w = _panel_nodes(0.0, r_hi, panels)
        return float(np.dot(g(r) * r ** power, w))

    value, _, converged = _refine(evaluate, tail, spec)
    if not converged:
        raise QuadratureError(f"{label} integral did not converge at t={t}")
    return value


def sine_kernel_integral(params: ModelParams, t: float,
                         spec: QuadratureSpec | None = None) -> float:
    """The squared L^2 norm of the acoustic sine kernel,

        int |i xi e^{-b |xi|^2 t / 2} sin(gamma t |xi|)/|xi||^2 dxi
        = omega_{n-1} int_0^inf r^{n-1} e^{-b t r^2} sin^2(gamma t r) dr.

    For large t this behaves like (S0/2) omega_{n-1} b^{-n/2} t^{-n/2} with
    S0 = Gamma(n/2)/2.
    """
    spec = spec or QuadratureSpec()
    b, g = params.b, params.gamma
    fn = lambda r: np.exp(-b * t * r * r) * np.sin(g * t * r) ** 2
    return sphere_area(params.n) * _radial_osc_integral(fn, params, t, spec, params.n - 1,
                                                        "sine-kernel")


def cone_cosine_integral(params: ModelParams, p0: np.ndarray, t: float,
                         spec: QuadratureSpec | None = None) -> float:
    """Damped-cosine mass on the cone {xi : (xi.p0)/(|xi||p0|) >= 1/2},

        int_K e^{-b t |xi|^2} cos^2(gamma t |xi|) dxi
        = c(n) int_0^inf r^{n-1} e^{-b t r^2} cos^2(gamma t r) dr,

    where c(n) is the spherical cap measure (2*pi/3 in 2-d, pi in 3-d).
    The direction p0 only gates validity; the value is rotation invariant.
    """
    spec = spec or QuadratureSpec()
    if float(np.linalg.norm(np.asarray(p0, dtype=float))) == 0.0:
        raise ValueError("cone integral needs a nonzero moment direction")
    b, g = params.b, params.gamma
    fn = lambda r: np.exp(-b * t * r * r) * np.cos(g * t * r) ** 2
    return cone_cap_area(params.n) * _radial_osc_integral(fn, params, t, spec,
                                                          params.n - 1, "cone")
