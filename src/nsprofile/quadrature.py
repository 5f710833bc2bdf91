"""L^2 norms over frequency zones by radial-angular reduction.

All acceptance integrands are axially symmetric about the initial-velocity
moment direction, so an n-dimensional integral reduces to a 2-d one in the
radius r and u = cos(phi), the cosine of the angle to the e1 axis, with weight
``omega_{n-2} r^{n-1} (1-u^2)^((n-3)/2)`` (n = 1 degenerates to the two
half-lines).  The angular rule is Gauss in u for that weight, in closed form
for every n: 2 nodes u = -+1/sqrt(n) with equal weights, exact through degree
3, and the integrands here are quadratic in u.  Every call certifies this on
the radial probe: the 3-node rule u = 0, -+sqrt(3/(n+2)), exact through
degree 5, must give the same probe mass to within ``rel_tol``, otherwise the
call raises :class:`QuadratureError`.

Radial panels carry the 15-point Gauss-Kronrod rule with its embedded 7-point
Gauss rule (QUADPACK qk15; Piessens et al. 1983), laid out densely enough to
resolve the sin/cos(gamma t r) oscillation; a cheap deterministic probe
locates the radially active sub-interval so that huge times do not pay for
panels where the integrand has already underflowed.  One refinement loop
(:func:`_refine`) serves both the zone norms and the 1-d oscillatory kernel
integrals: a level's value is its K15 sum and its error estimate the sum over
panels of |K15 - G7|; the layout starts coarse and doubles its panels until a
level's estimate, plus an estimate of the truncated tail (see
:func:`zone_norm_sq`), is within ``rel_tol`` of its value, and a call whose
levels never get there raises :class:`QuadratureError`.
The layout is fixed by the constants below, so ``rel_tol`` is the only
accuracy setting, and a level that would need more than ``_MAX_RADIAL_NODES``
radial nodes on one interval raises :class:`QuadratureError` instead of
allocating them, so every call has a bounded cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelParams

# QUADPACK qk15 on [-1, 1]: the non-negative Kronrod abscissae (the rule is
# symmetric) with their weights, and the weights of the embedded 7-point Gauss
# rule, whose nodes are every second abscissa from the second on, and 0
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_PANEL_ORDER = 15
_K15_NODES = np.concatenate([-np.array(_XGK[:-1]), _XGK[::-1]])
_K15_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G7_WEIGHTS = np.zeros(_PANEL_ORDER)
_G7_WEIGHTS[1::2] = _WG + _WG[-2::-1]
# a panel's K15 - G7 is its K15 terms weighted by this
_GAUSS_GAP = 1.0 - _G7_WEIGHTS / _K15_WEIGHTS
_PROBE_POINTS = 97
_PROBE_FLOOR = 1e-26
_DECAY_EXPONENT = 80.0  # e^-80 ~ 1.8e-35, below any tolerance after polynomial factors

# Radial layout of refinement level 0: at least _BASE_PANELS panels, and at
# least _OSC_FACTOR panels per oscillation period 2*pi/(gamma*t) on the
# radially active sub-interval; each further level doubles them, up to
# _MAX_REFINEMENTS times.  The start is coarse because doubling stops at the
# first level whose K15/G7 estimate meets ``rel_tol``.  _ANGULAR_NODES is the
# number k of Gauss nodes in u = cos(phi), exact to degree 2k - 1; the
# (k+1)-node certificate rejects integrands that k nodes do not resolve.
_BASE_PANELS = 12
_OSC_FACTOR = 2
_ANGULAR_NODES = 2
_MAX_REFINEMENTS = 6
_MAX_RADIAL_NODES = 1 << 21  # ~400x the largest layout of a default run (4,935)
DEFAULT_REL_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Raised when a norm evaluation cannot meet its tolerance."""


class SymmetryError(ValueError):
    """Raised when the integrand fails the axial-symmetry spot check."""


@dataclass(frozen=True)
class ZoneNorm:
    zone: str
    value: float
    est_error: float


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 points for n = 1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


def cone_cap_area(n: int) -> float:
    """Measure of the unit-sphere cap {w : w.e >= 1/2} in R^n.

    For n >= 2 the polar-angle integral of sin^{n-2} over [0, pi/3] times the
    area of S^{n-2}: 2*pi/3 for n = 2 and pi for n = 3.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n == 1:
        return 1.0
    nodes, weights = _panel_nodes(0.0, math.pi / 3.0, 1)
    return sphere_area(n - 1) * float(np.sum(np.sin(nodes) ** (n - 2) * weights))


def _panel_nodes(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """K15 nodes and weights of ``panels`` equal panels on [lo, hi]."""
    if panels * _PANEL_ORDER > _MAX_RADIAL_NODES:
        raise QuadratureError(
            f"radial layout needs {panels * _PANEL_ORDER} nodes on [{lo:.4g}, {hi:.4g}], "
            f"more than the cap of {_MAX_RADIAL_NODES}"
        )
    edges = np.linspace(lo, hi, panels + 1)
    width = (hi - lo) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + 0.5 * width * _K15_NODES[None, :]).ravel()
    weights = np.broadcast_to(0.5 * width * _K15_WEIGHTS, (panels, _PANEL_ORDER)).ravel()
    return nodes, weights


def _angular_frame(n: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (u, sqrt(1-u^2), 0, ...) and weights of the Gauss rule
    in u = cos(phi) with ``nodes`` = 2 or 3 nodes for the measure of S^(n-1).

    Over the sphere the mean of u^2 is 1/n and that of u^4 is 3/(n(n+2)).
    2 nodes: u = -+1/sqrt(n), each weighted |S^(n-1)|/2, exact through degree 3
    (the two points -+e1 at n = 1).  3 nodes: u = -+sqrt(3/(n+2)) weighted
    |S^(n-1)| (n+2)/(6n) and u = 0 the rest, exact through degree 5.
    """
    area = sphere_area(n)
    if nodes == 2:
        u = np.array([-1.0, 1.0]) / math.sqrt(n)
        w = np.full(2, area / 2)
    else:
        u = np.array([-1.0, 0.0, 1.0]) * math.sqrt(3.0 / (n + 2))
        outer = area * (n + 2) / (6.0 * n)
        w = np.array([outer, area - 2.0 * outer, outer])
    dirs = np.zeros((nodes, n))
    dirs[:, 0] = u
    dirs[:, 1:2] = np.sqrt(1.0 - u * u)[:, None]  # no second axis at n = 1
    return dirs, w


def _abs_sq(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values)
    if v.ndim == 1:
        return np.abs(v) ** 2
    # one float row per point: the real and imaginary parts of every component
    flat = np.ascontiguousarray(v, dtype=complex if np.iscomplexobj(v) else float)
    flat = flat.view(float).reshape(v.shape[0], -1)
    return np.einsum("ij,ij->i", flat, flat)


def _eval_abs_sq(f: Callable[[np.ndarray], np.ndarray], xi: np.ndarray,
                 chunk: int = 1 << 19) -> np.ndarray:
    out = np.empty(xi.shape[0])
    for start in range(0, xi.shape[0], chunk):
        out[start:start + chunk] = _abs_sq(f(xi[start:start + chunk]))
    return out


def _on_frame(radii: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The points r * d for every radius r and direction d, radius-major."""
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1])


def _symmetry_points(radii: np.ndarray, n: int) -> np.ndarray:
    """Two directions at the same angle to e1 at each radius: tilted into e2
    and reflected (n = 2), or tilted into e2 and into e3."""
    phi = 1.03
    xi = np.zeros((2, radii.size, n))
    xi[:, :, 0] = radii * math.cos(phi)
    xi[0, :, 1] = radii * math.sin(phi)
    if n == 2:
        xi[1, :, 1] = -radii * math.sin(phi)
    else:
        xi[1, :, 2] = radii * math.sin(phi)
    return xi.reshape(-1, n)


def _check_axial_symmetry(radii: np.ndarray, abs_sq: np.ndarray) -> None:
    """Compare |f|^2 on the two directions of :func:`_symmetry_points`."""
    fa, fb = abs_sq.reshape(2, radii.size)
    for r, a, b in zip(radii, fa.tolist(), fb.tolist()):
        if abs(a - b) > 1e-8 * max(a, b) + 1e-280:
            raise SymmetryError(
                f"integrand is not axially symmetric at r={r:.4g}: {a!r} vs {b!r}"
            )


def _radial_profile(abs_sq: np.ndarray, radii: np.ndarray, n: int,
                    ang_w: np.ndarray) -> np.ndarray:
    """r^(n-1) times the angular integral of |f|^2 at each radius, from |f|^2
    on the :func:`_on_frame` points of the directions that ``ang_w`` weighs."""
    vals = (abs_sq.reshape(radii.size, -1) * ang_w[None, :]).sum(axis=1)
    return vals * radii ** (n - 1)


def _check_angular_rule(finer: np.ndarray, probe: np.ndarray, rel_tol: float) -> None:
    """Raise unless the (k+1)-node radial profile reproduces the k-node probe mass."""
    gap = float(np.sum(np.abs(finer - probe)))
    mass = float(np.sum(finer))
    if not gap <= rel_tol * mass:
        raise QuadratureError(
            f"{_ANGULAR_NODES} angular nodes do not resolve the integrand: "
            f"probe mass {mass:.6g} moves by {gap:.3g} with one node more"
        )


def _kronrod(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """K15 sum of ``values`` over a :func:`_radial_layout` with ``weights``, and
    its error estimate, the sum over panels of |K15 - G7|."""
    panel_gaps = (values * weights).reshape(-1, _PANEL_ORDER) @ _GAUSS_GAP
    return float(np.dot(values, weights)), float(np.sum(np.abs(panel_gaps)))


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


def _osc_panels(gamma_t: float, span: float) -> int:
    required = _OSC_FACTOR * gamma_t * span / (2.0 * math.pi)
    return max(_BASE_PANELS, int(math.ceil(required)))


def _radial_layout(r_lo: float, r_hi: float, split: float, gamma_t: float,
                   refine: int) -> tuple[np.ndarray, np.ndarray]:
    mult = 2 ** refine
    if split >= r_hi:
        panels = _osc_panels(gamma_t, r_hi - r_lo) * mult
        return _panel_nodes(r_lo, r_hi, panels)
    n1 = _osc_panels(gamma_t, split - r_lo) * mult
    r1, w1 = _panel_nodes(r_lo, split, n1)
    r2, w2 = _panel_nodes(split, r_hi, _BASE_PANELS * mult)
    return np.concatenate([r1, r2]), np.concatenate([w1, w2])


def default_r_max(params: ModelParams, t: float) -> float:
    if t <= 0:
        raise ValueError("default truncation radius needs t > 0; pass r_max")
    return max(4.0 * params.delta0, 8.0 / math.sqrt(params.alpha * t))


def _refine(evaluate: Callable[[int], tuple[float, float]], tail: float, rel_tol: float,
            label: str) -> tuple[float, float]:
    """Evaluate levels 0, 1, ... as (K15 value, K15/G7 estimate) until one's
    estimate plus ``tail`` is within ``rel_tol`` of its value; returns
    (value, est_error), est_error = estimate + ``tail``, or raises
    :class:`QuadratureError` naming ``label`` if no level is."""
    for refine in range(_MAX_REFINEMENTS + 1):
        value, est = evaluate(refine)
        if est + tail <= rel_tol * max(abs(value), 1e-300) or (value == 0.0 and est == 0.0):
            return value, est + tail
    raise QuadratureError(f"{label} did not converge: value={value:.6g}, "
                          f"est_error={est + tail:.3g}")


def zone_norm_sq(f: Callable[[np.ndarray], np.ndarray], params: ModelParams, t: float,
                 zone: str, rel_tol: float = DEFAULT_REL_TOL, *,
                 r_max: float | None = None) -> ZoneNorm:
    """Integral of |f(xi)|^2 over a frequency zone.

    ``f`` maps a batch of frequencies (m, n) to complex scalars (m,) or
    complex vectors (m, n) and must be axially symmetric about the e1 axis
    (spot-checked), with |f|^2 resolved by the angular rule in u (certified
    on the probe; :class:`QuadratureError` otherwise).  Zones: "low" =
    {|xi| <= delta0/sqrt(2)}, "high" = the complement truncated at r_max,
    "full" = both.  A truncated zone adds the tail estimate: the largest |f|^2
    at r_max over the 3 certificate nodes (the 2 nodes at n = 1), not over the
    sphere (a u^2 term at n = 2 shows 3/4 of its sphere maximum there), times
    the radial integral of e^(-min(2 alpha, b) t (r^2 - r_max^2)).  That is no bound
    either: it assumes |f|^2 decays like this Gaussian past r_max, but the slow
    overdamped root tends to -a/b, so the energy field decays in r only
    through the data envelope and the tail can exceed the estimate.
    ``r_max`` overrides the truncation radius :func:`default_r_max`.  The
    value is the K15 sum of the first level whose error estimate (the sum over
    its panels of |K15 - G7|) plus the tail estimate is within ``rel_tol`` of
    it, and ``est_error`` is those two estimates together.  An unconverged
    norm raises :class:`QuadratureError`.  The spot check, the probe, the
    certificate and the edge value take one integrand call; each level one more.
    """
    n = params.n
    if zone == "low":
        r_lo, r_hi = 0.0, params.r_low
        truncated = False
    elif zone == "high":
        r_lo, r_hi = params.r_low, r_max or default_r_max(params, t)
        truncated = True
    elif zone == "full":
        r_lo, r_hi = 0.0, r_max or default_r_max(params, t)
        truncated = True
    else:
        raise ValueError(f"unknown zone {zone!r}")
    if r_hi <= r_lo:
        raise ValueError(f"truncation radius {r_hi} does not exceed the zone start {r_lo}")

    dirs, ang_w = _angular_frame(n, _ANGULAR_NODES)
    finer_dirs, finer_w = _angular_frame(n, _ANGULAR_NODES + 1)
    spots = np.array([0.25, 0.55, 0.85]) * (r_hi - r_lo) + r_lo
    radii = r_lo + (np.arange(_PROBE_POINTS) + 0.5) * ((r_hi - r_lo) / _PROBE_POINTS)
    # one integrand call for every per-call check: the symmetry spot check, the
    # k-node probe, the (k+1)-node certificate and the edge value on the
    # certificate's directions; n = 1 has no angle, so neither the spot check
    # nor the certificate
    angular = n > 1
    none = np.zeros((0, n))
    blocks = [_symmetry_points(spots, n) if angular else none, _on_frame(radii, dirs),
              _on_frame(radii, finer_dirs) if angular else none,
              r_hi * (finer_dirs if angular else dirs) if truncated else none]
    at_spots, at_probe, at_finer, at_edge = np.split(
        _eval_abs_sq(f, np.concatenate(blocks)), np.cumsum([len(x) for x in blocks[:-1]]))
    probe = _radial_profile(at_probe, radii, n, ang_w)
    if angular:
        _check_axial_symmetry(spots, at_spots)
        _check_angular_rule(_radial_profile(at_finer, radii, n, finer_w), probe, rel_tol)
    split = _active_end(radii, probe, r_lo, r_hi)
    gamma_t = params.gamma * max(t, 0.0)

    def evaluate(refine: int) -> tuple[float, float]:
        r, wr = _radial_layout(r_lo, r_hi, split, gamma_t, refine)
        return _kronrod(_radial_profile(_eval_abs_sq(f, _on_frame(r, dirs)), r, n, ang_w), wr)

    tail = 0.0
    if truncated:
        edge = float(np.max(at_edge))
        lam = min(2.0 * params.alpha, params.b) * max(t, 0.0)
        tail = edge * sphere_area(n) * _gaussian_tail_bound(r_hi, lam, n) if lam > 0 else 0.0

    return ZoneNorm(zone, *_refine(evaluate, tail, rel_tol, f"{zone}-zone norm"))


def _damped_square_integral(wave: Callable[[np.ndarray], np.ndarray], params: ModelParams,
                            t: float, rel_tol: float, label: str) -> tuple[float, float]:
    """(value, est_error) of int_0^inf r^{n-1} e^{-b t r^2} wave(gamma t r)^2 dr
    for a wave bounded by 1; :class:`QuadratureError` naming ``label`` if it
    does not converge."""
    if t <= 0:
        raise ValueError("t must be positive")
    n, b = params.n, params.b
    r_hi = math.sqrt(_DECAY_EXPONENT / (b * t))
    gamma_t = params.gamma * t
    # |wave| <= 1, so the truncated mass is bounded analytically
    tail = math.exp(-_DECAY_EXPONENT) * _gaussian_tail_bound(r_hi, b * t, n)

    def evaluate(refine: int) -> tuple[float, float]:
        r, w = _radial_layout(0.0, r_hi, r_hi, gamma_t, refine)
        return _kronrod(np.exp(-b * t * r * r) * wave(gamma_t * r) ** 2 * r ** (n - 1), w)

    return _refine(evaluate, tail, rel_tol, f"{label} integral at t={t}")


def sine_kernel_integral(params: ModelParams, t: float,
                         rel_tol: float = DEFAULT_REL_TOL) -> float:
    """The squared L^2 norm of the acoustic sine kernel,

        int |i xi e^{-b |xi|^2 t / 2} sin(gamma t |xi|)/|xi||^2 dxi
        = omega_{n-1} int_0^inf r^{n-1} e^{-b t r^2} sin^2(gamma t r) dr.

    For large t this behaves like (S0/2) omega_{n-1} b^{-n/2} t^{-n/2} with
    S0 = Gamma(n/2)/2.
    """
    return sphere_area(params.n) * _damped_square_integral(np.sin, params, t, rel_tol,
                                                           "sine-kernel")[0]


def cone_cosine_integral(params: ModelParams, t: float,
                         rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Damped-cosine mass on a cone {xi : (xi.p)/(|xi||p|) >= 1/2} around any
    direction p,

        int_K e^{-b t |xi|^2} cos^2(gamma t |xi|) dxi
        = c(n) int_0^inf r^{n-1} e^{-b t r^2} cos^2(gamma t r) dr,

    where c(n) is the spherical cap measure (2*pi/3 in 2-d, pi in 3-d); the
    value is rotation invariant, so it does not depend on p.
    """
    return cone_cap_area(params.n) * _damped_square_integral(np.cos, params, t, rel_tol, "cone")[0]
