"""L^2 norms over frequency zones by radial quadrature of exact angular means.

Every field whose norm is taken here depends on the direction of xi only
through u = xi_hat . p_hat, the cosine of the angle to the velocity-moment
direction, and |field|^2 is a quadratic q0 + q1 u + q2 u^2 in it (see
``spectral.Field``).  Over the unit sphere S^(n-1) the mean of u is 0 and that
of u^2 is 1/n (also at n = 1, where the sphere is the two points -+1), so an
n-dimensional zone norm is the radial integral of |S^(n-1)| r^(n-1)
(q0 + q2/n): one real evaluation per radius and no angular rule.

Radial panels carry the 15-point Gauss-Kronrod rule with its embedded 7-point
Gauss rule (QUADPACK qk15; Piessens et al. 1983), laid out densely enough to
resolve the sin/cos(gamma t r) oscillation; a cheap deterministic probe
locates the radially active sub-interval so that huge times do not pay for
panels where the integrand has already underflowed.  :func:`zone_norm_sq` is
the only integrator: a level's value is its K15 sum and its error estimate the
sum over panels of |K15 - G7|; the layout starts coarse and doubles its panels
until a level's estimate, plus an estimate of the truncated tail, is within
``rel_tol`` of its value, and a norm whose levels never get there raises
:class:`QuadratureError`.  The module holds geometry and integration only; the
fields and kernels whose norms are taken live in ``decay``.
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

# Radial layout of refinement level 0: at least _BASE_PANELS panels, and at
# least _OSC_FACTOR panels per oscillation period 2*pi/(gamma*t) on the
# radially active sub-interval; each further level doubles them, up to
# _MAX_REFINEMENTS times.  The start is coarse because doubling stops at the
# first level whose K15/G7 estimate meets ``rel_tol``.
_BASE_PANELS = 12
_OSC_FACTOR = 2
_MAX_REFINEMENTS = 6
_MAX_RADIAL_NODES = 1 << 21  # ~400x the largest layout of a default run (4,935)
DEFAULT_REL_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Raised when a norm evaluation cannot meet its tolerance."""


@dataclass(frozen=True)
class ZoneNorm:
    """A zone norm, its error estimate, the radii its integrand was evaluated
    at (probe included) and its accepted refinement level."""

    zone: str
    value: float
    est_error: float
    points: int
    level: int


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


def _max_on_unit_interval(q0: float, q1: float, q2: float) -> float:
    """Maximum of q0 + q1 u + q2 u^2 over u in [-1, 1]."""
    if q2 < 0.0 and abs(q1) < -2.0 * q2:
        return q0 - q1 * q1 / (4.0 * q2)
    return q0 + abs(q1) + q2


def zone_norm_sq(f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
                 params: ModelParams, t: float, zone: str, rel_tol: float = DEFAULT_REL_TOL,
                 *, r_max: float | None = None) -> ZoneNorm:
    """Integral of |field(xi)|^2 over a frequency zone.

    ``f`` maps radii (m,) to the coefficients (q0, q1, q2), arrays (m,), of
    |field|^2 = q0 + q1 u + q2 u^2 at those radii (``spectral.Field.abs_sq``),
    so the radial integrand is |S^(n-1)| r^(n-1) times the exact sphere mean
    q0 + q2/n.  Zones: "low" = {|xi| <= delta0/sqrt(2)}, "high" = the
    complement truncated at r_max, "full" = both.  A truncated zone adds the
    tail estimate: the maximum of |field|^2 over u in [-1, 1] at r_max times
    the radial integral of e^(-min(2 alpha, b) t (r^2 - r_max^2)).  That is no
    bound: it assumes |field|^2 decays like this Gaussian past r_max, but the
    slow overdamped root tends to -a/b, so the energy field decays in r only
    through the data envelope and the tail can exceed the estimate.
    ``r_max`` overrides the truncation radius :func:`default_r_max`.  The
    value is the K15 sum of the first level whose error estimate (the sum over
    its panels of |K15 - G7|) plus the tail estimate is within ``rel_tol`` of
    it, and ``est_error`` is those two estimates together.  An unconverged
    norm raises :class:`QuadratureError` naming its zone and t.  The probe
    and the edge radius r_max take one integrand call; each level one more.
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

    area = sphere_area(n)

    def profile(r: np.ndarray, q) -> np.ndarray:
        """|S^(n-1)| r^(n-1) times the sphere mean q0 + q2/n of |field|^2."""
        return area * (q[0] + q[2] / n) * r ** (n - 1)

    # the probe radii and, last, the edge radius r_hi take one integrand call
    radii = np.append(r_lo + (np.arange(_PROBE_POINTS) + 0.5) * ((r_hi - r_lo) / _PROBE_POINTS),
                      r_hi)
    q = f(radii)
    split = _active_end(radii[:-1], profile(radii, q)[:-1], r_lo, r_hi)
    gamma_t = params.gamma * max(t, 0.0)
    tail = 0.0
    lam = min(2.0 * params.alpha, params.b) * max(t, 0.0)
    if truncated and lam > 0:
        edge = _max_on_unit_interval(*(float(c[-1]) for c in q))
        tail = edge * area * _gaussian_tail_bound(r_hi, lam, n)

    points = radii.size
    for level in range(_MAX_REFINEMENTS + 1):
        r, wr = _radial_layout(r_lo, r_hi, split, gamma_t, level)
        points += r.size
        value, est = _kronrod(profile(r, f(r)), wr)
        if est + tail <= rel_tol * max(abs(value), 1e-300) or (value == 0.0 and est == 0.0):
            return ZoneNorm(zone, value, est + tail, points, level)
    raise QuadratureError(f"{zone}-zone norm at t={t:g} did not converge: value={value:.6g}, "
                          f"est_error={est + tail:.3g}")
