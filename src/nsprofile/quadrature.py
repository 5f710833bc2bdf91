"""L^2 norms over frequency zones by radial quadrature of exact sphere means.

Every field whose norm is taken here gives, at each radius, the mean and the
maximum of |field|^2 over the sphere of that radius (``spectral.Field``
computes both exactly), so an n-dimensional zone norm is the radial integral
of |S^(n-1)| r^(n-1) times the mean: one real evaluation per radius and no
angular rule.

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
allocating them, so every call has a bounded cost.  A level is evaluated in
slices of ``_SLICE_PANELS`` panels, which bounds every integrand batch.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import record
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
_PROBE_OFFSETS = np.arange(_PROBE_POINTS) + 0.5
_PROBE_FLOOR = 1e-26

# Radial layout of refinement level 0: at least _BASE_PANELS panels, and at
# least _OSC_FACTOR panels per oscillation period 2*pi/(gamma*t) on the
# radially active sub-interval; each further level doubles them, up to
# _MAX_REFINEMENTS times.  The start is coarse because doubling stops at the
# first level whose K15/G7 estimate meets ``rel_tol``.
_BASE_PANELS = 12
_OSC_FACTOR = 2
_MAX_REFINEMENTS = 6
_MAX_RADIAL_NODES = 1 << 21  # ~400x the largest layout of a default run (5,115)
# panels per integrand call: a level is evaluated in slices of at most 1,020
# radii, so no array of the integrand spans a whole layout
_SLICE_PANELS = 68
DEFAULT_REL_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Raised when a norm evaluation cannot meet its tolerance."""


@record
class ZoneNorm:
    """A zone norm, its error estimate, the radii its integrand was evaluated
    at (probe included) and its accepted refinement level."""

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

    The polar-angle integral of sin^{n-2} over [0, pi/3] times the area of
    S^{n-2}: 2*pi/3 for n = 2 and pi for n = 3.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    half = math.pi / 6.0  # the half width of the one K15 panel on [0, pi/3]
    polar = half + half * _K15_NODES
    return sphere_area(n - 1) * float(np.sum(np.sin(polar) ** (n - 2) * (half * _K15_WEIGHTS)))


def _active_end(radii: np.ndarray, probe: np.ndarray, r_lo: float, r_hi: float) -> float:
    """Largest radius where the probe sees non-negligible mass, plus padding."""
    above = (probe > probe.max() * _PROBE_FLOOR).nonzero()[0]
    end = float(radii[above[-1]]) if above.size else r_lo  # a probe of zeros or NaN
    return min(r_hi, end + 2.0 * (r_hi - r_lo) / radii.size)


def _gaussian_tail_bound(r_from: float, lam: float, n: int) -> float:
    """Upper bound for int_{r_from}^inf r^{n-1} e^{-lam (r^2 - r_from^2)} dr.

    For n <= 2, r^{n-1} <= r r_from^{n-2} on r >= r_from gives
    r_from^{n-2} / (2 lam), exact at n = 2.
    """
    if n <= 2:
        return r_from ** (n - 2) / (2.0 * lam)
    p = n / 2 - 1
    scale = 2.0 ** (p - 1) if p > 1 else 1.0
    return 0.5 * scale * (r_from ** (n - 2) / lam + math.gamma(n / 2) / lam ** (n / 2))


def _osc_panels(gamma_t: float, span: float) -> int:
    required = _OSC_FACTOR * gamma_t * span / (2.0 * math.pi)
    return max(_BASE_PANELS, int(math.ceil(required)))


def default_r_max(params: ModelParams, t: float) -> float:
    """Radius at which the "high" and "full" zones are truncated at time t > 0."""
    if t <= 0:
        raise ValueError(f"the high and full zones are truncated only at t > 0, got t={t:g}")
    return max(4.0 * params.delta0, 8.0 / math.sqrt(params.alpha * t))


def zone_norm_sq(f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                 params: ModelParams, t: float, zone: str,
                 rel_tol: float = DEFAULT_REL_TOL) -> ZoneNorm:
    """Integral of |field(xi)|^2 over a frequency zone.

    ``f`` maps radii (m,) to the mean and the maximum, arrays (m,), of
    |field|^2 over the sphere of each radius (``spectral.Field.sphere_mean_max``),
    so the radial integrand is |S^(n-1)| r^(n-1) times the mean.  Zones:
    "low" = {|xi| <= delta0/sqrt(2)}, "high" = the complement truncated at
    r_max = :func:`default_r_max`, which needs t > 0, "full" = both.  A
    truncated zone adds the tail estimate: the maximum of |field|^2 at r_max
    times the radial integral of e^(-min(2 alpha, b) t (r^2 - r_max^2)).  That
    is no bound: it assumes |field|^2 decays like this Gaussian past r_max, but
    the slow overdamped root tends to -a/b, so the energy field decays in r
    only through the data envelope and the tail can exceed the estimate.  The
    value is the K15 sum of the first level whose error estimate (the sum over
    its panels of |K15 - G7|) plus the tail estimate is within ``rel_tol`` of
    it, and ``est_error`` is those two estimates together.  An unconverged
    norm, a NaN integrand's among them, raises :class:`QuadratureError` naming
    its zone and t, and so does a radius r_max at which the kernels' b^2 r^2
    or a r^2 overflows.

    ``f`` is called once for the probe, whose last radius is the zone's outer
    edge (r_max, or delta0/sqrt(2) for the low zone), and then once per slice
    of at most ``_SLICE_PANELS`` whole panels of a level, so no array spans a
    level layout.  Every call takes ascending radii; a level's calls are
    consecutive and ascending, and the radii restart below the last one at the
    next level.  The K15 sum and the estimate are taken over the whole level,
    so they do not depend on the slicing.
    """
    if zone not in ("low", "high", "full"):
        raise ValueError(f"unknown zone {zone!r}")
    r_lo = params.r_low if zone == "high" else 0.0
    r_hi = params.r_low if zone == "low" else default_r_max(params, t)
    if not math.isfinite(max(params.b * params.b, params.a) * (r_hi * r_hi)):
        raise QuadratureError(f"b^2 r^2 or a r^2 overflows at r_max={r_hi:.4g}, t={t:g}")
    n, area = params.n, sphere_area(params.n)

    # the probe radii and, last, the edge radius r_hi take one integrand call
    radii = np.empty(_PROBE_POINTS + 1)
    np.add(r_lo, _PROBE_OFFSETS * ((r_hi - r_lo) / _PROBE_POINTS), out=radii[:-1])
    radii[-1] = r_hi
    mean, peak = f(radii)
    # the radial integrand |S^(n-1)| r^(n-1) times the sphere mean of |field|^2
    split = _active_end(radii[:-1], (area * mean * radii ** (n - 1))[:-1], r_lo, r_hi)
    tail = 0.0
    if zone != "low":
        lam = min(2.0 * params.alpha, params.b) * t
        tail = float(peak[-1]) * area * _gaussian_tail_bound(r_hi, lam, n)
    # level 0: oscillation panels on the active part [r_lo, split] and, if
    # split < r_hi, _BASE_PANELS on the rest; each level doubles every segment
    gamma_t = params.gamma * t
    segments = ([(r_lo, r_hi, _osc_panels(gamma_t, r_hi - r_lo))] if split >= r_hi else
                [(r_lo, split, _osc_panels(gamma_t, split - r_lo)), (split, r_hi, _BASE_PANELS)])

    points = radii.size
    for level in range(_MAX_REFINEMENTS + 1):
        # each panel's midpoint and half width: arrays over panels, not radii
        mids, halves = [], []
        for lo, hi, base in segments:
            panels = base << level
            if panels * _PANEL_ORDER > _MAX_RADIAL_NODES:
                raise QuadratureError(
                    f"radial layout needs {panels * _PANEL_ORDER} nodes on [{lo:.4g}, {hi:.4g}], "
                    f"more than the cap of {_MAX_RADIAL_NODES}")
            width = (hi - lo) / panels
            # the values of np.linspace(lo, hi, panels + 1), by its own arithmetic
            edges = np.arange(panels + 1.0) * width + lo
            edges[-1] = hi
            mids.append(0.5 * (edges[:-1] + edges[1:]))
            halves.append(np.full(panels, 0.5 * width))
        mids, halves = np.concatenate(mids)[:, None], np.concatenate(halves)[:, None]
        # each panel's K15 terms and K15 - G7, filled a slice of panels at a time
        terms, gaps = np.empty((mids.size, _PANEL_ORDER)), np.empty(mids.size)
        for first in range(0, mids.size, _SLICE_PANELS):
            part = slice(first, first + _SLICE_PANELS)
            r = (mids[part] + halves[part] * _K15_NODES).ravel()
            np.multiply((area * f(r)[0] * r ** (n - 1)).reshape(-1, _PANEL_ORDER),
                        halves[part] * _K15_WEIGHTS, out=terms[part])
            np.sum(terms[part] * _GAUSS_GAP, axis=1, out=gaps[part])
        points += terms.size
        value, est = float(np.sum(terms)), float(np.abs(gaps).sum())
        if est + tail <= rel_tol * max(abs(value), 1e-300):
            return ZoneNorm(value, est + tail, points, level)
    raise QuadratureError(f"{zone}-zone norm at t={t:g} did not converge: value={value:.6g}, "
                          f"est_error={est + tail:.3g}")
