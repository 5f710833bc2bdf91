"""Test-only references for closed forms of the runtime package.

The two quadratures integrate in radial coordinates with plain panel-wise
Gauss-Legendre, independently of the package's own quadrature;
:func:`ab_decomposition` is the paper's moment-remainder split of the data
transform, which the package uses only through its closed form; the density
residual checks the closed-form solution against its second-order ODE; the
complex roots and their divided differences are the reference for the
package's real Phi and Psi; :func:`sine_kernel_exact` is the closed form of
the sine kernel at every n.  :func:`black_box_norm_sq` integrates a field
given only pointwise, f(xi), by Gauss rules in u = cos(phi), with the
axial-symmetry and angular-resolution checks such a field needs;
:func:`pointwise_fields` holds the pointwise formulas of the fields that the
package integrates through their radial coefficients.
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from nsprofile.model import InitialData, ModelParams, fourier_data_batch
from nsprofile.profiles import gaussian_moment_bound
from nsprofile.quadrature import DEFAULT_REL_TOL, QuadratureError, sphere_area, zone_norm_sq
from nsprofile.spectral import _phi_psi, solve_exact_batch


class ABDecomposition(NamedTuple):
    """Moment-remainder split of the data transform over xi (m, n).

    The paper writes v0_hat(xi) = A(xi) - i*B(xi) + P0 componentwise, with A
    the (cos(x.xi) - 1) integral and B the sin(x.xi) integral, and likewise
    with Q0 for the density.  The data here are even, so B is identically
    zero and only the A parts, A0 (m, n) and A_rho (m,), are kept.
    """

    A0: np.ndarray
    A_rho: np.ndarray


def ab_decomposition(data: InitialData, xi: np.ndarray) -> ABDecomposition:
    """Moment remainder of the Gaussian data: A = (e^{-s^2 |xi|^2/2} - 1)
    times the moments, formed by expm1 as ``profiles.moment_defect_field``
    forms it."""
    xi = np.asarray(xi, dtype=float)
    defect = np.expm1(-data.width ** 2 * np.sum(xi * xi, axis=1) / 2.0)
    a0 = defect[:, None] * np.asarray(data.amplitude_v, dtype=float)[None, :]
    return ABDecomposition(A0=a0, A_rho=defect * data.amplitude_rho)




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


def sine_kernel_exact(params: ModelParams, t: float) -> float:
    """Closed form of the acoustic sine kernel at every n,

        K_sin(t) = |S^(n-1)|/2 Gamma(n/2)/2 (b t)^(-n/2) [1 - 1F1(n/2; 1/2; -gamma^2 t/b)]:

    sin^2 = (1 - cos)/2, and the cosine moment of the radial Gaussian
    r^(n-1) e^(-b t r^2) is a Kummer function (scipy's ``hyp1f1``)."""
    from scipy.special import hyp1f1

    n, b = params.n, params.b
    g0 = math.gamma(n / 2) / 2.0 * (b * t) ** (-n / 2)
    return sphere_area(n) / 2.0 * g0 * (1.0 - float(hyp1f1(n / 2, 0.5, -params.a * t / b)))


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


class SymmetryError(ValueError):
    """Raised when the integrand fails the axial-symmetry spot check."""


def _angular_frame(n: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (u, sqrt(1-u^2), 0, ...) and weights of the Gauss rule
    in u = cos(phi) with ``nodes`` = 2 or 3 nodes for the measure of S^(n-1).

    Over the sphere the mean of u^2 is 1/n and that of u^4 is 3/(n(n+2)).
    2 nodes: u = -+1/sqrt(n), each weighted |S^(n-1)|/2, exact through degree 3.
    3 nodes: u = -+sqrt(3/(n+2)) weighted |S^(n-1)| (n+2)/(6n) and u = 0 the
    rest, exact through degree 5.
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
    dirs[:, 1] = np.sqrt(1.0 - u * u)
    return dirs, w


def _abs_sq(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values)
    if v.ndim == 1:
        return np.abs(v) ** 2
    # one float row per point: the real and imaginary parts of every component
    flat = np.ascontiguousarray(v, dtype=complex if np.iscomplexobj(v) else float)
    flat = flat.view(float).reshape(v.shape[0], -1)
    return np.einsum("ij,ij->i", flat, flat)


def _eval_abs_sq(f, xi: np.ndarray, chunk: int = 1 << 19) -> np.ndarray:
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
    """Raise unless the 3-node radial profile reproduces the 2-node mass."""
    gap = float(np.sum(np.abs(finer - probe)))
    mass = float(np.sum(finer))
    if not gap <= rel_tol * mass:
        raise QuadratureError(
            f"2 angular nodes do not resolve the integrand: "
            f"probe mass {mass:.6g} moves by {gap:.3g} with one node more"
        )


def black_box_norm_sq(f, params: ModelParams, t: float, zone: str,
                      rel_tol: float = DEFAULT_REL_TOL):
    """``zone_norm_sq`` of a field given pointwise: f maps frequencies (m, n)
    to complex scalars (m,) or vectors (m, n), axially symmetric about e1.

    At each batch of radii the sphere mean of |f|^2 is the 2-node Gauss rule
    u = -+1/sqrt(n) in u = cos(phi), not the 1/n of ``zone_norm_sq``.  That
    mean goes to ``zone_norm_sq`` with the largest |f|^2 on the 3 directions of
    the 3-node rule u = 0, -+sqrt(3/(n+2)) as the maximum, so that is its edge
    value.  Each level, and the probe, is checked as a whole: ``zone_norm_sq``
    evaluates it in consecutive calls of ascending radii, and the radii restart
    at the next level.  Three of its radii are spot-checked for axial symmetry
    (:class:`SymmetryError`), and the 3-node rule must give the same mass
    (:class:`QuadratureError` "angular nodes" otherwise).  A level is checked
    when the next one starts or ``zone_norm_sq`` returns or raises, so its
    check comes before the norm's own verdict on it.
    """
    n = params.n
    dirs, ang_w = _angular_frame(n, 2)
    finer_dirs, finer_w = _angular_frame(n, 3)
    area = sphere_area(n)
    level = []  # (radii, 2-node profile, 3-node profile) of each call of the level

    def check_level():
        if not level:
            return
        r, probe, finer = (np.concatenate(parts) for parts in zip(*level))
        level.clear()
        spots = r[[r.size // 4, r.size // 2, 3 * r.size // 4]]
        _check_axial_symmetry(spots, _eval_abs_sq(f, _symmetry_points(spots, n)))
        _check_angular_rule(finer, probe, rel_tol)

    def mean_max(r):
        if level and r[0] < level[-1][0][-1]:
            check_level()
        blocks = [_on_frame(r, dirs), _on_frame(r, finer_dirs)]
        at_probe, at_finer = np.split(_eval_abs_sq(f, np.concatenate(blocks)), [len(blocks[0])])
        probe = _radial_profile(at_probe, r, n, ang_w)
        level.append((r, probe, _radial_profile(at_finer, r, n, finer_w)))
        return probe / (area * r ** (n - 1)), at_finer.reshape(r.size, -1).max(axis=1)

    try:
        norm = zone_norm_sq(mean_max, params, t, zone, rel_tol)
    except QuadratureError:
        check_level()
        raise
    check_level()
    return norm


def pointwise_fields(params: ModelParams, data: InitialData, t: float) -> dict:
    """Pointwise formulas f(xi), xi (m, n), of the fields whose zone norms the
    package takes, and of the pure-moment flow, written out in the Cartesian
    components of xi."""
    n = params.n
    p0 = np.asarray(data.amplitude_v, dtype=float)
    q0 = data.amplitude_rho
    a, b, g = params.alpha, params.b, params.gamma

    def flow(xi, v0, rho0):
        r2 = np.sum(xi * xi, axis=1)
        # sqrt(r2), so that rotated copies of a radius keep sharing their bits
        phi, psi = _phi_psi(params, np.sqrt(r2), t)
        heat = np.exp(-a * r2 * t)
        w0 = np.einsum("ij,ij->i", xi, v0)
        v_hat = (heat[:, None] * v0 - 1j * g * phi[:, None] * xi * rho0[:, None]
                 + ((psi - heat) * w0 / r2)[:, None] * xi)
        return v_hat, (psi + b * r2 * phi) * rho0 - 1j * g * phi * w0

    def exact(xi):
        return flow(xi, *fourier_data_batch(data, xi))

    def moment_flow(xi):
        return flow(xi, p0[None, :], np.array([q0]))[0]

    def waves(xi):
        r2 = np.sum(xi * xi, axis=1)
        r = np.sqrt(r2)
        wave = np.exp(-b * r2 * t / 2.0)
        return r2, r, wave * np.sin(g * t * r), wave * np.cos(g * t * r)

    def profile(xi):
        r2, r, sine, cosine = waves(xi)
        heat = np.exp(-a * r2 * t)
        long_proj = ((xi @ p0) / r2)[:, None] * xi
        velocity = (heat[:, None] * p0[None, :] - heat[:, None] * long_proj
                    - 1j * (sine / r * q0)[:, None] * xi + cosine[:, None] * long_proj)
        return velocity, -1j * (xi @ p0) * sine / r + q0 * cosine

    def defect(xi):
        dec = ab_decomposition(data, xi)
        return flow(xi, dec.A0, dec.A_rho)[0]

    def sine_correction(xi):
        _, r, sine, _ = waves(xi)
        return (-0.5 * b * (xi @ p0) * sine / (g * r))[:, None] * xi

    def projection(radial):
        def f(xi):
            r2 = np.sum(xi * xi, axis=1)
            return ((xi @ p0) / r2 * radial(r2, np.sqrt(r2)))[:, None] * xi
        return f

    return {
        "velocity": lambda xi: exact(xi)[0],
        "energy": lambda xi: np.concatenate([exact(xi)[0], exact(xi)[1][:, None]], axis=1)
        / math.sqrt(2.0),
        "velocity_remainder": lambda xi: exact(xi)[0] - profile(xi)[0],
        "density_remainder": lambda xi: exact(xi)[1] - profile(xi)[1],
        "moment_defect": defect,
        "sine_correction": sine_correction,
        "expansion": lambda xi: moment_flow(xi) - profile(xi)[0] - sine_correction(xi),
        "moment_flow": moment_flow,
        "heat_projection": projection(lambda r2, r: np.exp(-a * r2 * t)),
        "damped_cosine": projection(lambda r2, r: np.exp(-b * r2 * t / 2) * np.cos(g * t * r)),
    }
