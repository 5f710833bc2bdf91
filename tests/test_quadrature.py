import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nsprofile.config import ConfigError, build_run_config
from nsprofile.decay import cone_cosine_integral, sine_kernel_integral
from nsprofile.model import InitialData, ModelParams
from nsprofile.quadrature import (
    _BASE_PANELS,
    _G7_WEIGHTS,
    _K15_NODES,
    _K15_WEIGHTS,
    _MAX_RADIAL_NODES,
    _OSC_FACTOR,
    _PANEL_ORDER,
    _PROBE_POINTS,
    QuadratureError,
    _gaussian_tail_bound,
    _panel_nodes,
    cone_cap_area,
    sphere_area,
    zone_norm_sq,
)
from oracles import SymmetryError, _angular_frame, black_box_norm_sq

PARAMS2 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
PARAMS3 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=3)
PARAMS4 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=4)


def isotropic(abs_sq):
    """The integrand of zone_norm_sq for a field with |f|^2 = abs_sq(r) at every u."""
    return lambda r: (abs_sq(r), np.zeros(r.size), np.zeros(r.size))


def sine_kernel_sq(params, t):
    """|acoustic sine kernel|^2 = e^{-b t r^2} sin^2(gamma t r), isotropic."""
    return isotropic(lambda r: np.exp(-params.b * t * r * r) * np.sin(params.gamma * t * r) ** 2)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert sphere_area(1) == 2.0


def test_cone_cap_area_values():
    assert cone_cap_area(2) == pytest.approx(2 * math.pi / 3, rel=1e-15)
    assert cone_cap_area(3) == pytest.approx(math.pi, rel=1e-15)
    # n=4 via the polar integral; cross-check against dense trapezoid
    nodes = np.linspace(0, math.pi / 3, 200001)
    ref = sphere_area(3) * np.trapezoid(np.sin(nodes) ** 2, nodes)
    assert cone_cap_area(4) == pytest.approx(float(ref), rel=1e-8)


def test_low_zone_disk_area():
    res = zone_norm_sq(isotropic(np.ones_like), PARAMS2, t=1.0, zone="low")
    assert res.est_error <= 1e-6 * res.value
    assert res.value == pytest.approx(math.pi / 2, rel=1e-12)


@pytest.mark.parametrize("params,t", [(PARAMS2, 3.0), (PARAMS3, 3.0), (PARAMS2, 40.0)])
def test_full_zone_gaussian_closed_form(params, t):
    # int e^{-2 alpha |xi|^2 t} dxi = (pi/(2 alpha t))^{n/2}
    f = isotropic(lambda r: np.exp(-2.0 * params.alpha * r * r * t))
    res = zone_norm_sq(f, params, t=t, zone="full")
    assert res.est_error <= 1e-6 * res.value
    assert res.value == pytest.approx((math.pi / (2 * params.alpha * t)) ** (params.n / 2),
                                      rel=1e-8)


def test_zone_additivity():
    t = 2.0
    f = isotropic(lambda r: np.exp(-1.4 * r * r * t))
    low = zone_norm_sq(f, PARAMS2, t, "low", 1e-8)
    high = zone_norm_sq(f, PARAMS2, t, "high", 1e-8)
    full = zone_norm_sq(f, PARAMS2, t, "full", 1e-8)
    assert low.value + high.value == pytest.approx(full.value, rel=2e-8)


def test_refinement_convergence_under_panel_doubling():
    # the default result agrees with one refined to rel_tol 1e-12, which
    # needs one panel doubling more (a smaller error estimate)
    t = 50.0
    g = PARAMS2.gamma

    f = isotropic(lambda r: (np.exp(-r * r * t) * np.sin(g * t * r)) ** 2)
    a = zone_norm_sq(f, PARAMS2, t, "low")
    b = zone_norm_sq(f, PARAMS2, t, "low", 1e-12)
    assert b.est_error < a.est_error <= 1e-6 * a.value
    assert abs(a.value - b.value) <= 1e-6 * b.value


def test_oscillation_factor_aliasing_guard():
    # the default panels per period do not alias at large gamma*t: the result
    # agrees with one refined to rel_tol 1e-12
    t = 1000.0

    f = isotropic(lambda r: (np.exp(-r * r * t) * np.sin(PARAMS2.gamma * t * r)) ** 2)
    a = zone_norm_sq(f, PARAMS2, t, "low")
    b = zone_norm_sq(f, PARAMS2, t, "low", 1e-12)
    assert b.est_error < a.est_error <= 1e-6 * a.value
    assert a.value == pytest.approx(b.value, rel=1e-6)


@pytest.mark.parametrize("params", [PARAMS2, PARAMS3], ids=["n2", "n3"])
def test_symmetry_check_rejects_non_axisymmetric_field(params):
    def f(xi):
        return (xi[:, 1] + 0.1).astype(complex)  # odd in the transverse coordinate

    with pytest.raises(SymmetryError):
        black_box_norm_sq(f, params, t=1.0, zone="low")


def test_unreachable_tolerance_is_reported_not_converged():
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=1)
    t = 10.0
    f = isotropic(lambda r: np.exp(-2.0 * params.alpha * r * r * t))
    message = r"full-zone norm at t=10 did not converge: value=\S+, est_error=\S+"
    with pytest.raises(QuadratureError, match=message):
        zone_norm_sq(f, params, t, "full", 1e-300)
    with pytest.raises(QuadratureError, match=message):
        sine_kernel_integral(params, t, 1e-300)
    with pytest.raises(QuadratureError, match=message):
        cone_cosine_integral(params, t, 1e-300)


@pytest.mark.parametrize("kwargs", [
    dict(base_panels=0), dict(osc_factor=0), dict(angular_nodes=0),
    dict(rel_tol=0.0), dict(rel_tol=-1e-6), dict(rel_tol=math.nan), dict(rel_tol=math.inf),
])
def test_spec_rejects_degenerate_settings(kwargs):
    # rel_tol is the one quadrature setting; the layout is fixed, so a layout
    # key is an unknown key
    with pytest.raises(ConfigError):
        build_run_config("rate", {"quadrature": kwargs})


def test_one_dimensional_reduction():
    params = ModelParams(alpha=0.8, beta=0.0, gamma=1.0, n=1)
    t = 4.0
    f = isotropic(lambda r: np.exp(-2.0 * params.alpha * r * r * t))
    res = zone_norm_sq(f, params, t, "full")
    assert res.value == pytest.approx(math.sqrt(math.pi / (2 * params.alpha * t)), rel=1e-9)


def _monomial_integral(d):
    return 0.0 if d % 2 else 2.0 / (d + 1)


def test_kronrod_rule_exact_to_degree_22():
    assert np.all(np.diff(_K15_NODES) > 0) and _K15_NODES[7] == 0.0
    np.testing.assert_array_equal(_K15_NODES, -_K15_NODES[::-1])
    for d in range(23):
        assert float(np.dot(_K15_WEIGHTS, _K15_NODES ** d)) == pytest.approx(
            _monomial_integral(d), rel=2e-15, abs=1e-16)


def test_embedded_gauss_rule_is_leggauss_7_exact_to_degree_13():
    nodes, weights = leggauss(7)
    np.testing.assert_allclose(_K15_NODES[1::2], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_G7_WEIGHTS[1::2], weights, rtol=1e-14)
    assert not np.any(_G7_WEIGHTS[::2])
    for d in range(14):
        assert float(np.dot(_G7_WEIGHTS, _K15_NODES ** d)) == pytest.approx(
            _monomial_integral(d), rel=2e-15, abs=1e-16)


def test_error_estimate_bounds_the_true_error():
    # the Gaussian of test_one_dimensional_reduction, against its closed form
    params = ModelParams(alpha=0.8, beta=0.0, gamma=1.0, n=1)
    t = 4.0
    f = isotropic(lambda r: np.exp(-2.0 * params.alpha * r * r * t))
    res = zone_norm_sq(f, params, t, "full")
    exact = math.sqrt(math.pi / (2 * params.alpha * t))
    assert abs(res.value - exact) <= res.est_error <= 1e-6 * exact
    # the sine kernel, against its value at rel_tol 1e-12
    for t in (1.0, 37.0, 1e3, 1e4):
        f = sine_kernel_sq(PARAMS2, t)
        res = zone_norm_sq(f, PARAMS2, t, "full", 1e-6)
        ref = zone_norm_sq(f, PARAMS2, t, "full", 1e-12)
        assert ref.est_error <= 1e-12 * ref.value
        assert abs(res.value - ref.value) <= res.est_error <= 1e-6 * res.value


def test_unresolved_level_zero_refines_and_converges():
    # at gamma t = 1000 level 0 meets rel_tol 1e-6 but not 1e-12; the low zone
    # holds all of the mass, 2 pi int_0^inf r e^{-2 t r^2} sin^2(t r) dr, which
    # is pi q D(q / (2 sqrt(c))) / (2 c sqrt(c)) with c = q = 2 t and D
    # Dawson's integral
    dawsn = pytest.importorskip("scipy.special").dawsn
    t = 1000.0
    sizes = []

    def f(r):
        sizes.append(r.size)
        return isotropic(lambda r: (np.exp(-r * r * t) * np.sin(PARAMS2.gamma * t * r)) ** 2)(r)

    c = q = 2.0 * t
    exact = math.pi * q * dawsn(q / (2.0 * math.sqrt(c))) / (2.0 * c * math.sqrt(c))
    coarse = zone_norm_sq(f, PARAMS2, t, "low")
    assert len(sizes) == 2  # the probe, then level 0
    assert (coarse.level, coarse.points) == (0, sum(sizes))
    sizes.clear()
    fine = zone_norm_sq(f, PARAMS2, t, "low", 1e-12)
    assert len(sizes) > 2 and sizes[2] == 2 * sizes[1]
    assert (fine.level, fine.points) == (len(sizes) - 2, sum(sizes))
    assert fine.est_error <= 1e-12 * fine.value
    for res in (coarse, fine):
        assert abs(res.value - exact) <= res.est_error


def test_oscillation_panel_rule():
    # the radial layout must allocate at least _OSC_FACTOR panels per
    # oscillation period 2*pi/(gamma*t) on the active interval
    from nsprofile.quadrature import _osc_panels, _radial_layout

    gamma_t = 500.0
    span = 0.4
    required = _OSC_FACTOR * gamma_t * span / (2 * math.pi)
    assert required > _BASE_PANELS
    assert _osc_panels(gamma_t, span) >= required

    nodes, _ = _radial_layout(0.0, 1.0, split=span, gamma_t=gamma_t, refine=0)
    in_active = np.count_nonzero(nodes <= span)
    assert in_active / _PANEL_ORDER >= required  # _PANEL_ORDER nodes per panel


def test_panel_nodes_cap():
    # one panel more than the cap allows raises, naming the requested count
    panels = _MAX_RADIAL_NODES // _PANEL_ORDER
    with pytest.raises(QuadratureError, match=f"needs {_PANEL_ORDER * (panels + 1)} nodes"):
        _panel_nodes(0.0, 1.0, panels + 1)
    # a count no machine could allocate raises the same way, before allocating
    with pytest.raises(QuadratureError, match=f"needs {_PANEL_ORDER * 10**15} nodes"):
        _panel_nodes(0.0, 1.0, 10**15)
    # the largest allowed layout allocates
    nodes, weights = _panel_nodes(0.0, 1.0, panels)
    assert nodes.size == _PANEL_ORDER * panels > _MAX_RADIAL_NODES - _PANEL_ORDER
    assert float(np.sum(weights)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("alpha,beta,gamma", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0)])
def test_sine_kernel_matches_dawson_closed_form_2d(alpha, beta, gamma):
    # at n = 2, 2 pi int_0^inf r e^{-c r^2} sin^2(q r / 2) dr
    # = pi q D(q / (2 sqrt(c))) / (2 c^{3/2}) with c = b t, q = 2 gamma t and
    # D Dawson's integral
    dawsn = pytest.importorskip("scipy.special").dawsn
    params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=2)
    for t in (1.0, 37.0, 1e3, 1e4):
        c, q = params.b * t, 2.0 * params.gamma * t
        exact = math.pi * q * dawsn(q / (2.0 * math.sqrt(c))) / (2.0 * c ** 1.5)
        assert sine_kernel_integral(params, t) == pytest.approx(exact, rel=1e-12)


def test_sine_kernel_large_time_limit_2d():
    # t * I(t) -> (S0/2) * omega_1 * b^{-1} = pi/4 for b = 2
    t = 1e4
    val = sine_kernel_integral(PARAMS2, t)
    assert t * val == pytest.approx(math.pi / 4, rel=0.02)


def test_sine_kernel_lower_bound_along_grid():
    # I(t) >= (S0/4) omega_{n-1} b^{-n/2} t^{-n/2} for all sampled large t
    for params in (PARAMS2, PARAMS3):
        n = params.n
        s0 = math.gamma(n / 2) / 2
        floor = (s0 / 4) * sphere_area(n) * params.b ** (-n / 2)
        for t in np.geomspace(50.0, 1e4, 8):
            val = sine_kernel_integral(params, float(t))
            assert val >= floor * t ** (-n / 2)


def test_sine_kernel_value_against_brute_force():
    # oracle: dense trapezoid on the radial integrand at a moderate time
    t = 37.0
    r = np.linspace(0.0, 2.5, 400001)
    integrand = r * np.exp(-2.0 * t * r * r) * np.sin(t * r) ** 2
    oracle = 2 * math.pi * float(np.trapezoid(integrand, r))
    assert sine_kernel_integral(PARAMS2, t) == pytest.approx(oracle, rel=1e-6)


def test_cone_integral_plateau():
    # t * cone -> c(2)/(4 b) = pi/12 for b = 2, within 3% for t >= 1e3
    for t in (1e3, 1e4):
        val = cone_cosine_integral(PARAMS2, t)
        assert t * val == pytest.approx(2 * math.pi / 3 / (4 * PARAMS2.b), rel=0.03)


def test_profile_norm_equals_sine_kernel_times_moment():
    # the acoustic term of the velocity profile with P0 = 0 has squared norm
    # Q0^2 I(t); cross-check the 2-d reduction against the radial integral
    q0 = 1.3
    t = 200.0

    def f(xi):
        r = np.sqrt(np.sum(xi * xi, axis=1))
        coef = -1j * q0 * np.exp(-PARAMS2.b * r * r * t / 2) * np.sin(PARAMS2.gamma * t * r) / r
        return coef[:, None] * xi

    res = black_box_norm_sq(f, PARAMS2, t, "full", 1e-8)
    assert res.est_error <= 1e-8 * res.value
    assert res.value == pytest.approx(q0**2 * sine_kernel_integral(PARAMS2, t), rel=1e-6)


def _sphere_moment(n, d):
    # mean of u^d over S^(n-1): (d-1)!! / (n (n+2) ... (n+d-2)) for even d, 0 for odd d
    if d % 2:
        return 0.0
    return math.prod(range(1, d, 2)) / math.prod(range(n, n + d - 1, 2))


ANGULAR_RULES = [(n, k) for n in range(1, 7) for k in (2, 3) if n > 1 or k == 2]


@pytest.mark.parametrize("n,k", ANGULAR_RULES, ids=[f"{n}-{k}" for n, k in ANGULAR_RULES])
def test_angular_rule_exact_to_degree_2k_minus_1(n, k):
    # k nodes are exact through degree 2k - 1 and, for n >= 2, off at degree 2k
    dirs, ang_w = _angular_frame(n, k)
    u, area = dirs[:, 0], sphere_area(n)
    for d in range(2 * k):
        assert float(np.dot(ang_w, u ** d)) == pytest.approx(
            area * _sphere_moment(n, d), rel=1e-14, abs=1e-15)
    if n > 1:
        assert float(np.dot(ang_w, u ** (2 * k))) != pytest.approx(
            area * _sphere_moment(n, 2 * k), rel=1e-3)


@pytest.mark.parametrize("n", range(1, 7))
def test_angular_frame_integrates_sphere_moments(n):
    # over S^{n-1}: int 1 = |S^{n-1}|, int w_1^2 = |S^{n-1}|/n, int w_1^4 = 3|S^{n-1}|/(n(n+2));
    # the 2-node rule gets the first two, the 3-node rule all three (n = 1 has 2 nodes)
    area = sphere_area(n)
    for k in (2, 3) if n > 1 else (2,):
        dirs, ang_w = _angular_frame(n, k)
        assert dirs.shape == (k, n)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)
        assert float(np.sum(ang_w)) == pytest.approx(area, rel=1e-14)
        assert float(np.dot(ang_w, dirs[:, 0] ** 2)) == pytest.approx(area / n, rel=1e-14)
        if k == 3:
            assert float(np.dot(ang_w, dirs[:, 0] ** 4)) == pytest.approx(
                3 * area / (n * (n + 2)), rel=1e-14)


def _exp_cosine_field(xi):
    # |f|^2 = e^{6u - 2r^2}: axially symmetric, but not polynomial in u
    r = np.sqrt(np.sum(xi * xi, axis=1))
    return np.exp(3.0 * xi[:, 0] / r - r * r).astype(complex)


@pytest.mark.parametrize("params", [PARAMS2, PARAMS3, PARAMS4], ids=["n2", "n3", "n4"])
def test_angular_certificate_rejects_non_polynomial_integrand(params):
    with pytest.raises(QuadratureError, match="angular nodes"):
        black_box_norm_sq(_exp_cosine_field, params, 1.0, "full")


def test_angular_certificate_accepts_enough_nodes():
    # |f|^2 = u^2 e^{-2 r^2} has degree 2 in u, so 2 and 3 nodes are both
    # exact: int_{R^n} u^2 e^{-2 r^2} dxi = |S^{n-1}|/n int r^{n-1} e^{-2 r^2} dr;
    # |f|^2 = u^4 e^{-2 r^2} has degree 4, which 2 nodes do not integrate, so
    # the 3-node certificate rejects it instead of returning a wrong norm
    def quadratic(xi):
        r2 = np.sum(xi * xi, axis=1)
        return (xi[:, 0] / np.sqrt(r2) * np.exp(-r2)).astype(complex)

    def quartic(xi):
        r2 = np.sum(xi * xi, axis=1)
        return (xi[:, 0] ** 2 / r2 * np.exp(-r2)).astype(complex)

    for params, exact in [(PARAMS2, math.pi / 4), (PARAMS3, (math.pi / 2) ** 1.5 / 3)]:
        res = black_box_norm_sq(quadratic, params, 1.0, "full")
        assert res.est_error <= 1e-6 * res.value
        assert res.value == pytest.approx(exact, rel=1e-6)
        with pytest.raises(QuadratureError, match="angular nodes"):
            black_box_norm_sq(quartic, params, 1.0, "full")


def test_tail_estimate_takes_the_edge_on_the_certificate_directions():
    # |f|^2 = (1 - u^2) e^{-2 r^2} at n = 2 is largest at u = 0, the middle
    # direction of the 3-node rule: the tail estimate at r_max = 3 is
    # e^{-18} 2 pi / (2 lam) with lam = min(2 alpha, b) t = 2, twice the true
    # tail (pi/4) e^{-18}
    def f(r):
        g = np.exp(-2.0 * r * r)
        return g, np.zeros(r.size), -g

    res = zone_norm_sq(f, PARAMS2, 1.0, "full", r_max=3.0)
    assert res.est_error == pytest.approx(math.pi / 2 * math.exp(-18.0), rel=1e-6)
    assert abs(res.value - math.pi / 4) <= res.est_error


@pytest.mark.parametrize("params", [PARAMS2, PARAMS3], ids=["n2", "n3"])
def test_tail_estimate_takes_the_sphere_maximum_of_the_edge(params):
    # |f|^2 = u^2 e^{-2 r^2} is largest at u = -+1, off every Gauss direction in
    # u: the edge value at r_max = 3 is e^{-18}, not the 3/(n+2) e^{-18} that
    # the largest of the 3-node directions u = -+sqrt(3/(n+2)) sees
    def f(r):
        return np.zeros(r.size), np.zeros(r.size), np.exp(-2.0 * r * r)

    n = params.n
    res = zone_norm_sq(f, params, 1.0, "full", r_max=3.0)
    tail = sphere_area(n) * _gaussian_tail_bound(3.0, 2.0, n)
    assert res.est_error == pytest.approx(math.exp(-18.0) * tail, rel=1e-6)
    assert res.est_error > 3.0 / (n + 2) * math.exp(-18.0) * tail
    # the sphere mean of u^2 is 1/n: |S^{n-1}|/n int r^{n-1} e^{-2 r^2} dr
    exact = sphere_area(n) / n * math.gamma(n / 2) / (2.0 * 2.0 ** (n / 2))
    assert abs(res.value - exact) <= res.est_error


def test_zone_norm_counts_its_points_and_level():
    # a default rate call: one call for the probe and the edge radius, one for
    # level 0, and points = that layout + the probe
    from nsprofile.config import build_run_config
    from nsprofile.decay import velocity_field

    cfg = build_run_config("rate", {})
    for t in cfg.times:
        sizes = []
        field = velocity_field(cfg.params, cfg.data, float(t))

        def f(r):
            sizes.append(r.size)
            return field(r).abs_sq()

        res = zone_norm_sq(f, cfg.params, float(t), "full", cfg.rel_tol)
        assert res.level == 0
        assert sizes[0] == _PROBE_POINTS + 1 and len(sizes) == 2
        assert sizes[1] % _PANEL_ORDER == 0 and sizes[1] >= _PANEL_ORDER * _BASE_PANELS
        assert res.points == _PROBE_POINTS + 1 + sizes[1]


def test_gaussian_tail_bound_dominates_for_low_dimensions():
    integrate = pytest.importorskip("scipy.integrate")
    for n in (1, 2, 3, 4, 5):
        for r_from, lam in [(0.1, 100.0), (0.5, 0.3), (2.0, 1.0), (5.66, 4.0), (8.0, 40.0)]:
            ref, _ = integrate.quad(
                lambda r: r ** (n - 1) * math.exp(-lam * (r * r - r_from * r_from)),
                r_from, math.inf, epsabs=0.0, epsrel=1e-12)
            assert _gaussian_tail_bound(r_from, lam, n) >= ref * (1 - 1e-10)
