import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nsprofile.config import ConfigError, build_run_config
from nsprofile.decay import cone_cosine_integral, sine_kernel_integral
from nsprofile.model import InitialData, ModelParams
from nsprofile.profiles import gaussian_moment_bound
from nsprofile import quadrature
from nsprofile.quadrature import (
    _BASE_PANELS,
    _G7_WEIGHTS,
    _K15_NODES,
    _K15_WEIGHTS,
    _MAX_RADIAL_NODES,
    _OSC_FACTOR,
    _PANEL_ORDER,
    _PROBE_POINTS,
    _SLICE_PANELS,
    QuadratureError,
    _active_end,
    _gaussian_tail_bound,
    _osc_panels,
    cone_cap_area,
    default_r_max,
    sphere_area,
    zone_norm_sq,
)
from nsprofile.spectral import Field
from oracles import SymmetryError, _angular_frame, black_box_norm_sq, sine_kernel_exact

PARAMS2 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
PARAMS3 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=3)
PARAMS4 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=4)


def isotropic(abs_sq):
    """The integrand of zone_norm_sq for a field with |f|^2 = abs_sq(r) at every
    u: that value is both its sphere mean and its maximum."""
    def mean_max(r):
        value = abs_sq(r)
        return value, value

    return mean_max


def recording(f):
    """``f``, and the radii of its calls gathered by level: the probe with the
    edge radius first, then each level, whose calls take consecutive slices of
    ascending radii; the radii restart at each new level."""
    levels = []

    def recorded(r):
        if not levels or r[0] < levels[-1][-1][-1]:
            levels.append([])
        levels[-1].append(r)
        return f(r)

    return recorded, levels


def level_sizes(levels):
    return [sum(r.size for r in level) for level in levels]


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
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        cone_cap_area(1)
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


@pytest.mark.parametrize("zone", ["high", "full"])
@pytest.mark.parametrize("t", [0.0, -1.0])
def test_truncated_zone_needs_a_positive_time(zone, t):
    with pytest.raises(ValueError, match=r"truncated only at t > 0"):
        zone_norm_sq(isotropic(np.ones_like), PARAMS2, t, zone)


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
    params = PARAMS2
    t = 10.0
    f = isotropic(lambda r: np.exp(-2.0 * params.alpha * r * r * t))
    message = r"full-zone norm at t=10 did not converge: value=\S+, est_error=\S+"
    with pytest.raises(QuadratureError, match=message):
        zone_norm_sq(f, params, t, "full", 1e-300)
    with pytest.raises(QuadratureError, match=message):
        sine_kernel_integral(params, t, 1e-300)
    with pytest.raises(QuadratureError, match=message):
        cone_cosine_integral(params, t, 1e-300)


@pytest.mark.parametrize("zone", ["low", "high", "full"])
def test_nan_integrand_is_not_converged(zone):
    # a NaN probe finds no active end; every level's sum is NaN, which no
    # tolerance accepts
    f = isotropic(lambda r: np.full(r.size, math.nan))
    with pytest.raises(QuadratureError, match="did not converge: value=nan"):
        zone_norm_sq(f, PARAMS2, 1.0, zone)


@pytest.mark.parametrize("zone", ["low", "high", "full"])
@pytest.mark.parametrize("zeros", [np.zeros_like], ids=["arrays"])
def test_zero_integrand_is_zero_at_level_zero(zone, zeros):
    # zero value, zero estimate and zero tail meet the 1e-300 floor at once
    f = isotropic(zeros)
    res = zone_norm_sq(f, PARAMS2, 1.0, zone)
    assert (res.value, res.est_error, res.level) == (0.0, 0.0, 0)


@pytest.mark.parametrize("kwargs", [
    dict(base_panels=0), dict(osc_factor=0), dict(angular_nodes=0),
    dict(rel_tol=0.0), dict(rel_tol=-1e-6), dict(rel_tol=math.nan), dict(rel_tol=math.inf),
])
def test_quadrature_config_rejects_degenerate_settings(kwargs):
    # rel_tol is the one quadrature setting; the layout is fixed, so a layout
    # key is an unknown key
    with pytest.raises(ConfigError):
        build_run_config("rate", {"quadrature": kwargs})


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
    # a Gaussian in R^2, against its closed form pi / (2 alpha t)
    params = ModelParams(alpha=0.8, beta=0.0, gamma=1.0, n=2)
    t = 4.0
    f = isotropic(lambda r: np.exp(-2.0 * params.alpha * r * r * t))
    res = zone_norm_sq(f, params, t, "full")
    exact = math.pi / (2 * params.alpha * t)
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
    f, levels = recording(
        isotropic(lambda r: (np.exp(-r * r * t) * np.sin(PARAMS2.gamma * t * r)) ** 2))

    c = q = 2.0 * t
    exact = math.pi * q * dawsn(q / (2.0 * math.sqrt(c))) / (2.0 * c * math.sqrt(c))
    coarse = zone_norm_sq(f, PARAMS2, t, "low")
    sizes = level_sizes(levels)
    assert len(sizes) == 2  # the probe, then level 0
    assert (coarse.level, coarse.points) == (0, sum(sizes))
    levels.clear()
    fine = zone_norm_sq(f, PARAMS2, t, "low", 1e-12)
    sizes = level_sizes(levels)
    assert len(sizes) > 2 and sizes[2] == 2 * sizes[1]
    assert (fine.level, fine.points) == (len(sizes) - 2, sum(sizes))
    assert fine.est_error <= 1e-12 * fine.value
    for res in (coarse, fine):
        assert abs(res.value - exact) <= res.est_error


def test_oscillation_panel_rule():
    # level 0 must allocate at least _OSC_FACTOR panels per oscillation period
    # 2*pi/(gamma*t) on the radially active interval [0, split]
    t = 500.0
    f, levels = recording(isotropic(lambda r: np.exp(-50.0 * r * r)))
    zone_norm_sq(f, PARAMS2, t, "full")
    probe = levels[0][0][:-1]
    split = _active_end(probe, sphere_area(2) * np.exp(-50.0 * probe * probe) * probe,
                        0.0, default_r_max(PARAMS2, t))
    required = _OSC_FACTOR * PARAMS2.gamma * t * split / (2 * math.pi)
    assert required > _BASE_PANELS
    in_active = np.count_nonzero(np.concatenate(levels[1]) <= split)
    assert in_active / _PANEL_ORDER >= required  # _PANEL_ORDER nodes per panel


def test_panel_nodes_cap(monkeypatch):
    # a level of one panel more than the cap allows raises, naming the
    # requested count, and calls the integrand on the probe alone; a count no
    # machine could allocate raises the same way, before allocating
    calls = []

    def f(r):
        calls.append(r.size)
        return np.ones(r.size), np.ones(r.size)

    panels = _MAX_RADIAL_NODES // _PANEL_ORDER
    for requested in (panels + 1, 10**15):
        monkeypatch.setattr(quadrature, "_osc_panels", lambda gamma_t, span: requested)
        calls.clear()
        with pytest.raises(QuadratureError, match=f"needs {_PANEL_ORDER * requested} nodes"):
            zone_norm_sq(f, PARAMS2, 1.0, "low")
        assert calls == [_PROBE_POINTS + 1]
    # the largest allowed layout is evaluated, in slices, and integrates the
    # disk area pi r_low^2 = pi/2 exactly
    monkeypatch.setattr(quadrature, "_osc_panels", lambda gamma_t, span: panels)
    calls.clear()
    res = zone_norm_sq(f, PARAMS2, 1.0, "low")
    assert res.points - calls[0] == _PANEL_ORDER * panels > _MAX_RADIAL_NODES - _PANEL_ORDER
    assert max(calls[1:]) == _SLICE_PANELS * _PANEL_ORDER
    assert res.value == pytest.approx(math.pi / 2, rel=1e-12)


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
        # the Kummer form of every n reduces to Dawson's at n = 2
        assert sine_kernel_exact(params, t) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("alpha,beta,gamma", [(1.0, 1.0, 1.0), (0.3, 2.0, 5.0), (2.0, 0.1, 0.2)])
def test_sine_kernel_matches_kummer_closed_form(n, alpha, beta, gamma):
    # the exact K_sin at every n (a Kummer function) is met within rel_tol;
    # t = 1e6 at (0.3, 2, 5) needs more radial nodes than the cap allows
    pytest.importorskip("scipy.special")
    params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=n)
    for t in (0.01, 0.5, 3.0, 100.0, 1e4):
        exact = sine_kernel_exact(params, t)
        for rel_tol in (1e-6, 1e-10):
            assert abs(sine_kernel_integral(params, t, rel_tol) - exact) <= rel_tol * exact


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


@pytest.mark.parametrize("n", [2, 3, 16])
@pytest.mark.parametrize("ratio", [0.3, 3.0, 100.0])
def test_cone_integral_matches_the_cosine_quadrature(n, ratio):
    # |cap|/|S| (G - K_sin) against the cone fraction of a zone_norm_sq of
    # e^{-b t r^2} cos^2(gamma t r) at gamma^2 t / b = ratio.  G - K_sin cancels
    # most at n = 16, ratio 0.3, where K_cos/G is about 0.07, so the bound holds
    # K_sin's accepted estimate (at most rel_tol K_sin) and G's rounding
    rel_tol = 1e-12
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=n)
    t = ratio * params.b / params.gamma ** 2
    ref = zone_norm_sq(
        isotropic(lambda r: np.exp(-params.b * t * r * r) * np.cos(params.gamma * t * r) ** 2),
        params, t, "full", rel_tol)
    fraction = cone_cap_area(n) / sphere_area(n)
    sine = sine_kernel_integral(params, t, rel_tol)
    gauss = gaussian_moment_bound(n, 0, params.b, t)
    bound = fraction * (ref.est_error + rel_tol * sine + 8 * np.finfo(float).eps * gauss)
    assert abs(cone_cosine_integral(params, t, rel_tol) - fraction * ref.value) <= bound


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


ANGULAR_RULES = [(n, k) for n in range(2, 7) for k in (2, 3)]


@pytest.mark.parametrize("n,k", ANGULAR_RULES, ids=[f"{n}-{k}" for n, k in ANGULAR_RULES])
def test_angular_rule_exact_to_degree_2k_minus_1(n, k):
    # k nodes are exact through degree 2k - 1 and off at degree 2k
    dirs, ang_w = _angular_frame(n, k)
    u, area = dirs[:, 0], sphere_area(n)
    for d in range(2 * k):
        assert float(np.dot(ang_w, u ** d)) == pytest.approx(
            area * _sphere_moment(n, d), rel=1e-14, abs=1e-15)
    assert float(np.dot(ang_w, u ** (2 * k))) != pytest.approx(
        area * _sphere_moment(n, 2 * k), rel=1e-3)


@pytest.mark.parametrize("n", range(2, 7))
def test_angular_frame_integrates_sphere_moments(n):
    # over S^{n-1}: int 1 = |S^{n-1}|, int w_1^2 = |S^{n-1}|/n, int w_1^4 = 3|S^{n-1}|/(n(n+2));
    # the 2-node rule gets the first two, the 3-node rule all three
    area = sphere_area(n)
    for k in (2, 3):
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


def test_angular_certificate_checks_a_level_across_its_slices():
    # |f|^2 = e^{-2 r^2} (1 + u^4 band(r)), with band a bump of width 0.002
    # midway between two probe radii: the probe sees only e^{-2 r^2}, which 2
    # nodes integrate, but level 0 at gamma t = 1000 resolves the band, whose
    # u^4 the 3-node rule integrates and the 2-node rule does not; that level
    # spans many slices
    t = 1000.0
    r_max = default_r_max(PARAMS2, t)
    spacing = r_max / _PROBE_POINTS
    center = 20.0 * spacing
    band = lambda r: np.exp(-((r - center) / 0.002) ** 2)
    assert band((np.arange(_PROBE_POINTS) + 0.5) * spacing).max() < 1e-40
    assert _osc_panels(PARAMS2.gamma * t, r_max) > 10 * _SLICE_PANELS

    def banded(xi):
        r = np.sqrt(np.sum(xi * xi, axis=1))
        return (np.exp(-r * r) * np.sqrt(1.0 + (xi[:, 0] / r) ** 4 * band(r))).astype(complex)

    with pytest.raises(QuadratureError, match="angular nodes"):
        black_box_norm_sq(banded, PARAMS2, t, "full")


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


def test_tail_estimate_takes_the_edge_on_the_certificate_directions(monkeypatch):
    # |f|^2 = (1 - u^2) e^{-2 r^2} at n = 2 is largest at u = 0, the middle
    # direction of the 3-node rule: the tail estimate at r_max = 3 is
    # e^{-18} 2 pi / (2 lam) with lam = min(2 alpha, b) t = 2, twice the true
    # tail (pi/4) e^{-18}
    monkeypatch.setattr(quadrature, "default_r_max", lambda params, t: 3.0)

    def f(r):
        g = np.exp(-r * r)
        return Field(a=g, b1=-g).sphere_mean_max(2)

    res = zone_norm_sq(f, PARAMS2, 1.0, "full")
    assert res.est_error == pytest.approx(math.pi / 2 * math.exp(-18.0), rel=1e-6)
    assert abs(res.value - math.pi / 4) <= res.est_error


@pytest.mark.parametrize("params", [PARAMS2, PARAMS3], ids=["n2", "n3"])
def test_tail_estimate_takes_the_sphere_maximum_of_the_edge(params, monkeypatch):
    # |f|^2 = u^2 e^{-2 r^2} is largest at u = -+1, off every Gauss direction in
    # u: the edge value at r_max = 3 is e^{-18}, not the 3/(n+2) e^{-18} that
    # the largest of the 3-node directions u = -+sqrt(3/(n+2)) sees
    monkeypatch.setattr(quadrature, "default_r_max", lambda params, t: 3.0)
    n = params.n

    def f(r):
        return Field(b1=np.exp(-r * r)).sphere_mean_max(n)

    res = zone_norm_sq(f, params, 1.0, "full")
    tail = sphere_area(n) * _gaussian_tail_bound(3.0, 2.0, n)
    assert res.est_error == pytest.approx(math.exp(-18.0) * tail, rel=1e-6)
    assert res.est_error > 3.0 / (n + 2) * math.exp(-18.0) * tail
    # the sphere mean of u^2 is 1/n: |S^{n-1}|/n int r^{n-1} e^{-2 r^2} dr
    exact = sphere_area(n) / n * math.gamma(n / 2) / (2.0 * 2.0 ** (n / 2))
    assert abs(res.value - exact) <= res.est_error


def test_zone_norm_counts_its_points_and_level():
    # a default rate call: one call for the probe and the edge radius, then
    # level 0 in calls of whole panels, at most _SLICE_PANELS each, on
    # ascending radii; points = that layout + the probe
    from nsprofile.config import build_run_config
    from nsprofile.decay import velocity_field

    cfg = build_run_config("rate", {})
    for t in cfg.times.tolist():
        f, levels = recording(
            lambda r: velocity_field(cfg.params, cfg.data, r, t).sphere_mean_max(cfg.params.n))
        res = zone_norm_sq(f, cfg.params, t, "full", cfg.rel_tol)
        assert res.level == 0 and len(levels) == 2
        (probe,), level = levels
        assert probe.size == _PROBE_POINTS + 1 and probe[-1] == default_r_max(cfg.params, t)
        assert all(r.size % _PANEL_ORDER == 0 and r.size <= _SLICE_PANELS * _PANEL_ORDER
                   for r in level)
        radii = np.concatenate(level)
        assert np.all(np.diff(radii) > 0) and radii.size >= _PANEL_ORDER * _BASE_PANELS
        assert res.points == _PROBE_POINTS + 1 + radii.size


def test_high_zone_layout_spans_the_active_part_above_r_low():
    # e^{-20 r^2} leaves the high zone's probe mass near r = 1.9, below r_max = 4,
    # so level 0 is two segments: oscillation panels on [r_low, split] for
    # gamma t = 100, more than _BASE_PANELS, and _BASE_PANELS on [split, r_max]
    t, probes = 100.0, []

    def f(r):
        probes.append(r)
        value = np.exp(-20.0 * r * r)
        return value, value

    res = zone_norm_sq(f, PARAMS2, t, "high")
    r_lo, r_hi = PARAMS2.r_low, default_r_max(PARAMS2, t)
    probe = probes[0][:-1]
    split = _active_end(probe, sphere_area(2) * np.exp(-20.0 * probe * probe) * probe,
                        r_lo, r_hi)
    panels = _osc_panels(PARAMS2.gamma * t, split - r_lo)
    assert split < r_hi and panels > _BASE_PANELS
    assert res.level == 0
    assert res.points == _PROBE_POINTS + 1 + _PANEL_ORDER * (panels + _BASE_PANELS)


def test_overflow_guard_squares_b():
    # at alpha = 1e-10 and t = 100 the truncation radius is 8e4: a r_max^2 is
    # 6.4e9, but b^2 r_max^2 overflows at beta = 1e150
    params = ModelParams(alpha=1e-10, beta=1e150, gamma=1.0, n=2)
    assert math.isfinite(params.a * 8e4 ** 2) and math.isfinite(params.b * 8e4 ** 2)
    with pytest.raises(QuadratureError, match=r"overflows at r_max=8e\+04, t=100"):
        zone_norm_sq(isotropic(lambda r: np.exp(-r * r)), params, 100.0, "full")


def test_gaussian_tail_bound_dominates_for_low_dimensions():
    integrate = pytest.importorskip("scipy.integrate")
    for n in (1, 2, 3, 4, 5):
        for r_from, lam in [(0.1, 100.0), (0.5, 0.3), (2.0, 1.0), (5.66, 4.0), (8.0, 40.0)]:
            ref, _ = integrate.quad(
                lambda r: r ** (n - 1) * math.exp(-lam * (r * r - r_from * r_from)),
                r_from, math.inf, epsabs=0.0, epsrel=1e-12)
            assert _gaussian_tail_bound(r_from, lam, n) >= ref * (1 - 1e-10)


@pytest.mark.parametrize("n", range(3, 17))
def test_gaussian_tail_bound_is_within_its_factor(n):
    # the bound over the integral is at most 2^(p-1), p = n/2 - 1, which it
    # reaches at r_from = 0 (the Gamma term alone), or 1.5 where p <= 1
    integrate = pytest.importorskip("scipy.integrate")
    factor = max(2.0 ** (n / 2 - 2), 1.5)
    for r_from, lam in [(0.0, 1.0), (0.1, 100.0), (0.5, 0.3), (1.0, 1.0), (2.0, 1.0),
                        (5.66, 4.0), (8.0, 40.0)]:
        ref, _ = integrate.quad(
            lambda r: r ** (n - 1) * math.exp(-lam * (r * r - r_from * r_from)),
            r_from, math.inf, epsabs=0.0, epsrel=1e-12)
        ratio = _gaussian_tail_bound(r_from, lam, n) / ref
        assert 1 - 1e-10 <= ratio <= factor * (1 + 1e-10)
