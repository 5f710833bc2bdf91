import math

import numpy as np
import pytest

from nsprofile.model import InitialData, ModelParams
from nsprofile.quadrature import (
    QuadratureError,
    QuadratureSpec,
    SymmetryError,
    _angular_frame,
    _gauss_u,
    _gaussian_tail_bound,
    cone_cap_area,
    cone_cosine_integral,
    sine_kernel_integral,
    sphere_area,
    zone_norm_sq,
)

PARAMS2 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
PARAMS3 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=3)
PARAMS4 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=4)


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
    res = zone_norm_sq(lambda xi: np.ones(xi.shape[0], dtype=complex),
                       PARAMS2, t=1.0, zone="low")
    assert res.converged
    assert res.value == pytest.approx(math.pi / 2, rel=1e-12)


@pytest.mark.parametrize("params,t", [(PARAMS2, 3.0), (PARAMS3, 3.0), (PARAMS2, 40.0)])
def test_full_zone_gaussian_closed_form(params, t):
    # int e^{-2 alpha |xi|^2 t} dxi = (pi/(2 alpha t))^{n/2}
    f = lambda xi: np.exp(-params.alpha * np.sum(xi * xi, axis=1) * t).astype(complex)
    res = zone_norm_sq(f, params, t=t, zone="full")
    assert res.converged
    assert res.value == pytest.approx((math.pi / (2 * params.alpha * t)) ** (params.n / 2),
                                      rel=1e-8)


def test_zone_additivity():
    t = 2.0
    f = lambda xi: np.exp(-0.7 * np.sum(xi * xi, axis=1) * t).astype(complex)
    spec = QuadratureSpec(rel_tol=1e-8)
    low = zone_norm_sq(f, PARAMS2, t, "low", spec)
    high = zone_norm_sq(f, PARAMS2, t, "high", spec)
    full = zone_norm_sq(f, PARAMS2, t, "full", spec)
    assert low.value + high.value == pytest.approx(full.value, rel=2e-8)


def test_refinement_convergence_under_panel_doubling():
    t = 50.0
    g = PARAMS2.gamma

    def f(xi):
        r = np.sqrt(np.sum(xi * xi, axis=1))
        return (np.exp(-r * r * t) * np.sin(g * t * r)).astype(complex)

    a = zone_norm_sq(f, PARAMS2, t, "low", QuadratureSpec(base_panels=48))
    b = zone_norm_sq(f, PARAMS2, t, "low", QuadratureSpec(base_panels=96))
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= 1e-6 * b.value


def test_oscillation_factor_aliasing_guard():
    # results with osc_factor 8 and 16 agree to rel_tol at large gamma*t
    t = 1000.0

    def f(xi):
        r = np.sqrt(np.sum(xi * xi, axis=1))
        return (np.exp(-r * r * t) * np.sin(PARAMS2.gamma * t * r)).astype(complex)

    a = zone_norm_sq(f, PARAMS2, t, "low", QuadratureSpec(osc_factor=8))
    b = zone_norm_sq(f, PARAMS2, t, "low", QuadratureSpec(osc_factor=16))
    assert a.converged and b.converged
    assert a.value == pytest.approx(b.value, rel=1e-6)


@pytest.mark.parametrize("params", [PARAMS2, PARAMS3], ids=["n2", "n3"])
def test_symmetry_check_rejects_non_axisymmetric_field(params):
    def f(xi):
        return (xi[:, 1] + 0.1).astype(complex)  # odd in the transverse coordinate

    with pytest.raises(SymmetryError):
        zone_norm_sq(f, params, t=1.0, zone="low")


def test_unreachable_tolerance_is_reported_not_converged():
    # n = 1 has no angular certificate, so only the refinement loop can fail
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=1)
    spec = QuadratureSpec(rel_tol=1e-300)
    t = 10.0
    f = lambda xi: np.exp(-params.alpha * xi[:, 0] ** 2 * t).astype(complex)
    res = zone_norm_sq(f, params, t, "full", spec)
    assert not res.converged
    assert res.value > 0 and res.est_error > 0
    with pytest.raises(QuadratureError):
        res.require_converged()
    with pytest.raises(QuadratureError, match="sine-kernel"):
        sine_kernel_integral(params, t, spec)
    with pytest.raises(QuadratureError, match="cone"):
        cone_cosine_integral(params, np.array([1.0]), t, spec)


@pytest.mark.parametrize("kwargs", [
    dict(base_panels=0), dict(osc_factor=0), dict(angular_nodes=0),
    dict(rel_tol=0.0), dict(rel_tol=-1e-6), dict(rel_tol=math.nan), dict(rel_tol=math.inf),
])
def test_spec_rejects_degenerate_settings(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


def test_one_dimensional_reduction():
    params = ModelParams(alpha=0.8, beta=0.0, gamma=1.0, n=1)
    t = 4.0
    f = lambda xi: np.exp(-params.alpha * xi[:, 0] ** 2 * t).astype(complex)
    res = zone_norm_sq(f, params, t, "full")
    assert res.value == pytest.approx(math.sqrt(math.pi / (2 * params.alpha * t)), rel=1e-9)


def test_oscillation_panel_rule():
    # the radial layout must allocate at least osc_factor panels per
    # oscillation period 2*pi/(gamma*t) on the active interval
    from nsprofile.quadrature import _osc_panels, _radial_layout

    spec = QuadratureSpec(base_panels=48, osc_factor=8)
    gamma_t = 500.0
    span = 0.4
    required = spec.osc_factor * gamma_t * span / (2 * math.pi)
    assert _osc_panels(gamma_t, span, spec) >= max(spec.base_panels, required)

    nodes, _ = _radial_layout(0.0, 1.0, split=span, gamma_t=gamma_t, spec=spec, refine=0)
    in_active = np.count_nonzero(nodes <= span)
    assert in_active / 8 >= required  # 8 Gauss nodes per panel


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
        val = cone_cosine_integral(PARAMS2, np.array([1.0, 0.0]), t)
        assert t * val == pytest.approx(2 * math.pi / 3 / (4 * PARAMS2.b), rel=0.03)


def test_cone_integral_rejects_zero_direction():
    with pytest.raises(ValueError):
        cone_cosine_integral(PARAMS2, np.zeros(2), 10.0)


def test_profile_norm_equals_sine_kernel_times_moment():
    # the acoustic term of the velocity profile with P0 = 0 has squared norm
    # Q0^2 I(t); cross-check the 2-d reduction against the radial integral
    q0 = 1.3
    t = 200.0

    def f(xi):
        r = np.sqrt(np.sum(xi * xi, axis=1))
        coef = -1j * q0 * np.exp(-PARAMS2.b * r * r * t / 2) * np.sin(PARAMS2.gamma * t * r) / r
        return coef[:, None] * xi

    res = zone_norm_sq(f, PARAMS2, t, "full", QuadratureSpec(rel_tol=1e-8))
    assert res.converged
    assert res.value == pytest.approx(q0**2 * sine_kernel_integral(PARAMS2, t), rel=1e-6)


@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("n", range(2, 7))
def test_gauss_u_exact_to_degree_2k_minus_1(n, k):
    # int_{-1}^{1} u^d (1-u^2)^a du = B((d+1)/2, a+1) for even d, 0 for odd d
    u, w = _gauss_u(n, k)
    a = (n - 3) / 2
    for d in range(2 * k):
        exact = 0.0 if d % 2 else (math.gamma((d + 1) / 2) * math.gamma(a + 1)
                                   / math.gamma(d / 2 + a + 1.5))
        assert float(np.dot(w, u ** d)) == pytest.approx(exact, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("n", range(2, 7))
def test_angular_frame_integrates_sphere_moments(n):
    # over S^{n-1}: int 1 = |S^{n-1}|, int w_1^2 = |S^{n-1}|/n, int w_1^4 = 3|S^{n-1}|/(n(n+2))
    dirs, ang_w = _angular_frame(n, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)
    area = sphere_area(n)
    assert float(np.sum(ang_w)) == pytest.approx(area, rel=1e-14)
    assert float(np.dot(ang_w, dirs[:, 0] ** 2)) == pytest.approx(area / n, rel=1e-14)
    assert float(np.dot(ang_w, dirs[:, 0] ** 4)) == pytest.approx(
        3 * area / (n * (n + 2)), rel=1e-14)


def _exp_cosine_field(xi):
    # |f|^2 = e^{6u - 2r^2}: axially symmetric, but not polynomial in u
    r = np.sqrt(np.sum(xi * xi, axis=1))
    return np.exp(3.0 * xi[:, 0] / r - r * r).astype(complex)


@pytest.mark.parametrize("params", [PARAMS2, PARAMS3, PARAMS4], ids=["n2", "n3", "n4"])
def test_angular_certificate_rejects_non_polynomial_integrand(params):
    with pytest.raises(QuadratureError, match="angular nodes"):
        zone_norm_sq(_exp_cosine_field, params, 1.0, "full")


def test_angular_certificate_accepts_enough_nodes():
    # int_{R^2} e^{6 cos(theta) - 2 r^2} r dr dtheta = 2 pi I0(6) / 4
    res = zone_norm_sq(_exp_cosine_field, PARAMS2, 1.0, "full",
                       QuadratureSpec(angular_nodes=12))
    assert res.converged
    assert res.value == pytest.approx(2 * math.pi * float(np.i0(6.0)) / 4, rel=1e-6)


def test_gaussian_tail_bound_dominates_for_low_dimensions():
    integrate = pytest.importorskip("scipy.integrate")
    for n in (1, 2):
        for r_from, lam in [(0.1, 100.0), (0.5, 0.3), (2.0, 1.0), (5.66, 4.0), (8.0, 40.0)]:
            ref, _ = integrate.quad(
                lambda r: r ** (n - 1) * math.exp(-lam * (r * r - r_from * r_from)),
                r_from, math.inf, epsabs=0.0, epsrel=1e-12)
            assert _gaussian_tail_bound(r_from, lam, n) >= ref * (1 - 1e-10)
