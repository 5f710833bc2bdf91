import math

import numpy as np
import pytest

from nsprofile.decay import field_norm_sq, velocity_field
from nsprofile.model import InitialData, ModelParams
from nsprofile.profiles import (
    RemainderBounds,
    density_profile,
    expansion_field,
    gaussian_moment_bound,
    moment_defect_field,
    moment_defect_term,
    moment_flow,
    remainder_bounds,
    sine_correction_field,
    sine_correction_term,
    velocity_profile,
)
from nsprofile.quadrature import DEFAULT_REL_TOL
from nsprofile.spectral import solve_exact_batch
from oracles import black_box_norm_sq, gaussian_moment_integral

PARAMS = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
DATA = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)


def test_velocity_profile_without_velocity_moment():
    data = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=2.0, width=1.0)
    xi = np.array([0.3, 0.2])
    t = 5.0
    r = np.linalg.norm(xi)
    expected = -1j * xi * math.exp(-PARAMS.b * r**2 * t / 2) * math.sin(t * r) / r * 2.0
    np.testing.assert_allclose(velocity_profile(PARAMS, data, xi[None, :], t)[0], expected,
                               rtol=1e-14)


def test_velocity_profile_heat_terms_cancel_for_parallel_xi():
    data = InitialData(amplitude_v=(0.7, 0.0), amplitude_rho=0.0, width=1.0)
    xi = np.array([0.4, 0.0])  # parallel to P0
    t = 3.0
    prof = velocity_profile(PARAMS, data, xi[None, :], t)[0]
    r = 0.4
    # only the damped cosine term survives
    expected = np.array(data.amplitude_v) * math.exp(-PARAMS.b * r**2 * t / 2) * math.cos(t * r)
    np.testing.assert_allclose(prof, expected.astype(complex), rtol=1e-14)


def test_velocity_profile_independent_summation_oracle():
    # re-evaluate term by term in reversed order at a point where the cosine
    # term vanishes (gamma t r = pi/2)
    p0 = np.array(DATA.amplitude_v)
    r = 0.5
    t = math.pi / 2 / (PARAMS.gamma * r)
    xi = np.array([0.3, 0.4])
    r2 = float(xi @ xi)
    assert math.isclose(math.sqrt(r2), r)
    heat = math.exp(-PARAMS.alpha * r2 * t)
    wave = math.exp(-PARAMS.b * r2 * t / 2)
    long_proj = xi * float(xi @ p0) / r2
    terms = [
        wave * math.cos(PARAMS.gamma * t * r) * long_proj.astype(complex),
        -1j * xi * wave * math.sin(PARAMS.gamma * t * r) / r * DATA.amplitude_rho,
        -heat * long_proj.astype(complex),
        heat * p0.astype(complex),
    ]
    assert abs(terms[0][0]) < 1e-16  # cosine term vanished
    oracle = terms[0] + terms[1] + terms[2] + terms[3]
    np.testing.assert_allclose(velocity_profile(PARAMS, DATA, xi[None, :], t)[0], oracle,
                               rtol=1e-13)


def test_velocity_profile_linear_in_moments():
    scaled = InitialData(amplitude_v=(0.3, 0.0), amplitude_rho=3.0, width=1.0)
    xi = np.array([[0.2, -0.5]])
    np.testing.assert_allclose(
        3.0 * velocity_profile(PARAMS, DATA, xi, 7.0),
        velocity_profile(PARAMS, scaled, xi, 7.0),
        rtol=1e-14,
    )


def test_density_profile_examples():
    # P0 = 0 and gamma t r = pi: value is -Q0 e^{-b r^2 t / 2}
    data = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.5, width=1.0)
    r = 0.25
    t = math.pi / r
    xi = np.array([[r, 0.0]])
    val = density_profile(PARAMS, data, xi, t)[0]
    assert val == pytest.approx(-1.5 * math.exp(-PARAMS.b * r**2 * t / 2), rel=1e-12)

    # Q0 = 0 and xi perpendicular to P0: identically zero
    data2 = InitialData(amplitude_v=(0.9, 0.0), amplitude_rho=0.0, width=1.0)
    assert density_profile(PARAMS, data2, np.array([[0.0, 0.8]]), 2.0)[0] == 0.0


def test_moment_defect_equals_exact_minus_moment_flow():
    # the defining identity, at machine precision: linearity of the flow in
    # the data decomposition forces defect = solve_exact_batch - moment_flow
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
    data = InitialData(amplitude_v=(0.3, -0.2), amplitude_rho=0.7, width=1.0)
    rng = np.random.default_rng(2)
    for _ in range(12):
        r = rng.uniform(0.05, params.delta0)
        theta = rng.uniform(0, 2 * math.pi)
        xi = r * np.array([[math.cos(theta), math.sin(theta)]])
        t = rng.uniform(0.0, 30.0)
        exact = solve_exact_batch(params, data, xi, t)[0]
        flow = moment_flow(params, data, xi, t)
        defect = moment_defect_term(params, data, xi, t)
        scale = max(np.max(np.abs(exact)), np.max(np.abs(flow)), 1e-30)
        np.testing.assert_allclose(defect, exact - flow, atol=5e-15 * scale)


def test_moment_defect_alternate_coefficient_fails_identity():
    # swapping the divided-difference coefficient to (s1 e^{s2 t} - s2 e^{s1 t})
    # breaks the identity, confirming the implemented branch
    from nsprofile.spectral import _phi_psi

    data = InitialData(amplitude_v=(0.3, -0.2), amplitude_rho=0.7, width=1.0)
    xi = np.array([0.2, 0.35])
    t = 7.0
    r2 = float(xi @ xi)
    phi, psi = _phi_psi(PARAMS, np.array([math.sqrt(r2)]), t)
    alt_psi = psi[0] + PARAMS.b * r2 * phi[0]  # equals (s1 e^{s2 t}-s2 e^{s1 t})/(s1-s2)
    heat = math.exp(-PARAMS.alpha * r2 * t)
    env = math.exp(-r2 / 2) - 1.0
    a0 = env * np.array(data.amplitude_v)
    a_rho = env * data.amplitude_rho
    wrong = (heat * a0.astype(complex)
             - 1j * PARAMS.gamma * phi[0] * a_rho * xi
             + (alt_psi - heat) * float(xi @ a0) / r2 * xi)
    exact = solve_exact_batch(PARAMS, data, xi[None, :], t)[0][0]
    flow = moment_flow(PARAMS, data, xi[None, :], t)[0]
    right = moment_defect_term(PARAMS, data, xi[None, :], t)[0]
    assert np.max(np.abs(right - (exact - flow))) < 1e-16
    assert np.max(np.abs(wrong - (exact - flow))) > 1e-8 * np.max(np.abs(exact))


def test_moment_defect_vanishes_for_narrow_data():
    # s -> 0 sends every moment-remainder factor to zero
    data = InitialData(amplitude_v=(0.5, 0.1), amplitude_rho=1.0, width=1e-3)
    xi = np.array([[0.3, 0.1]])
    defect = moment_defect_term(PARAMS, data, xi, 4.0)
    assert np.max(np.abs(defect)) < 1e-6


def test_moment_defect_imaginary_structure_for_even_data():
    # with B = 0 the only imaginary contribution is the acoustic coupling term:
    # on the oscillatory branch Phi and Psi are real, so a datum without
    # density amplitude yields a purely real defect
    xi = np.array([[0.3, 0.2]])
    data = InitialData(amplitude_v=(0.4, 0.0), amplitude_rho=0.0, width=1.0)
    defect = moment_defect_term(PARAMS, data, xi, 2.0)
    assert np.max(np.abs(defect.imag)) < 1e-16
    with_rho = InitialData(amplitude_v=(0.4, 0.0), amplitude_rho=0.9, width=1.0)
    defect_rho = moment_defect_term(PARAMS, with_rho, xi, 2.0)
    # imaginary part equals -gamma xi Phi A_rho exactly
    np.testing.assert_allclose(defect_rho.real, defect.real, atol=1e-16)
    assert np.max(np.abs(defect_rho.imag)) > 1e-4


def test_moment_defect_rejects_high_zone():
    with pytest.raises(ValueError):
        moment_defect_term(PARAMS, DATA, np.array([[1.5, 0.0]]), 1.0)


def test_sine_correction_examples():
    data = InitialData(amplitude_v=(0.8, 0.0), amplitude_rho=0.0, width=1.0)
    # perpendicular moment: zero
    val = sine_correction_term(PARAMS, data, np.array([[0.0, 0.6]]), 3.0)
    np.testing.assert_array_equal(val, np.zeros((1, 2), dtype=complex))
    # gamma t r = pi: sine vanishes
    r = 0.5
    val = sine_correction_term(PARAMS, data, np.array([[r, 0.0]]), math.pi / r)
    assert np.max(np.abs(val)) < 1e-15


def test_sine_correction_norm_below_closed_form_bound():
    data = InitialData(amplitude_v=(0.8, 0.0), amplitude_rho=0.0, width=1.0)
    for t in (16.0, 64.0, 256.0):
        f = lambda xi: sine_correction_term(PARAMS, data, xi, t)
        measured = black_box_norm_sq(f, PARAMS, t, "low").value
        bound = remainder_bounds(PARAMS, data, t).sine_correction
        assert measured <= bound * 1.05


def test_raw_remainder_construction():
    # exact minus leading, less the computable pieces, equals
    # moment_flow - leading - sine term
    xi = np.array([[0.25, 0.15]])
    t = 12.0
    leading = velocity_profile(PARAMS, DATA, xi, t)
    sine = sine_correction_term(PARAMS, DATA, xi, t)
    raw = solve_exact_batch(PARAMS, DATA, xi, t)[0] - leading
    residual = raw - moment_defect_term(PARAMS, DATA, xi, t) - sine
    alt = moment_flow(PARAMS, DATA, xi, t) - leading - sine
    np.testing.assert_allclose(residual, alt, atol=1e-17)


def test_remainder_bounds_zero_moments():
    no_p = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0)
    rb = remainder_bounds(PARAMS, no_p, 10.0)
    assert rb.expansion[0] == rb.expansion[1] == rb.expansion[2] == 0.0
    assert rb.sine_correction == 0.0
    assert rb.expansion[3] > 0 and rb.expansion[4] > 0

    no_q = InitialData(amplitude_v=(1.0, 0.0), amplitude_rho=0.0, width=1.0)
    rb = remainder_bounds(PARAMS, no_q, 10.0)
    assert rb.expansion[3] == rb.expansion[4] == 0.0
    assert rb.sine_correction > 0


def test_remainder_bounds_doubling_time():
    rb1 = remainder_bounds(PARAMS, DATA, 64.0)
    rb2 = remainder_bounds(PARAMS, DATA, 128.0)
    n = PARAMS.n
    # dominant entries scale exactly like t^{-n/2-1}
    expected = 2.0 ** -(n / 2 + 1)
    assert rb2.expansion[0] / rb1.expansion[0] == pytest.approx(expected, rel=1e-12)
    assert rb2.expansion[4] / rb1.expansion[4] == pytest.approx(expected, rel=1e-12)
    assert rb2.sine_correction / rb1.sine_correction == pytest.approx(expected, rel=1e-12)
    assert rb2.total / rb1.total == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("alpha,beta,gamma,width,n,t", [
    (0.5, 3.0, 2.0, 0.7, 2, 50.0), (2.0, 0.3, 0.4, 1.3, 3, 80.0)], ids=["n2", "n3"])
def test_scale_covariance_at_non_unit_coefficients(alpha, beta, gamma, width, n, t):
    # xi = kappa eta and t = T tau with kappa = gamma/b and T = b/gamma^2 turn
    # the frequency ODE into the one of (alpha/b, beta/b, 1) and the width s
    # into s kappa, so a squared zone norm is kappa^n times the norm of the
    # scaled problem; pinned configs have alpha = beta = gamma = 1, where
    # this cannot tell gamma^2 from 1/gamma^2
    params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=n)
    b = params.b
    kappa, big_t = gamma / b, b / gamma ** 2
    unit = ModelParams(alpha=alpha / b, beta=beta / b, gamma=1.0, n=n)
    amplitude_v = (0.03, -0.04, 0.02)[:n]
    data = InitialData(amplitude_v=amplitude_v, amplitude_rho=1.0, width=width)
    scaled = InitialData(amplitude_v=amplitude_v, amplitude_rho=1.0, width=width * kappa)
    factor = kappa ** n

    rb, rb_unit = remainder_bounds(params, data, t), remainder_bounds(unit, scaled, t / big_t)
    # the moment-defect bound is left out: its L^{1,1} weight 1 + E|x| does not scale
    for value, unit_value in zip((*rb.expansion, rb.sine_correction),
                                 (*rb_unit.expansion, rb_unit.sine_correction)):
        assert value > 0.0
        assert value == pytest.approx(factor * unit_value, rel=1e-14, abs=0)

    fields = [(moment_defect_field, "low"), (sine_correction_field, "low"),
              (expansion_field, "low"), (velocity_field, "full")]
    for field, zone in fields:
        norm = field_norm_sq(field, params, data, t, zone, DEFAULT_REL_TOL)
        unit_norm = field_norm_sq(field, unit, scaled, t / big_t, zone, DEFAULT_REL_TOL)
        assert norm.value > 0.0
        gap = abs(norm.value - factor * unit_norm.value)
        assert gap <= norm.est_error + factor * unit_norm.est_error + 1e-13 * norm.value


def test_measured_defect_below_bound():
    for t in (16.0, 128.0):
        f = lambda xi: moment_defect_term(PARAMS, DATA, xi, t)
        measured = black_box_norm_sq(f, PARAMS, t, "low").value
        assert measured <= remainder_bounds(PARAMS, DATA, t).moment_defect * 1.05


def test_expansion_sum_below_triangle_bound():
    # the five inaccessible corrections sum to moment_flow - leading - sine_correction;
    # their L2 norm is bounded by the sum of the square roots of the bounds
    for t in (16.0, 128.0):
        def f(xi):
            return (moment_flow(PARAMS, DATA, xi, t)
                    - velocity_profile(PARAMS, DATA, xi, t)
                    - sine_correction_term(PARAMS, DATA, xi, t))
        measured = black_box_norm_sq(f, PARAMS, t, "low").value
        rb = remainder_bounds(PARAMS, DATA, t)
        triangle = sum(math.sqrt(e) for e in rb.expansion) ** 2
        assert measured <= triangle * 1.05


def test_subtracting_computable_pieces_tightens_remainder():
    # ||R - defect - sine|| <= ||R|| on the low zone at large times, in the
    # regime where the computable pieces carry the leading remainder mass
    # (velocity moment dominant; for density-dominated data the inaccessible
    # acoustic corrections dominate instead and the two sides merely agree)
    data = InitialData(amplitude_v=(1.0, 0.0), amplitude_rho=0.05, width=1.0)
    for t in (64.0, 256.0, 2048.0):
        def raw(xi):
            v, _ = solve_exact_batch(PARAMS, data, xi, t)
            return v - velocity_profile(PARAMS, data, xi, t)

        def tightened(xi):
            v, _ = solve_exact_batch(PARAMS, data, xi, t)
            return (v - velocity_profile(PARAMS, data, xi, t)
                    - moment_defect_term(PARAMS, data, xi, t)
                    - sine_correction_term(PARAMS, data, xi, t))

        full = black_box_norm_sq(raw, PARAMS, t, "low").value
        rest = black_box_norm_sq(tightened, PARAMS, t, "low").value
        assert rest <= full


def test_remainder_evaluators_pointwise_linear_in_data():
    lam = 3.0
    scaled = InitialData(amplitude_v=(0.3, 0.0), amplitude_rho=3.0, width=1.0)
    xi = np.array([[0.3, 0.25]])
    t = 9.0
    np.testing.assert_allclose(
        moment_defect_term(PARAMS, scaled, xi, t),
        lam * moment_defect_term(PARAMS, DATA, xi, t), rtol=1e-13)
    np.testing.assert_allclose(
        sine_correction_term(PARAMS, scaled, xi, t),
        lam * sine_correction_term(PARAMS, DATA, xi, t), rtol=1e-13)
    np.testing.assert_allclose(
        density_profile(PARAMS, scaled, xi, t),
        lam * density_profile(PARAMS, DATA, xi, t), rtol=1e-13)


def test_gaussian_moment_integral_examples():
    # full-space value pi/(rate t) dominates at large t
    val = gaussian_moment_integral(2, 0, 1.0, 200.0, r_cut=1 / math.sqrt(2))
    assert val == pytest.approx(math.pi / 200.0, rel=1e-6)

    # (n=2, k=2, rate=2, t=100): bound is (pi/4) * 1e-4
    bound = gaussian_moment_bound(2, 2, 2.0, 100.0)
    assert bound == pytest.approx(math.pi / 4 * 1e-4, rel=1e-12)
    val = gaussian_moment_integral(2, 2, 2.0, 100.0, r_cut=1 / math.sqrt(2))
    assert val <= bound

    # scaling law: value(t) / value(4t) >= 4^{(n+k)/2} (1 - eps) at large t
    for n, k, rate in [(2, 0, 1.0), (3, 2, 0.5), (2, 6, 2.0)]:
        v1 = gaussian_moment_integral(n, k, rate, 400.0, r_cut=0.7)
        v2 = gaussian_moment_integral(n, k, rate, 1600.0, r_cut=0.7)
        assert v1 / v2 >= 4.0 ** ((n + k) / 2) * (1 - 1e-6)


def test_gaussian_moment_integral_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_moment_integral(1, -1, 1.0, 1.0, r_cut=1.0)
    with pytest.raises(ValueError):
        gaussian_moment_bound(2, 2, -1.0, 1.0)


def test_profile_rejects_origin():
    with pytest.raises(ValueError):
        velocity_profile(PARAMS, DATA, np.zeros((1, 2)), 1.0)
    with pytest.raises(ValueError):
        density_profile(PARAMS, DATA, np.zeros((1, 2)), 1.0)
    with pytest.raises(ValueError):
        sine_correction_term(PARAMS, DATA, np.zeros((1, 2)), 1.0)
    # a single frequency is passed as a one-row batch, never as an n-vector
    with pytest.raises(ValueError, match="shape"):
        velocity_profile(PARAMS, DATA, np.array([0.3, 0.1]), 1.0)
