import json
import math
from functools import partial

import numpy as np
import pytest

from nsprofile.cli import main
from nsprofile.model import InitialData, ModelParams, fourier_data_batch
from nsprofile.profiles import (
    density_profile,
    moment_defect_term,
    moment_flow,
    profile_field,
    sine_correction_term,
    velocity_profile,
)
from nsprofile.quadrature import sphere_area
from nsprofile.spectral import (
    Field,
    _flow_matrix,
    _phi_psi,
    exact_field,
    flow,
    pointwise,
    solve_exact_batch,
    solve_ode_oracle_batch,
)
from oracles import _angular_frame, complex_phi_psi, complex_roots, density_ode_residual

PARAMS = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
DATA = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)


def state_at(params, data, xi, t, oracle_step=None):
    """Stacked (v_hat, rho_hat) at the one frequency xi, as a one-row batch."""
    if oracle_step is None:
        v, rho = solve_exact_batch(params, data, np.asarray(xi)[None, :], t)
    else:
        v, rho = solve_ode_oracle_batch(params, data, np.asarray(xi)[None, :], t,
                                        oracle_step)
    return np.concatenate([v[0], rho])


def energy(state):
    """Frequency-space energy (|v_hat|^2 + |rho_hat|^2) / 2 of a stacked state."""
    return 0.5 * float(np.sum(np.abs(state) ** 2))


def roots(r):
    s1, s2 = complex_roots(PARAMS, np.array([r]))
    return complex(s1[0]), complex(s2[0])


def test_eigenvalues_oscillatory_branch():
    # roots of lambda^2 + 0.5 lambda + 0.25 (a=1, b=2, r=0.5)
    s1, s2 = roots(0.5)
    assert s1 == pytest.approx(-0.25 + 0.43301270189221946j, abs=1e-15)
    assert s2 == pytest.approx(np.conj(s1), abs=0)


def test_eigenvalues_double_root():
    s1, s2 = roots(1.0)  # r = delta0
    assert s1 == s2 == -1.0


def test_eigenvalues_overdamped_branch():
    # roots of lambda^2 + 8 lambda + 4; sigma1 is the small-magnitude root
    s1, s2 = roots(2.0)
    assert s1.imag == s2.imag == 0.0
    assert s1 == pytest.approx(-0.5358983848622456, rel=1e-14)
    assert s2 == pytest.approx(-7.464101615137754, rel=1e-14)
    assert s1 * s2 == pytest.approx(4.0, rel=1e-13)


def test_root_identities_across_radii():
    a, b = PARAMS.a, PARAMS.b
    r = np.geomspace(1e-6, 1e3, 60)
    s1, s2 = complex_roots(PARAMS, r)
    np.testing.assert_allclose(s1 + s2, -b * r * r, rtol=1e-12, atol=0)
    np.testing.assert_allclose(s1 * s2, a * r * r, rtol=1e-12, atol=0)
    assert np.all(s1.real <= 0) and np.all(s2.real <= 0)


def assert_phi_psi_match_reference(params, r, t):
    """Real Phi, Psi of the kernel against the complex reference at radii r, t > 0.

    The reference forms e^{s1 t} - e^{s2 t} directly. Each e^{s t} is off by
    about eps (1 + |s| t) of itself, so the quotient by s1 - s2 is off by
    eps sum (1 + |s| t) |e^{s t}| / |s1 - s2|: near the double root that is
    eps / (|s1 - s2| t) of the size t e^{mt} of Phi, the reference's own
    cancellation. At a double root the reference takes the limit t e^{s t},
    and t replaces 1 / |s1 - s2|. Psi weighs each term by |s| + 1/t more.
    """
    s1, s2 = complex_roots(params, r)
    ref_phi, ref_psi = complex_phi_psi(s1, s2, t)
    phi, psi = _phi_psi(params, r, t)
    assert phi.dtype == psi.dtype == np.float64
    gap = np.abs(s1 - s2)
    lever = np.divide(1.0, gap, out=np.full(gap.shape, t), where=gap > 0)
    c1, c2 = ((1.0 + np.abs(s) * t) * np.abs(np.exp(s * t)) for s in (s1, s2))
    tol = 4.0 * np.finfo(float).eps * lever
    assert np.all(np.abs(phi - ref_phi) <= tol * (c1 + c2))
    psi_size = c1 * (np.abs(s1) + 1.0 / t) + c2 * (np.abs(s2) + 1.0 / t)
    assert np.all(np.abs(psi - ref_psi) <= tol * psi_size)


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 3.0, 10.0, 100.0])
def test_phi_psi_real_and_match_complex_reference(t):
    # oscillatory, double root (disc = 0 exactly at r = delta0 = 1), overdamped,
    # and far overdamped, where a r^2 / s2 keeps the small root accurate
    assert_phi_psi_match_reference(PARAMS, np.array([0.5, PARAMS.delta0, 2.0, 10.0]), t)


@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 1.0), (0.01, 3.0, 0.7), (20.0, 0.0, 5.0)],
                         ids=["1-1-1", "0.01-3-0.7", "20-0-5"])
def test_phi_psi_against_long_double(coeffs):
    # radii from delta0 (1 -+ 1e-14) to 1000 delta0 and |s1 - s2| t from 1e-12
    # to 100, where e^{s1 t} - e^{s2 t} would lose up to 1e-4 to cancellation;
    # the reference is e^{mt} sin(dt)/d, e^{mt}(cos(dt) + m sin(dt)/d) or its
    # sinh/cosh twin in long double on the same float64 r r and discriminant.
    # Far above delta0 the rounded discriminant moves the reference's small
    # root m + d by up to eps b^2 r^2 / (4a) of itself, which the kernel's
    # a r^2 / s2 avoids: that, not the kernel, sets Psi's bound (9.4e-13 at
    # r = 100 delta0, where the kernel is within 3e-15 of the exact value)
    alpha, beta, gamma = coeffs
    params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=2)
    a, b = params.a, params.b
    eps = np.array([1e-14, 1e-11, 1e-8, 1e-5, 1e-3, 0.1])
    r = params.delta0 * np.concatenate([1 - eps, 1 + eps, 1 + np.array([1.0, 9.0, 99.0, 999.0])])
    rr = r * r
    disc = 4.0 * a - b * b * rr
    assert np.all(disc != 0.0)
    gap = r * np.sqrt(np.abs(disc))
    ld = np.longdouble
    m = -ld(b) * rr.astype(ld) / 2
    d = np.sqrt(rr.astype(ld) * np.abs(disc.astype(ld))) / 2
    osc = disc > 0.0
    for gap_t in (1e-12, 1e-9, 5e-7, 2e-6, 1e-3, 0.5, 1.9, 2.1, 10.0, 100.0):
        for i in range(r.size):
            t = gap_t / gap[i]
            phi, psi = _phi_psi(params, r[i:i + 1], t)
            dt, emt = d[i] * ld(t), np.exp(m[i] * ld(t))
            if osc[i]:
                sin_d, cos_d, size = np.sin(dt) / d[i], np.cos(dt), emt
            else:
                sin_d, cos_d, size = np.sinh(dt) / d[i], np.cosh(dt), emt * np.cosh(dt)
            ref_phi = emt * sin_d
            ref_psi = emt * (cos_d + m[i] * sin_d)
            if abs(ref_phi) < 1e-290:
                continue
            where = f"r = {r[i]:.17g}, t = {t:.17g}"
            assert abs(float((ld(phi[0]) - ref_phi) / ref_phi)) <= 1e-13, where
            # Psi's own zeros cancel in every form; skip their neighbourhood
            if abs(ref_psi) >= 1e-6 * size:
                assert abs(float((ld(psi[0]) - ref_psi) / ref_psi)) <= 1e-12, where


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_branch_continuity_at_resonance(eps):
    t = 3.0
    delta0 = PARAMS.delta0

    def at(r):
        return state_at(PARAMS, DATA, np.array([r, 0.0]), t)

    mid = at(delta0)
    lo = at(delta0 * (1 - eps))
    hi = at(delta0 * (1 + eps))
    scale = np.max(np.abs(mid))
    assert np.max(np.abs(lo - mid)) < 50 * eps * scale
    assert np.max(np.abs(hi - mid)) < 50 * eps * scale


def test_solve_exact_initial_condition():
    # oscillatory, r = delta0 exactly, where disc == 0, and overdamped: the
    # t = 0 norms (highfreq's E_h(0)) need Phi = 0 and Psi = 1 for every root type
    xi = np.array([[0.3, -0.8], [PARAMS.delta0, 0.0], [1.2, -1.6]])
    assert 4.0 * PARAMS.a - PARAMS.b ** 2 * PARAMS.delta0 ** 2 == 0.0
    phi, psi = _phi_psi(PARAMS, np.sqrt(np.sum(xi * xi, axis=1)), 0.0)
    assert np.all(phi == 0.0) and np.all(psi == 1.0)
    v, rho = solve_exact_batch(PARAMS, DATA, xi, 0.0)
    env = np.exp(-np.sum(xi * xi, axis=1) / 2)
    np.testing.assert_allclose(v, np.array([[0.1, 0.0]]) * env[:, None], rtol=0, atol=1e-16)
    np.testing.assert_allclose(rho, env, rtol=1e-15, atol=0)


def test_solenoidal_data_follows_heat_flow():
    # rho0 = 0 and xi perpendicular to the velocity amplitude: pure heat decay
    data = InitialData(amplitude_v=(0.7, 0.0), amplitude_rho=0.0, width=1.0)
    xi = np.array([0.0, 0.9])
    t = 4.0
    s = state_at(PARAMS, data, xi, t)
    env = math.exp(-data.width**2 * 0.81 / 2)
    expected = 0.7 * env * math.exp(-PARAMS.alpha * 0.81 * t)
    assert s[0] == pytest.approx(expected, rel=1e-14)
    assert s[1] == 0.0
    assert s[2] == 0.0


def test_solve_exact_matches_rk4_oracle_at_generic_point():
    xi = np.array([0.3, 0.1])
    t = 5.0
    ref = state_at(PARAMS, DATA, xi, t)
    got = state_at(PARAMS, DATA, xi, t, oracle_step=1e-4)
    rel = np.linalg.norm(ref - got) / np.linalg.norm(ref)
    assert rel < 1e-8


def test_rk4_is_fourth_order():
    xi = np.array([0.8, 0.4])
    t = 2.0
    ref = state_at(PARAMS, DATA, xi, t)

    def err(step):
        return np.linalg.norm(state_at(PARAMS, DATA, xi, t, oracle_step=step) - ref)

    # steps large enough that truncation dominates roundoff
    ratio = err(5e-2) / err(2.5e-2)
    assert 12.0 < ratio < 20.0


def test_oracle_initial_condition_and_step_guard():
    xi = np.array([1.0, 1.0])
    s = state_at(PARAMS, DATA, xi, 0.0, oracle_step=1e-3)
    env = math.exp(-1.0)
    np.testing.assert_allclose(s[:2], np.array([0.1, 0.0]) * env, atol=1e-16)
    with pytest.raises(ValueError):
        state_at(PARAMS, DATA, np.array([10.0, 0.0]), 1.0, oracle_step=1e-2)


def test_transverse_component_is_exact_heat_flow():
    rng = np.random.default_rng(5)
    data = InitialData(amplitude_v=(0.4, -0.9), amplitude_rho=0.6, width=1.1)
    for _ in range(10):
        xi = rng.normal(size=2) * rng.uniform(0.1, 3.0)
        t = rng.uniform(0.1, 10.0)
        r2 = float(xi @ xi)
        s = state_at(PARAMS, data, xi, t)
        v0_hat = np.array(data.amplitude_v) * math.exp(-data.width**2 * r2 / 2)
        perp = lambda v: v - xi * (xi @ v) / r2
        np.testing.assert_allclose(
            perp(s[:2]),
            math.exp(-PARAMS.alpha * r2 * t) * perp(v0_hat.astype(complex)),
            rtol=1e-13, atol=1e-16,
        )


def test_energy_values_and_monotonicity():
    xi = np.array([0.6, 0.3])
    e0 = energy(state_at(PARAMS, DATA, xi, 0.0))
    # at t = 0 the state is the data transform: (|P0|^2 + Q0^2) e^{-s^2 |xi|^2} / 2
    assert e0 == pytest.approx(0.5 * (0.1**2 + 1.0) * math.exp(-float(xi @ xi)), rel=1e-15)
    prev = e0
    for t in np.linspace(0.5, 20.0, 15):
        e = energy(state_at(PARAMS, DATA, xi, float(t)))
        assert e <= prev * (1 + 1e-13)
        prev = e
    assert prev <= e0


def test_energy_nonincreasing_along_oracle_trajectory():
    xi = np.array([1.2, -0.5])
    vals = [energy(state_at(PARAMS, DATA, xi, float(t), oracle_step=1e-3))
            for t in np.linspace(0.0, 3.0, 7)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_density_residual_zero_for_silent_data():
    # xi.v0 = 0 and rho0 = 0 leave the density identically zero
    data = InitialData(amplitude_v=(0.5, 0.0), amplitude_rho=0.0, width=1.0)
    res = density_ode_residual(PARAMS, data, np.array([0.0, 0.7]), t=2.0, dt=1e-3)
    assert res == 0.0


def test_density_residual_second_order_and_small():
    xi = np.array([0.9, 0.0])
    t = 3.0
    coarse = density_ode_residual(PARAMS, DATA, xi, t, dt=2e-3)
    fine = density_ode_residual(PARAMS, DATA, xi, t, dt=1e-3)
    assert 3.0 < coarse / fine < 5.0

    res = density_ode_residual(PARAMS, DATA, xi, t, dt=1e-4)
    rho = abs(state_at(PARAMS, DATA, xi, t)[2])
    scale = max(PARAMS.a * 0.81 * rho, PARAMS.b * 0.81 * rho, rho)
    assert res / scale < 1e-6


def test_density_residual_guards():
    with pytest.raises(ValueError):
        density_ode_residual(PARAMS, DATA, np.array([5.0, 0.0]), t=1.0, dt=0.05)
    with pytest.raises(ValueError):
        density_ode_residual(PARAMS, DATA, np.array([0.5, 0.0]), t=1e-4, dt=1e-3)


def test_xi_zero_rejected():
    with pytest.raises(ValueError):
        solve_exact_batch(PARAMS, DATA, np.array([[0.3, 0.1], [0.0, 0.0]]), 1.0)


def test_batch_matches_scalar_path():
    # a row of a batch does not depend on the other rows: one frequency at a
    # time (a one-row batch) gives the same bits
    xi = np.array([[0.2, 0.1], [1.5, -0.3], [3.0, 0.0]])
    v, rho = solve_exact_batch(PARAMS, DATA, xi, 2.5)
    for i in range(3):
        np.testing.assert_array_equal(np.concatenate([v[i], [rho[i]]]),
                                      state_at(PARAMS, DATA, xi[i], 2.5))


def test_solve_exact_batch_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_exact_batch(PARAMS, DATA, np.array([[0.5, 0.2]]), -1.0)


ENTRY_POINTS = {
    "solve_exact_batch": solve_exact_batch,
    "velocity_profile": velocity_profile,
    "density_profile": density_profile,
    "moment_flow": moment_flow,
    "moment_defect_term": moment_defect_term,
    "sine_correction_term": sine_correction_term,
    "oracle": partial(solve_ode_oracle_batch, step=1e-3),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_frequency_point_entries_reject_a_bad_time_or_datum(name):
    # a t that is negative or not finite, a datum of another dimension, and
    # an xi that is not finite or not of shape (m, n), are rejected by name,
    # never turned into growing exponentials, NaN, the unmoved datum, a numpy
    # broadcast error or an AxisError; t = 0 is finite everywhere and the
    # oracle's one zero-length step keeps the datum's bits
    entry = ENTRY_POINTS[name]
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=3)
    data = InitialData(amplitude_v=(0.1, 0.2, 0.0), amplitude_rho=1.0, width=1.0)
    xi = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.4]])  # inside delta0 = 1
    for t in (-1.0, -5.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            entry(params, data, xi, t)
    flat = InitialData(amplitude_v=(0.1, 0.2), amplitude_rho=1.0, width=1.0)
    with pytest.raises(ValueError, match="data dimension 2 != params dimension 3"):
        entry(params, flat, xi, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for row in range(2):
            with pytest.raises(ValueError, match="xi must be finite"):
                entry(params, data, np.where(np.arange(2)[:, None] == row, bad, xi), 1.0)
    for shape in ((3,), (2, 2), (1, 4), (1, 3, 1)):
        with pytest.raises(ValueError, match=r"xi must have shape \(m, 3\)"):
            entry(params, data, np.full(shape, 0.2), 1.0)
    at_zero = entry(params, data, xi, 0.0)
    assert all(np.all(np.isfinite(x)) for x in at_zero)
    if name == "oracle":
        v0, rho0 = fourier_data_batch(data, xi)
        assert _bits(*at_zero) == _bits(v0.astype(complex), rho0.astype(complex))


@pytest.mark.parametrize("name", ["solve_exact_batch", "oracle"])
def test_an_empty_batch_gives_empty_arrays(name):
    # no frequency gives (0, n) and (0,) arrays from both entries, the oracle
    # included: its step guard takes the maximum of no b |xi|^2 as 0
    for n in (2, 3):
        params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=n)
        data = InitialData(amplitude_v=(0.1,) + (0.0,) * (n - 1), amplitude_rho=1.0, width=1.0)
        for t in (0.0, 2.5):
            v, rho = ENTRY_POINTS[name](params, data, np.empty((0, n)), t)
            assert (v.shape, rho.shape) == ((0, n), (0,))


@pytest.mark.parametrize("step", [0.0, -1.0, -1e-300, math.nan])
def test_oracle_rejects_a_step_that_is_not_positive(step):
    with pytest.raises(ValueError, match="step must be positive"):
        solve_ode_oracle_batch(PARAMS, DATA, np.array([[0.3, 0.1]]), 1.0, step)


def test_oracle_step_guard_holds_at_its_bound():
    # b |xi|^2 step = 2 * 0.25 * 1.0 is exactly 0.5, which the guard refuses
    xi = np.array([[0.5, 0.0]])
    with pytest.raises(ValueError, match="step too large"):
        solve_ode_oracle_batch(PARAMS, DATA, xi, 1.0, 1.0)
    v, rho = solve_ode_oracle_batch(PARAMS, DATA, xi, 1.0, 0.999)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(rho))


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_matrix_power_matches_step_loop(n):
    # reference: the same RK4 step advanced one step at a time
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=n)
    data = InitialData(amplitude_v=(0.1, 0.0, 0.05)[:n], amplitude_rho=1.0, width=1.0)
    d0 = params.delta0
    radii = np.array([0.3, 0.999 * d0, d0, 1.001 * d0, 2.0])
    theta = np.linspace(0.1, 2.9, radii.size)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if n == 3:  # the same azimuths at polar angles off the equator
        polar = np.linspace(0.4, 2.6, radii.size)
        dirs = np.concatenate([dirs * np.sin(polar)[:, None], np.cos(polar)[:, None]], axis=1)
    xi = radii[:, None] * dirs
    step = 1e-3
    for t in (0.37, 2.0):
        nsteps = math.ceil(t / step)
        ha = (t / nsteps) * _flow_matrix(params, xi)
        ha2 = ha @ ha
        rk4 = np.eye(n + 1) + ha + ha2 / 2 + ha2 @ ha / 6 + ha2 @ ha2 / 24
        v0, rho0 = fourier_data_batch(data, xi)
        y = np.concatenate([v0, rho0[:, None]], axis=1)
        for _ in range(nsteps):
            y = np.einsum("mij,mj->mi", rk4, y)
        v, rho = solve_ode_oracle_batch(params, data, xi, t, step)
        got = np.concatenate([v, rho[:, None]], axis=1)
        rel = np.linalg.norm(got - y, axis=1) / np.linalg.norm(y, axis=1)
        assert float(np.max(rel)) <= 1e-12


def test_seeded_property_sweep():
    # coefficients log-uniform over six decades, every dimension 2..4, radii
    # at delta0, at delta0 (1 -+ 1e-3) and at delta0 (1 -+ eps); the data
    # width 1/delta0 keeps the data transform of order one at these radii
    rng = np.random.default_rng(20261018)
    for _ in range(24):
        alpha, beta, gamma = 10.0 ** rng.uniform(-3.0, 3.0, 3)
        n = int(rng.integers(2, 5))
        params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=n)
        d0 = params.delta0
        eps = 10.0 ** rng.uniform(-7.0, -2.0)
        radii = d0 * np.array([1.0, 1 - 1e-3, 1 + 1e-3, 1 - eps, 1 + eps])
        dirs = rng.normal(size=(radii.size, n))
        xi = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        # |s1 - s2| t = r sqrt|disc| t at 5e-7 and 2e-6 for the radii at
        # delta0 (1 -+ eps), where the roots nearly coincide, and times over
        # the decay scale 1/(b delta0^2)
        r = radii[3:]
        switch = 1e-6 / (r * np.sqrt(np.abs(4.0 * params.a - (params.b * r) ** 2)))
        scale = 1.0 / (params.b * d0 * d0)
        times = np.sort(np.concatenate([[0.0], 0.5 * switch, 2.0 * switch,
                                        scale * 10.0 ** rng.uniform(-3.0, 2.0, 4)]))
        amp_a, amp_b = rng.normal(size=(2, n + 1))
        c_a, c_b = rng.normal(size=2)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))  # orthogonal

        def data_of(amp):
            return InitialData(tuple(amp[:n]), amp[n], 1.0 / d0)

        def state(amp, points, t):
            v, rho = solve_exact_batch(params, data_of(amp), points, t)
            return np.concatenate([v, rho[:, None]], axis=1)

        # the oracle where its step count stays small: b |xi|^2 step <= 1e-3
        step = 1e-3 / (params.b * float(np.max(radii)) ** 2)
        energy = np.inf
        for t in times.tolist():
            if t > 0:
                assert_phi_psi_match_reference(params, radii, t)
            sa, sb = state(amp_a, xi, t), state(amp_b, xi, t)
            assert np.all(np.isfinite(sa))
            size_a = np.linalg.norm(sa, axis=1)
            assert np.all(size_a ** 2 <= energy * (1 + 1e-12))
            energy = size_a ** 2
            lin = state(c_a * amp_a + c_b * amp_b, xi, t) - (c_a * sa + c_b * sb)
            bound = 1e-13 * (abs(c_a) * size_a + abs(c_b) * np.linalg.norm(sb, axis=1))
            assert np.all(np.linalg.norm(lin, axis=1) <= bound)
            rot = state(np.append(q @ amp_a[:n], amp_a[n]), xi @ q.T, t)
            moved = np.concatenate([sa[:, :n] @ q.T, sa[:, n:]], axis=1)
            assert np.all(np.linalg.norm(rot - moved, axis=1) <= 1e-12 * size_a)
            if 0 < t <= 1e5 * step:
                v, rho = solve_ode_oracle_batch(params, data_of(amp_a), xi, t, step)
                got = np.concatenate([v, rho[:, None]], axis=1)
                assert np.all(np.linalg.norm(got - sa, axis=1) <= 1e-8 * size_a)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sphere_mean_max_against_pointwise_directions(n):
    # |field|^2 of random real coefficients at directions of known u = xi_hat . e1:
    # the 2-node Gauss rule in u integrates the u-quadratic exactly, and a
    # grid of u through 0 and -+1 attains its maximum over u in [-1, 1]
    rng = np.random.default_rng([17, n])
    dirs, weights = _angular_frame(n, 2)
    u = np.linspace(-1.0, 1.0, 201)
    grid = np.zeros((u.size, n))
    grid[:, 0] = u
    grid[:, 1] = np.sqrt(1.0 - u * u)
    for _ in range(20):
        coefficients = rng.normal(size=5)
        mean, peak = Field(*coefficients).sphere_mean_max(n)

        def at(xi):
            vector, scalar = pointwise(
                lambda params, data, r, t: Field(*(np.full(r.shape, c) for c in coefficients)),
                ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=n),
                InitialData(amplitude_v=np.eye(n)[0], amplitude_rho=1.0, width=1.0), 1.5 * xi,
                0.0)
            return np.sum(np.abs(vector) ** 2, axis=1) + np.abs(scalar) ** 2

        assert float(mean) == pytest.approx(float(np.dot(weights, at(dirs))) / sphere_area(n),
                                            rel=1e-13)
        assert float(peak) == pytest.approx(float(np.max(at(grid))), rel=1e-13)


def _bits(*arrays):
    return [np.asarray(x).tobytes() for x in arrays]


def _three_root_types():
    """Ascending radii that hold every root type: oscillatory radii, then
    r = delta0 (disc exactly 0, the double root, twice), then real roots."""
    d0 = PARAMS.delta0
    r = np.sort(np.concatenate([d0 * np.linspace(0.05, 3.0, 40), [d0] * 2]))
    disc = 4.0 * PARAMS.a - PARAMS.b * PARAMS.b * r * r
    assert np.count_nonzero(disc == 0.0) >= 2 and np.any(disc > 0.0) and np.any(disc < 0.0)
    return r


@pytest.mark.parametrize("t", [0.0, 0.7, 30.0])
def test_phi_psi_of_any_batch_gives_each_radius_its_bits_alone(t):
    # the sign of the discriminant picks each radius's formula, so in any
    # order every radius has the bits it has alone: the ascending batch, five
    # seeded permutations of it, its reverse and short batches that mix the
    # root types in every order, double roots included
    r = _three_root_types()
    d0 = PARAMS.delta0
    batches = [r] + [r[np.random.default_rng([11, k]).permutation(r.size)] for k in range(5)]
    batches += [r[::-1]] + [d0 * np.array(x) for x in (
        [2.0, 0.5], [2.0, 1.0], [0.5, 2.0, 1.0], [3.0, 1.0, 2.0], [2.0, 1.0, 1.0], [1.0, 0.5])]
    for batch in batches:
        phi, psi = _phi_psi(PARAMS, batch, t)
        for i in range(batch.size):
            assert (_bits(*_phi_psi(PARAMS, batch[i:i + 1], t))
                    == _bits(phi[i:i + 1], psi[i:i + 1]))
        # without Psi, Phi keeps its bits
        alone, none = _phi_psi(PARAMS, batch, t, with_psi=False)
        assert none is None and _bits(alone) == _bits(phi)
    assert [x.size for x in _phi_psi(PARAMS, np.empty(0), t)] == [0, 0]


VERDICTS = ("profile-error", "density-profile-error", "rate", "sandwich", "lemma31",
            "highfreq", "bounds")


def _forbid_numpy_sorts_and_grids(monkeypatch):
    """Make numpy's sorting entry points and its geometric grids raise: no
    run-time code may page numpy's sort kernels in (see the spectral
    docstring), nor the promotion code behind ``np.geomspace`` (every grid is
    ``config.geometric_grid``)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy sort or geometric grid called at run time")

    for name in ("sort", "argsort", "lexsort", "unique", "geomspace", "logspace"):
        monkeypatch.setattr(np, name, forbidden)


def test_pointwise_of_an_unsorted_batch_matches_the_sorted_batch(monkeypatch):
    # both moments nonzero and radii across delta0, in no order and each twice
    # (at xi and -xi): each point gets the bits it gets in the sorted batch.
    # The fields take the radii in the order of xi, so pointwise sorts
    # nothing; numpy's sorts stay forbidden so that none comes back
    params = ModelParams(alpha=0.7, beta=1.3, gamma=1.1, n=3)
    data = InitialData(amplitude_v=(0.3, -0.2, 0.1), amplitude_rho=0.8, width=0.9)
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(60, 3))
    xi = params.delta0 * rng.uniform(0.05, 3.0, 60)[:, None] * dirs / np.linalg.norm(
        dirs, axis=1)[:, None]
    xi = np.concatenate([xi, -xi])
    order = np.argsort(np.sum(xi * xi, axis=1), kind="stable")
    _forbid_numpy_sorts_and_grids(monkeypatch)
    for t in (0.0, 2.5):
        v, rho = solve_exact_batch(params, data, xi, t)
        v_sorted, rho_sorted = solve_exact_batch(params, data, xi[order], t)
        assert _bits(v[order], rho[order]) == _bits(v_sorted, rho_sorted)


@pytest.mark.parametrize("config", [{}, {"data": {"amplitude_v": [0.03, 0.04]}}],
                         ids=["n2", "n2-p0"])
def test_default_runs_call_no_numpy_sort(tmp_path, monkeypatch, config):
    _forbid_numpy_sorts_and_grids(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for sub in ("oracle-check",) + VERDICTS:
        assert main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_zero_moment_coefficients_are_scalars_with_the_same_sphere_means(n):
    # |P0| = 0: the velocity-moment coefficients a, b1 and c1 are the scalar
    # 0.0, and the sphere means and maxima keep the bits that arrays of zeros
    # give (the flow with p an array of zeros)
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=n)
    data = InitialData(amplitude_v=(0.0,) * n, amplitude_rho=1.0, width=1.0)
    r = params.delta0 * np.linspace(0.01, 3.0, 300)
    q = np.exp(-(r * r) / 2.0)
    for t in (0.5, 40.0):
        field = exact_field(params, data, r, t)
        assert all(isinstance(c, float) and c == 0.0 for c in (field.a, field.b1, field.c1))
        assert _bits(field.b0, field.c0) == _bits(*flow(params, r, t, 0.0, q)[1::2])
        for part in ({"scalar": False}, {"vector": False}, {}):
            scalar_zeros = flow(params, r, t, 0.0, q, **part)
            array_zeros = flow(params, r, t, np.zeros(r.size), q, **part)
            assert any(isinstance(c, np.ndarray) and not c.any() for c in array_zeros)
            assert (_bits(*scalar_zeros.sphere_mean_max(n))
                    == _bits(*array_zeros.sphere_mean_max(n)))
    # a field that is zero at every radius gives zero means
    assert Field().sphere_mean_max(n) == (0.0, 0.0)


@pytest.mark.parametrize("part", [{"scalar": False}, {"vector": False}, {}],
                         ids=["vector", "scalar", "both"])
def test_integer_zero_moment_is_a_scalar_zero(part):
    # Field.from_factors takes an int 0 as it takes 0.0, so the profile, which
    # forms no factor for a zero moment, and the flow give the same coefficients
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
    r = params.delta0 * np.linspace(0.01, 3.0, 30)
    for zero in (0, 0.0):
        data = InitialData(amplitude_v=(0.6, 0.8), amplitude_rho=zero, width=1.0)
        field = profile_field(params, data, r, 40.0, **part)
        assert all(isinstance(c, float) and c == 0.0 for c in (field.b0, field.c0))
        assert flow(params, r, 40.0, zero, zero, **part) == Field()
