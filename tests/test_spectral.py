import math

import numpy as np
import pytest

from nsprofile.model import InitialData, ModelParams, fourier_data_batch
from nsprofile.spectral import (
    BRANCH_COMPLEX,
    BRANCH_DOUBLE,
    BRANCH_REAL,
    SpectralState,
    _flow_matrix,
    density_ode_residual,
    eigenvalues,
    energy,
    solve_exact,
    solve_exact_batch,
    solve_ode_oracle,
    solve_ode_oracle_batch,
)

PARAMS = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
DATA = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)


def test_eigenvalues_oscillatory_branch():
    # roots of lambda^2 + 0.5 lambda + 0.25 (a=1, b=2, r=0.5)
    pair = eigenvalues(PARAMS, 0.5)
    assert pair.branch == BRANCH_COMPLEX
    assert pair.sigma1 == pytest.approx(-0.25 + 0.43301270189221946j, abs=1e-15)
    assert pair.sigma2 == pytest.approx(np.conj(pair.sigma1), abs=0)


def test_eigenvalues_double_root():
    pair = eigenvalues(PARAMS, 1.0)  # r = delta0
    assert pair.branch == BRANCH_DOUBLE
    assert pair.sigma1 == pair.sigma2 == -1.0


def test_eigenvalues_overdamped_branch():
    # roots of lambda^2 + 8 lambda + 4; sigma1 is the small-magnitude root
    pair = eigenvalues(PARAMS, 2.0)
    assert pair.branch == BRANCH_REAL
    assert pair.sigma1 == pytest.approx(-0.5358983848622456, rel=1e-14)
    assert pair.sigma2 == pytest.approx(-7.464101615137754, rel=1e-14)
    assert pair.sigma1 * pair.sigma2 == pytest.approx(4.0, rel=1e-13)


def test_root_identities_across_radii():
    a, b = PARAMS.a, PARAMS.b
    for r in np.geomspace(1e-6, 1e3, 60):
        pair = eigenvalues(PARAMS, float(r))
        assert pair.sigma1 + pair.sigma2 == pytest.approx(-b * r * r, rel=1e-12)
        assert pair.sigma1 * pair.sigma2 == pytest.approx(a * r * r, rel=1e-12)
        assert pair.sigma1.real <= 0 and pair.sigma2.real <= 0


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_branch_continuity_at_resonance(eps):
    t = 3.0
    delta0 = PARAMS.delta0

    def state_at(r):
        xi = np.array([r, 0.0])
        s = solve_exact(PARAMS, DATA, xi, t)
        return np.concatenate([s.v_hat, [s.rho_hat]])

    mid = state_at(delta0)
    lo = state_at(delta0 * (1 - eps))
    hi = state_at(delta0 * (1 + eps))
    scale = np.max(np.abs(mid))
    assert np.max(np.abs(lo - mid)) < 50 * eps * scale
    assert np.max(np.abs(hi - mid)) < 50 * eps * scale


def test_solve_exact_initial_condition():
    xi = np.array([0.3, -0.8])
    s = solve_exact(PARAMS, DATA, xi, 0.0)
    env = math.exp(-float(xi @ xi) / 2)
    np.testing.assert_allclose(s.v_hat, np.array([0.1, 0.0]) * env, rtol=0, atol=1e-16)
    assert s.rho_hat == pytest.approx(env, rel=1e-15)


def test_solenoidal_data_follows_heat_flow():
    # rho0 = 0 and xi perpendicular to the velocity amplitude: pure heat decay
    data = InitialData(amplitude_v=(0.7, 0.0), amplitude_rho=0.0, width=1.0)
    xi = np.array([0.0, 0.9])
    t = 4.0
    s = solve_exact(PARAMS, data, xi, t)
    env = math.exp(-data.width**2 * 0.81 / 2)
    expected = 0.7 * env * math.exp(-PARAMS.alpha * 0.81 * t)
    assert s.v_hat[0] == pytest.approx(expected, rel=1e-14)
    assert s.v_hat[1] == 0.0
    assert s.rho_hat == 0.0


def test_solve_exact_matches_rk4_oracle_at_generic_point():
    xi = np.array([0.3, 0.1])
    t = 5.0
    exact = solve_exact(PARAMS, DATA, xi, t)
    oracle = solve_ode_oracle(PARAMS, DATA, xi, t, step=1e-4)
    ref = np.concatenate([exact.v_hat, [exact.rho_hat]])
    got = np.concatenate([oracle.v_hat, [oracle.rho_hat]])
    rel = np.linalg.norm(ref - got) / np.linalg.norm(ref)
    assert rel < 1e-8


def test_rk4_is_fourth_order():
    xi = np.array([0.8, 0.4])
    t = 2.0
    exact = solve_exact(PARAMS, DATA, xi, t)
    ref = np.concatenate([exact.v_hat, [exact.rho_hat]])

    def err(step):
        s = solve_ode_oracle(PARAMS, DATA, xi, t, step=step)
        return np.linalg.norm(np.concatenate([s.v_hat, [s.rho_hat]]) - ref)

    # steps large enough that truncation dominates roundoff
    ratio = err(5e-2) / err(2.5e-2)
    assert 12.0 < ratio < 20.0


def test_oracle_initial_condition_and_step_guard():
    xi = np.array([1.0, 1.0])
    s = solve_ode_oracle(PARAMS, DATA, xi, 0.0, step=1e-3)
    env = math.exp(-1.0)
    np.testing.assert_allclose(s.v_hat, np.array([0.1, 0.0]) * env, atol=1e-16)
    with pytest.raises(ValueError):
        solve_ode_oracle(PARAMS, DATA, np.array([10.0, 0.0]), 1.0, step=1e-2)


def test_transverse_component_is_exact_heat_flow():
    rng = np.random.default_rng(5)
    data = InitialData(amplitude_v=(0.4, -0.9), amplitude_rho=0.6, width=1.1)
    for _ in range(10):
        xi = rng.normal(size=2) * rng.uniform(0.1, 3.0)
        t = rng.uniform(0.1, 10.0)
        r2 = float(xi @ xi)
        s = solve_exact(PARAMS, data, xi, t)
        v0_hat = np.array(data.amplitude_v) * math.exp(-data.width**2 * r2 / 2)
        perp = lambda v: v - xi * (xi @ v) / r2
        np.testing.assert_allclose(
            perp(s.v_hat),
            math.exp(-PARAMS.alpha * r2 * t) * perp(v0_hat.astype(complex)),
            rtol=1e-13, atol=1e-16,
        )


def test_energy_values_and_monotonicity():
    assert energy(SpectralState(v_hat=np.zeros(2, dtype=complex), rho_hat=0j)) == 0.0
    assert energy(SpectralState(v_hat=np.array([1.0 + 0j, 0j]), rho_hat=1j)) == 1.0
    xi = np.array([0.6, 0.3])
    e0 = energy(solve_exact(PARAMS, DATA, xi, 0.0))
    prev = e0
    for t in np.linspace(0.5, 20.0, 15):
        e = energy(solve_exact(PARAMS, DATA, xi, float(t)))
        assert e <= prev * (1 + 1e-13)
        prev = e
    assert prev <= e0


def test_energy_nonincreasing_along_oracle_trajectory():
    xi = np.array([[1.2, -0.5]])
    vals = []
    for t in np.linspace(0.0, 3.0, 7):
        v, rho = solve_ode_oracle_batch(PARAMS, DATA, xi, float(t), step=1e-3)
        vals.append(energy(SpectralState(v_hat=v[0], rho_hat=complex(rho[0]))))
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
    rho = abs(solve_exact(PARAMS, DATA, xi, t).rho_hat)
    scale = max(PARAMS.a * 0.81 * rho, PARAMS.b * 0.81 * rho, rho)
    assert res / scale < 1e-6


def test_density_residual_guards():
    with pytest.raises(ValueError):
        density_ode_residual(PARAMS, DATA, np.array([5.0, 0.0]), t=1.0, dt=0.05)
    with pytest.raises(ValueError):
        density_ode_residual(PARAMS, DATA, np.array([0.5, 0.0]), t=1e-4, dt=1e-3)


def test_xi_zero_rejected():
    with pytest.raises(ValueError):
        solve_exact(PARAMS, DATA, np.zeros(2), 1.0)


def test_batch_matches_scalar_path():
    xi = np.array([[0.2, 0.1], [1.5, -0.3], [3.0, 0.0]])
    v, rho = solve_exact_batch(PARAMS, DATA, xi, 2.5)
    for i in range(3):
        s = solve_exact(PARAMS, DATA, xi[i], 2.5)
        np.testing.assert_allclose(v[i], s.v_hat, rtol=0, atol=0)
        assert rho[i] == s.rho_hat


def test_solve_exact_batch_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_exact_batch(PARAMS, DATA, np.array([[0.5, 0.2]]), -1.0)


def test_oracle_matrix_power_matches_step_loop():
    # reference: the same RK4 step advanced one step at a time
    d0 = PARAMS.delta0
    radii = np.array([0.3, 0.999 * d0, d0, 1.001 * d0, 2.0])
    theta = np.linspace(0.1, 2.9, radii.size)
    xi = radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    step = 1e-3
    for t in (0.37, 2.0):
        nsteps = math.ceil(t / step)
        ha = (t / nsteps) * _flow_matrix(PARAMS, xi)
        ha2 = ha @ ha
        rk4 = np.eye(3) + ha + ha2 / 2 + ha2 @ ha / 6 + ha2 @ ha2 / 24
        v0, rho0 = fourier_data_batch(DATA, xi)
        y = np.concatenate([v0, rho0[:, None]], axis=1)
        for _ in range(nsteps):
            y = np.einsum("mij,mj->mi", rk4, y)
        v, rho = solve_ode_oracle_batch(PARAMS, DATA, xi, t, step)
        got = np.concatenate([v, rho[:, None]], axis=1)
        rel = np.linalg.norm(got - y, axis=1) / np.linalg.norm(y, axis=1)
        assert float(np.max(rel)) <= 1e-12
