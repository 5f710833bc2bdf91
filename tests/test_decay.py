import math

import numpy as np
import pytest

from nsprofile.model import InitialData, ModelParams, moments
from nsprofile.decay import (
    DecayFit,
    DecaySeries,
    check_moment_ratio,
    fit_loglog,
    fit_semilog,
    highfreq_energy,
    ordered_map,
    tail_window,
    velocity_norm_series,
    verify_kernel_plateaus,
    verify_sandwich,
)
from nsprofile.profiles import velocity_profile
from nsprofile.quadrature import zone_norm_sq
from nsprofile.spectral import solve_exact_batch

PARAMS = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)


def test_series_validation():
    with pytest.raises(ValueError):
        DecaySeries(times=[1.0, 2.0, 3.0], values=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        DecaySeries(times=[1.0, 2.0, 2.0, 3.0], values=[1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        DecaySeries(times=[1.0, 2.0, 3.0, 4.0], values=[1.0, -1.0, 1.0, 1.0])


def test_fit_loglog_exact_power_law():
    t = np.geomspace(1, 1e3, 9)
    fit = fit_loglog(DecaySeries(t, 3.7 / t))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-10)


def test_fit_loglog_perturbed_power_law():
    t = np.geomspace(1, 1e4, 25)
    vals = 2.0 / t * (1 + 0.01 * np.sin(np.log(t)))
    fit = fit_loglog(DecaySeries(t, vals))
    assert fit.slope == pytest.approx(-1.0, abs=0.02)


def test_fit_loglog_constant_series():
    t = np.geomspace(1, 100, 8)
    fit = fit_loglog(DecaySeries(t, np.full(8, 5.0)))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_fit_window_too_short():
    t = np.geomspace(1, 100, 8)
    with pytest.raises(ValueError):
        fit_loglog(DecaySeries(t, 1 / t), window=(5, 8))


def test_tail_window_rules():
    assert tail_window(12) == (6, 12)
    assert tail_window(8) == (2, 8)
    assert tail_window(5) == (0, 5)


def test_rate_preconditions():
    t = np.geomspace(10, 100, 6)
    no_q = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=0.0, width=1.0)
    with pytest.raises(ValueError):
        check_moment_ratio(PARAMS, no_q)
    big_p = InitialData(amplitude_v=(1.0, 0.0), amplitude_rho=1.0, width=1.0)
    with pytest.raises(ValueError):
        check_moment_ratio(PARAMS, big_p)
    for data in (no_q, big_p):
        with pytest.raises(ValueError):
            verify_sandwich(PARAMS, data, t)


def test_rate_smoke_run():
    data = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0)
    check_moment_ratio(PARAMS, data)
    fit = fit_loglog(velocity_norm_series(PARAMS, data, np.geomspace(100, 3000, 6)))
    assert fit.slope == pytest.approx(-0.5, abs=0.05)
    assert fit.r_squared > 0.999


def test_rate_scale_shift():
    # scaling the data shifts the intercept by log(lambda), slope unchanged
    t = np.geomspace(100, 2000, 5)
    d1 = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0)
    d3 = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=3.0, width=1.0)
    f1 = fit_loglog(velocity_norm_series(PARAMS, d1, t))
    f3 = fit_loglog(velocity_norm_series(PARAMS, d3, t))
    assert f3.slope == pytest.approx(f1.slope, abs=1e-10)
    assert f3.intercept - f1.intercept == pytest.approx(math.log(3.0), abs=1e-9)


def test_sandwich_scale_equivariance():
    t = np.geomspace(50, 2000, 8)
    d1 = InitialData(amplitude_v=(0.02, 0.0), amplitude_rho=1.0, width=1.0)
    d2 = InitialData(amplitude_v=(0.04, 0.0), amplitude_rho=2.0, width=1.0)
    r1 = verify_sandwich(PARAMS, d1, t)
    r2 = verify_sandwich(PARAMS, d2, t)
    assert r2.plateau_min == pytest.approx(2 * r1.plateau_min, rel=1e-9)
    assert r2.plateau_max == pytest.approx(2 * r1.plateau_max, rel=1e-9)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)
    assert r1.passed(max_ratio=2.0) and r2.passed(max_ratio=2.0)


def test_kernel_plateaus_smoke():
    rep = verify_kernel_plateaus(PARAMS, np.array([1.0, 0.0]), np.geomspace(100, 5000, 8))
    assert rep.passed(max_ratio=4.0)
    # the heat projection plateau has the closed-form value pi/4 here
    assert rep.heat_projection.plateau_min == pytest.approx(math.pi / 4, rel=1e-6)
    assert rep.acoustic_sine.plateau_max == pytest.approx(rep.sine_limit, rel=0.02)
    with pytest.raises(ValueError):
        verify_kernel_plateaus(PARAMS, np.zeros(2), np.geomspace(10, 100, 6))


def test_highfreq_energy_report():
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    rep = highfreq_energy(PARAMS, data, np.geomspace(2.0, 30.0, 10))
    assert rep.nonincreasing
    assert rep.exp_fit.slope < 0
    assert rep.exp_fit.r_squared > 0.99
    assert rep.komornik_holds and rep.conclusion_holds
    assert rep.komornik_t0 > 0
    assert rep.passed(min_r_squared=0.99)


def test_highfreq_small_against_low_zone():
    # exponential vs polynomial separation: E_high << E_low at t >= 10
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    from nsprofile.decay import _energy_field

    for t in (10.0, 15.0):
        high = zone_norm_sq(_energy_field(PARAMS, data, t), PARAMS, t, "high").value
        low = zone_norm_sq(_energy_field(PARAMS, data, t), PARAMS, t, "low").value
        assert high <= 1e-3 * low


def test_remainder_decays_faster_than_solution():
    # fitted remainder-norm slope must sit strictly below the solution's -n/4
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    mom = moments(data)
    times = np.geomspace(64, 4096, 7)

    def remainder_norm(t):
        def f(xi):
            v, _ = solve_exact_batch(PARAMS, data, xi, t)
            return v - velocity_profile(PARAMS, mom, xi, t)
        return math.sqrt(zone_norm_sq(f, PARAMS, t, "low").value)

    rem = DecaySeries(times, np.array([remainder_norm(float(t)) for t in times]))
    sol = velocity_norm_series(PARAMS, data, times)
    assert fit_loglog(rem).slope < fit_loglog(sol).slope - 0.3


def test_highfreq_rate_stable_under_quadrature_doubling():
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    times = np.geomspace(2.0, 30.0, 10)
    # 1e-7, not tighter: the tail estimate at the default truncation radius
    # is up to ~6e-8 of the high-zone energy on this grid
    base = highfreq_energy(PARAMS, data, times)
    fine = highfreq_energy(PARAMS, data, times, rel_tol=1e-7)
    assert base.exp_fit.slope < 0 and fine.exp_fit.slope < 0
    assert abs(fine.exp_fit.slope - base.exp_fit.slope) <= 0.1 * abs(base.exp_fit.slope)


def test_ordered_map_thread_invariance():
    items = list(np.linspace(0.0, 3.0, 17))
    fn = lambda x: math.sin(x) * math.exp(-x)
    assert ordered_map(fn, items, 1) == ordered_map(fn, items, 4)
