import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nsprofile import decay, replace
from nsprofile.cli import THRESHOLDS, main, run_highfreq, run_lemma31, run_sandwich
from nsprofile.config import build_run_config
from nsprofile.model import InitialData, ModelParams
from nsprofile.decay import (
    DecaySeries,
    _linear_fit,
    check_moment_ratio,
    energy_field,
    field_norm_sq,
    fit_loglog,
    highfreq_initial_energy,
    ordered_map,
    tail_window,
    velocity_field,
    zone_series,
)
from nsprofile.profiles import moment_defect_field, remainder_bounds, velocity_profile
from nsprofile.quadrature import (
    _BASE_PANELS,
    _GAUSS_GAP,
    _K15_NODES,
    _K15_WEIGHTS,
    _PANEL_ORDER,
    _SLICE_PANELS,
    DEFAULT_REL_TOL,
    _active_end,
    _gaussian_tail_bound,
    _osc_panels,
    sphere_area,
)
from nsprofile.spectral import solve_exact_batch
from oracles import black_box_norm_sq

PARAMS = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)


def run_verdict(runner, subcommand, times, data=None, **config):
    """The verdict of ``runner`` at the default config (``PARAMS``), the given
    initial data and extra config sections, on the time grid ``times``."""
    if data is not None:
        config["data"] = {"amplitude_v": list(data.amplitude_v),
                          "amplitude_rho": data.amplitude_rho, "width": data.width}
    cfg = build_run_config(subcommand, config)
    verdict, _, _ = runner(replace(cfg, times=np.asarray(times, float)))
    return verdict


def test_series_validation():
    with pytest.raises(ValueError):
        DecaySeries(times=[1.0, 2.0, 3.0], values=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        DecaySeries(times=[1.0, 2.0, 2.0, 3.0], values=[1.0, 1.0, 1.0, 1.0])
    for bad in (-1.0, 0.0, -0.0):
        with pytest.raises(ValueError, match="values must be strictly positive"):
            DecaySeries(times=[1.0, 2.0, 3.0, 4.0], values=[1.0, bad, 1.0, 1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="times and values must be finite"):
            DecaySeries(times=[1.0, 2.0, 3.0, 4.0], values=[1.0, bad, 1.0, 1.0])
        with pytest.raises(ValueError, match="times and values must be finite"):
            DecaySeries(times=[1.0, 2.0, 3.0, bad], values=[1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("times,values,error", [
    ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.nan, -1.0],
     "times and values must be finite: entry 2 has t=3, value=nan"),
    ([1.0, math.inf, 0.5, 4.0], [1.0, 2.0, 3.0, 4.0],
     "times and values must be finite: entry 1 has t=inf, value=2"),
    ([-1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0],
     "times must be ascending and positive: entry 0 has t=-1, value=1"),
    ([1.0, 2.0, 2.0, 1.0], [1.0, -2.0, 3.0, 4.0],
     "times must be ascending and positive: entry 2 has t=2, value=3"),
    ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, -0.0, 0.0],
     "values must be strictly positive: entry 2 has t=3, value=-0"),
], ids=["nan-value", "inf-time", "negative-time", "repeated-time", "zero-value"])
def test_series_validation_names_the_first_bad_entry(times, values, error):
    # the checks run in order (finite, then times, then values), and each
    # names the first entry it refuses
    with pytest.raises(ValueError) as info:
        DecaySeries(times, values)
    assert str(info.value) == error


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


def velocity_series(params, data, times, rel_tol=DEFAULT_REL_TOL):
    """The velocity norms ||v_hat(t, .)|| on ``times``, built as ``rate`` builds them."""
    norms_sq = zone_series(velocity_field, params, data, times, "full", rel_tol)
    return DecaySeries(times, np.sqrt(norms_sq))


def assert_fit_matches_polyfit(x, y):
    """``_linear_fit`` gives ``np.polyfit``'s line to 1e-12 relative, and its
    r_squared is 1 - (residual sum of squares) / (total sum of squares)."""
    fit = _linear_fit(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    assert fit.slope == pytest.approx(slope, rel=1e-12, abs=0)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=0)
    resid = y - (slope * x + intercept)
    r_squared = 1.0 - np.sum(resid**2) / np.sum((y - np.mean(y)) ** 2)
    assert fit.r_squared == pytest.approx(r_squared, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("subcommand", ["profile-error", "density-profile-error", "rate",
                                        "sandwich", "lemma31", "highfreq", "bounds"])
def test_linear_fit_matches_polyfit_on_default_grids(subcommand, n):
    cfg = build_run_config(subcommand, {"params": {"n": n}})
    series = velocity_series(cfg.params, cfg.data, cfg.times, cfg.rel_tol)
    assert_fit_matches_polyfit(np.log(series.times), np.log(series.values))


def test_linear_fit_matches_polyfit_on_noisy_lines():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = int(rng.integers(4, 60))
        x = np.sort(rng.uniform(-5.0, 15.0, m))
        slope, intercept = rng.choice([-1.0, 1.0], 2) * rng.uniform([0.25, 0.5], 3.0)
        noise = rng.normal(scale=10.0 ** rng.uniform(-4.0, -1.0), size=m)
        assert_fit_matches_polyfit(x, intercept + slope * x + noise)


def test_fit_loglog_constant_series():
    t = np.geomspace(1, 100, 8)
    fit = fit_loglog(DecaySeries(t, np.full(8, 5.0)))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


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
    # the admissible ratio |P0|/|Q0| is 0.1: on either side of it, at three Q0
    for p, q in ((0.099, 1.0), (0.198, 2.0), (0.0495, -0.5)):
        check_moment_ratio(PARAMS, InitialData(amplitude_v=(p, 0.0), amplitude_rho=q,
                                               width=1.0))
    for p, q in ((0.101, 1.0), (0.202, 2.0), (0.0505, -0.5)):
        with pytest.raises(ValueError, match=r"^\|P0\|/\|Q0\| = 0\.101 exceeds the "
                                             r"admissible ratio 0\.1$"):
            check_moment_ratio(PARAMS, InitialData(amplitude_v=(p, 0.0), amplitude_rho=q,
                                                   width=1.0))
    # the all-zero data are refused by the config, the others by the run
    for data, reason in ((no_q, "initial data are zero"), (big_p, "exceeds the admissible")):
        with pytest.raises(ValueError, match=reason):
            run_verdict(run_sandwich, "sandwich", t, data)


PARAMS_3D = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=3)
DATA_2D = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)


@pytest.mark.parametrize("call", [
    lambda: zone_series(velocity_field, PARAMS_3D, DATA_2D, np.geomspace(10, 100, 4), "full",
                        DEFAULT_REL_TOL),
    lambda: zone_series(moment_defect_field, PARAMS_3D, DATA_2D, [10.0], "low",
                        DEFAULT_REL_TOL),
    lambda: remainder_bounds(PARAMS_3D, DATA_2D, 10.0),
], ids=["zone_series-velocity", "zone_series", "remainder_bounds"])
def test_library_calls_reject_a_datum_of_another_dimension(call):
    # the config rejects such a datum before a CLI run; a library call must too
    with pytest.raises(ValueError, match=r"^data dimension 2 != params dimension 3$"):
        call()


def test_rate_smoke_run():
    data = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0)
    check_moment_ratio(PARAMS, data)
    fit = fit_loglog(velocity_series(PARAMS, data, np.geomspace(100, 3000, 6)))
    assert fit.slope == pytest.approx(-0.5, abs=0.05)
    assert fit.r_squared > 0.999


def test_rate_scale_shift():
    # scaling the data shifts the intercept by log(lambda), slope unchanged
    t = np.geomspace(100, 2000, 5)
    d1 = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0)
    d3 = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=3.0, width=1.0)
    f1 = fit_loglog(velocity_series(PARAMS, d1, t))
    f3 = fit_loglog(velocity_series(PARAMS, d3, t))
    assert f3.slope == pytest.approx(f1.slope, abs=1e-10)
    assert f3.intercept - f1.intercept == pytest.approx(math.log(3.0), abs=1e-9)


def test_sandwich_scale_equivariance():
    t = np.geomspace(50, 2000, 8)
    d1 = InitialData(amplitude_v=(0.02, 0.0), amplitude_rho=1.0, width=1.0)
    d2 = InitialData(amplitude_v=(0.04, 0.0), amplitude_rho=2.0, width=1.0)
    v1 = run_verdict(run_sandwich, "sandwich", t, d1)
    v2 = run_verdict(run_sandwich, "sandwich", t, d2)
    r1, r2 = v1["metrics"], v2["metrics"]
    assert r2["plateau_min"] == pytest.approx(2 * r1["plateau_min"], rel=1e-9)
    assert r2["plateau_max"] == pytest.approx(2 * r1["plateau_max"], rel=1e-9)
    assert r2["ratio"] == pytest.approx(r1["ratio"], rel=1e-9)
    assert r1["max_ratio"] == 2.0 and v1["pass"] and v2["pass"]


def test_kernel_plateaus_smoke():
    # the default lemma31 data have the moment direction p0 = (1, 0)
    times = np.geomspace(100, 5000, 8)
    cfg = replace(build_run_config("lemma31", {}), times=times)
    assert cfg.data == InitialData((1.0, 0.0), 1.0, 1.0)
    verdict, columns, _ = run_lemma31(cfg)
    items = verdict["metrics"]["items"]
    assert verdict["metrics"]["max_ratio"] == 4.0 and verdict["pass"]
    # the heat projection, scaled by t^(n/2), has the closed-form value pi/4 here
    assert np.min(columns["heat_scaled"]) == pytest.approx(math.pi / 4, rel=1e-6)
    assert items["acoustic-sine"]["plateau_max"] == pytest.approx(
        verdict["metrics"]["sine_limit"], rel=0.02)
    with pytest.raises(ValueError, match="nonzero moment vector"):
        run_verdict(run_lemma31, "lemma31", np.geomspace(10, 100, 6),
                    InitialData((0.0, 0.0), 1.0, 1.0))


def test_highfreq_energy_report():
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    verdict = run_verdict(run_highfreq, "highfreq", np.geomspace(2.0, 30.0, 10), data)
    rep = verdict["metrics"]
    assert rep["nonincreasing"]
    assert rep["slope"] < 0
    assert rep["r_squared"] > 0.99
    assert rep["conclusion_holds"]
    assert rep["komornik_t0"] > 0
    assert THRESHOLDS["highfreq_min_r_squared"] == 0.99 and verdict["pass"]


def _gauss_legendre_high_zone_mass(n, s, r_low, panels=400, order=20):
    """int_{r_low}^{r_low + 40/s} r^(n-1) e^(-s^2 r^2) dr by panel-wise
    Gauss-Legendre; past the upper end the integrand is below e^-1600."""
    nodes, weights = leggauss(order)
    edges = np.linspace(r_low, r_low + 40.0 / s, panels + 1)
    half = 0.5 * np.diff(edges)
    r = ((edges[:-1] + half)[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return float(np.sum(w * r ** (n - 1) * np.exp(-(s * r) ** 2)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16])
def test_highfreq_initial_energy_matches_gauss_legendre(n):
    # E_h(0) = (|P0|^2 + Q0^2)/2 |S^(n-1)| int_{r_low}^inf r^(n-1) e^(-s^2 r^2) dr
    rng = np.random.default_rng([18, n])
    for _ in range(8):
        alpha, beta, gamma = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
        params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=n)
        direction = rng.normal(size=n)
        p0 = rng.uniform(0.0, 0.1) * direction / np.linalg.norm(direction)
        data = InitialData(amplitude_v=tuple(p0), amplitude_rho=rng.uniform(0.5, 1.5),
                           width=float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))
        mass = float(np.dot(p0, p0)) + data.amplitude_rho ** 2
        expected = 0.5 * mass * sphere_area(n) * _gauss_legendre_high_zone_mass(
            n, data.width, params.r_low)
        assert highfreq_initial_energy(params, data) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("width", [1e-3, 1e3])
def test_highfreq_initial_energy_at_extreme_widths(n, width):
    params = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=n)
    data = InitialData(amplitude_v=(0.05,) + (0.0,) * (n - 1), amplitude_rho=1.0, width=width)
    e_h0 = highfreq_initial_energy(params, data)
    assert math.isfinite(e_h0) and e_h0 >= 0.0


def test_highfreq_small_against_low_zone():
    # exponential vs polynomial separation: E_high << E_low at t >= 10
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    for t in (10.0, 15.0):
        high = field_norm_sq(energy_field, PARAMS, data, t, "high", DEFAULT_REL_TOL).value
        low = field_norm_sq(energy_field, PARAMS, data, t, "low", DEFAULT_REL_TOL).value
        assert high <= 1e-3 * low


def test_remainder_decays_faster_than_solution():
    # fitted remainder-norm slope must sit strictly below the solution's -n/4
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    times = np.geomspace(64, 4096, 7)

    def remainder_norm(t):
        def f(xi):
            v, _ = solve_exact_batch(PARAMS, data, xi, t)
            return v - velocity_profile(PARAMS, data, xi, t)
        return math.sqrt(black_box_norm_sq(f, PARAMS, t, "low").value)

    rem = DecaySeries(times, np.array([remainder_norm(float(t)) for t in times]))
    sol = velocity_series(PARAMS, data, times)
    assert fit_loglog(rem).slope < fit_loglog(sol).slope - 0.3


def test_highfreq_rate_stable_under_quadrature_doubling():
    data = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
    times = np.geomspace(2.0, 30.0, 10)
    # 1e-7, not tighter: the tail estimate at the default truncation radius
    # is up to ~6e-8 of the high-zone energy on this grid
    base = run_verdict(run_highfreq, "highfreq", times, data)["metrics"]["slope"]
    fine = run_verdict(run_highfreq, "highfreq", times, data,
                       quadrature={"rel_tol": 1e-7})["metrics"]["slope"]
    assert base < 0 and fine < 0
    assert abs(fine - base) <= 0.1 * abs(base)


def test_ordered_map_thread_invariance():
    items = list(np.linspace(0.0, 3.0, 17))
    fn = lambda x: math.sin(x) * math.exp(-x)
    assert ordered_map(fn, items, 1) == ordered_map(fn, items, 4)
    # more threads than items, and no items at all
    assert ordered_map(fn, items[:3], 8) == ordered_map(fn, items[:3], 1)
    assert ordered_map(fn, [], 4) == []


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_ordered_map_raises_the_first_failure_in_input_order(threads):
    # items 5 and 6 fail, the later one at once and the earlier one after a
    # pause: the first failure in input order is raised at any thread count
    def fn(i):
        if i == 5:
            time.sleep(0.05)
            raise ValueError("item 5")
        if i == 6:
            raise KeyError("item 6")
        return i

    with pytest.raises(ValueError, match="item 5"):
        ordered_map(fn, range(12), threads)


VERDICTS = ("profile-error", "density-profile-error", "rate", "sandwich", "lemma31",
            "highfreq", "bounds")
# config, threads and the radii that the 102 zone norms of the 7 verdicts evaluate
PINNED_WORK = {"n2": ({}, 1, 149_751),
               "n3-t2": ({"params": {"n": 3}}, 2, 151_821),
               "n3-offaxis": ({"params": {"n": 3}, "data": {"amplitude_v": [0.03, 0.04, 0.0]}},
                              2, 161_526)}


@pytest.mark.parametrize("case", list(PINNED_WORK))
def test_default_verdicts_keep_their_quadrature_work(case, tmp_path, monkeypatch):
    # every verdict takes its zone norms through decay.zone_norm_sq: their
    # number, radii and levels pin the layout that each kernel is integrated on
    config, threads, radii = PINNED_WORK[case]
    norms = []
    integrate = decay.zone_norm_sq

    def recorded(*args, **kwargs):
        norm = integrate(*args, **kwargs)
        norms.append(norm)
        return norm

    monkeypatch.setattr(decay, "zone_norm_sq", recorded)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for sub in VERDICTS:
        assert main([sub, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--threads", str(threads)]) == 0
    assert len(norms) == 102
    assert sum(norm.points for norm in norms) == radii
    assert all(norm.level == 0 for norm in norms)


@pytest.mark.parametrize("amplitude_v", [(0.0, 0.0), (0.03, 0.04)], ids=["p0-zero", "p0"])
def test_field_norm_sq_evaluates_bounded_batches_with_the_bits_of_one(amplitude_v):
    # rate's full-zone norm at t = 1e4 lays out 5,115 radii at level 0, which
    # zone_norm_sq hands the field in slices of at most _SLICE_PANELS panels:
    # the radii are those of np.linspace panel edges, and the norm keeps the
    # bits of one K15 sum, with its |K15 - G7| estimate, over the whole level
    data = InitialData(amplitude_v=amplitude_v, amplitude_rho=1.0, width=1.0)
    t, n, calls = 1e4, PARAMS.n, []

    def velocity(params, data, r, t):
        calls.append(r)
        return velocity_field(params, data, r, t)

    norm = field_norm_sq(velocity, PARAMS, data, t, "full", DEFAULT_REL_TOL)
    probe, radii = calls[0], np.concatenate(calls[1:])
    assert radii.size == 5115 and norm.points == probe.size + radii.size and norm.level == 0
    assert max(r.size for r in calls) == _SLICE_PANELS * _PANEL_ORDER

    area, r_max = sphere_area(n), probe[-1]
    mean, peak = velocity_field(PARAMS, data, probe, t).sphere_mean_max(n)
    split = _active_end(probe[:-1], (area * mean * probe ** (n - 1))[:-1], 0.0, r_max)
    layout = [(0.0, split, _osc_panels(PARAMS.gamma * t, split)), (split, r_max, _BASE_PANELS)]
    nodes, weights = [], []
    for lo, hi, panels in layout:
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (hi - lo) / panels
        nodes.append((0.5 * (edges[:-1] + edges[1:])[:, None] + half * _K15_NODES).ravel())
        weights.append(np.tile(half * _K15_WEIGHTS, panels))
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    np.testing.assert_array_equal(radii, nodes)
    whole = velocity_field(PARAMS, data, nodes, t).sphere_mean_max(n)[0]
    terms = area * whole * nodes ** (n - 1) * weights
    gaps = (terms.reshape(-1, _PANEL_ORDER) * _GAUSS_GAP).sum(axis=1)
    lam = min(2.0 * PARAMS.alpha, PARAMS.b) * t
    tail = float(peak[-1]) * area * _gaussian_tail_bound(r_max, lam, n)
    assert norm.value.hex() == float(np.sum(terms)).hex()
    assert norm.est_error.hex() == (float(np.abs(gaps).sum()) + tail).hex()
