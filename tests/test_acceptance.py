"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Quantitative exponents and tolerances are pinned here; the runs are desk
scale (seconds to a couple of minutes in total).
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from nsprofile.cli import main as cli_main
from nsprofile.decay import (
    check_moment_ratio,
    fit_loglog,
    highfreq_energy,
    remainder_series,
    sine_kernel_integral,
    velocity_norm_series,
    verify_kernel_plateaus,
    verify_sandwich,
)
from nsprofile.model import InitialData, ModelParams, moments
from nsprofile.quadrature import cone_cap_area, sphere_area
from nsprofile.spectral import solve_exact_batch, solve_ode_oracle_batch
from oracles import ab_decomposition

P2 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
P3 = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=3)
DATA2 = InitialData(amplitude_v=(0.1, 0.0), amplitude_rho=1.0, width=1.0)
DATA3 = InitialData(amplitude_v=(0.1, 0.0, 0.0), amplitude_rho=1.0, width=1.0)

REMAINDER_TIMES = np.geomspace(16.0, 16384.0, 11)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_01_oracle_equivalence():
    # closed form vs RK4 (step 1e-4) on a 10x10 grid straddling the resonance
    radii = np.sort(np.concatenate([
        np.geomspace(0.05, 5.0, 8), [P2.delta0 * 0.999, P2.delta0 * 1.001]]))
    times = np.geomspace(0.1, 20.0, 10)
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for t in times:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=radii.size)
        xi = radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        v_e, r_e = solve_exact_batch(P2, DATA2, xi, float(t))
        v_o, r_o = solve_ode_oracle_batch(P2, DATA2, xi, float(t), step=1e-4)
        exact = np.concatenate([v_e, r_e[:, None]], axis=1)
        oracle = np.concatenate([v_o, r_o[:, None]], axis=1)
        rel = np.linalg.norm(exact - oracle, axis=1) / np.linalg.norm(exact, axis=1)
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - start
    report("oracle equivalence",
           worst <= 1e-8 and elapsed < 30.0,
           f"max rel err {worst:.3e} <= 1e-8, runtime {elapsed:.1f}s < 30s")


@pytest.mark.parametrize("params,data,threshold", [
    (P2, DATA2, -1.9),
    (P3, DATA3, -2.4),
], ids=["n2", "n3"])
def test_02_velocity_remainder_rate(params, data, threshold):
    start = time.perf_counter()
    series = remainder_series(params, data, REMAINDER_TIMES, "velocity")
    fit = fit_loglog(series)
    elapsed = time.perf_counter() - start
    report(f"velocity remainder rate n={params.n}",
           fit.slope <= threshold and elapsed < 300.0,
           f"slope {fit.slope:.4f} <= {threshold}, runtime {elapsed:.1f}s < 300s")


def test_03_density_remainder_rate():
    series = remainder_series(P2, DATA2, REMAINDER_TIMES, "density")
    fit = fit_loglog(series)
    report("density remainder rate n=2", fit.slope <= -1.9,
           f"slope {fit.slope:.4f} <= -1.9")


@pytest.mark.parametrize("params,data,expected", [
    (P2, InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0), -0.50),
    (P3, InitialData(amplitude_v=(0.0, 0.0, 0.0), amplitude_rho=1.0, width=1.0), -0.75),
], ids=["n2", "n3"])
def test_04_velocity_decay_rate(params, data, expected):
    check_moment_ratio(params, data)
    fit = fit_loglog(velocity_norm_series(params, data, np.geomspace(100.0, 1.0e4, 11)))
    report(f"velocity decay rate n={params.n}",
           abs(fit.slope - expected) <= 0.05,
           f"slope {fit.slope:.4f} = {expected} +/- 0.05")


def test_05_velocity_sandwich():
    times = np.geomspace(100.0, 1.0e4, 12)
    small_p = InitialData(amplitude_v=(0.05, 0.0), amplitude_rho=1.0, width=1.0)
    rep = verify_sandwich(P2, small_p, times)
    ok_two_sided = rep.plateau_min > 0 and rep.ratio <= 2.0

    pure_q = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0)
    rep0 = verify_sandwich(P2, pure_q, times)
    expected = math.sqrt(math.pi) / 2.0  # sqrt of the sine-kernel plateau pi/4
    last = float(rep0.scaled_values[-1])
    ok_value = abs(last - expected) / expected <= 0.05
    report("velocity sandwich",
           ok_two_sided and ok_value,
           f"ratio {rep.ratio:.4f} <= 2, plateau_min {rep.plateau_min:.4f} > 0, "
           f"normalized at t=1e4: {last:.4f} vs {expected:.4f} within 5%")


@pytest.mark.parametrize("params", [P2, P3], ids=["n2", "n3"])
def test_06_sine_kernel_limit(params):
    n = params.n
    t = 1.0e4
    value = t ** (n / 2) * sine_kernel_integral(params, t)
    s0 = math.gamma(n / 2) / 2.0
    expected = 0.5 * s0 * sphere_area(n) * params.b ** (-n / 2)
    rel = abs(value - expected) / expected
    report(f"sine kernel limit n={n}", rel <= 0.02,
           f"t^(n/2) I(t) = {value:.6f} vs {expected:.6f} (rel {rel:.2e} <= 2%)")


@pytest.mark.parametrize("params,p0,cap", [
    (P2, np.array([1.0, 0.0]), 2.0 * math.pi / 3.0),
    (P3, np.array([1.0, 0.0, 0.0]), math.pi),
], ids=["n2", "n3"])
def test_07_kernel_plateaus(params, p0, cap):
    rep = verify_kernel_plateaus(params, p0, np.geomspace(100.0, 1.0e4, 12))
    heat_ok = rep.heat_projection.passed(4.0)
    cos_ok = rep.damped_cosine.passed(4.0)
    cap_ok = cone_cap_area(params.n) == pytest.approx(cap, rel=1e-14)
    report(f"kernel plateaus n={params.n}",
           heat_ok and cos_ok and rep.witness_ok and cap_ok,
           f"heat ratio {rep.heat_projection.ratio:.3f} <= 4, "
           f"cosine ratio {rep.damped_cosine.ratio:.3f} <= 4, "
           f"cone witness ok (cap {cap:.6f})")


def test_08_highfreq_energy():
    rep = highfreq_energy(P2, DATA2, np.geomspace(2.0, 40.0, 12))
    ok = rep.passed(min_r_squared=0.99)
    report("high-frequency energy",
           ok,
           f"nonincreasing {rep.nonincreasing}, slope {rep.exp_fit.slope:.3f} < 0, "
           f"r2 {rep.exp_fit.r_squared:.4f} >= 0.99, T0 {rep.komornik_t0:.2f}, "
           f"averaged-energy and exponential-conclusion checks hold")


def _dissipation_integral(params, data, xi, s, t, panels):
    nodes, wts = leggauss(8)
    edges = np.linspace(s, t, panels + 1)
    r2 = float(xi @ xi)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        tt = 0.5 * (nodes + 1.0) * (hi - lo) + lo
        for t_k, w_k in zip(tt, 0.5 * (hi - lo) * wts):
            v, _ = solve_exact_batch(params, data, xi[None, :], float(t_k))
            total += w_k * (params.alpha * r2 * float(np.sum(np.abs(v[0]) ** 2))
                            + params.beta * abs(np.sum(xi * v[0])) ** 2)
    return total


def test_09_energy_dissipation_balance():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        r = float(np.exp(rng.uniform(math.log(0.1), math.log(3.0))))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        xi = r * np.array([math.cos(theta), math.sin(theta)])
        s = float(rng.uniform(0.1, 5.0))
        t = s + float(rng.uniform(0.5, 5.0))

        def energy_at(tt):
            v, rho = solve_exact_batch(P2, DATA2, xi[None, :], tt)
            return 0.5 * (abs(rho[0]) ** 2 + float(np.sum(np.abs(v[0]) ** 2)))

        drop = energy_at(s) - energy_at(t)
        panels = max(16, int(np.ceil(8 * 2 * P2.gamma * r * (t - s) / (2 * math.pi))))
        coarse = _dissipation_integral(P2, DATA2, xi, s, t, panels)
        fine = _dissipation_integral(P2, DATA2, xi, s, t, 2 * panels)
        assert abs(fine - coarse) <= 1e-9 * abs(drop)  # quadrature resolved
        worst = max(worst, abs(fine - drop) / abs(drop))
    report("energy dissipation balance", worst <= 1e-6,
           f"max rel imbalance {worst:.2e} <= 1e-6 over 20 random (xi, S, T)")


def test_10_moment_remainder_bounds():
    versine_max = 0.724611
    worst = -math.inf
    for params, data in ((P2, DATA2), (P3, DATA3)):
        mom = moments(data)
        # 250 radii x 4 random directions, drawn in the same order as a
        # per-point loop would draw them
        r = np.repeat(np.geomspace(1e-3, 50.0, 250), 4)
        direction = np.random.default_rng(7).normal(size=(r.size, params.n))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        dec = ab_decomposition(data, r[:, None] * direction)
        worst = max(
            worst,
            float(np.max(np.abs(dec.A0) - versine_max * r[:, None] * mom.l11_v)),
            float(np.max(np.abs(dec.A_rho) - versine_max * r * mom.l11_rho)),
        )
    report("moment remainder bounds", worst <= 1e-9,
           f"worst violation {worst:.2e} <= 1e-9 over 2000 sampled points")


def test_11_csv_determinism_across_threads(tmp_path):
    cfg = {"data": {"amplitude_v": [0.1, 0.0]},
           "time_grid": {"t_min": 16.0, "t_max": 16384.0, "points": 11}}
    cfg_path = tmp_path / "c2.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        code = cli_main(["profile-error", "--config", str(cfg_path),
                         "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outputs.append((out / "profile-error.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("csv determinism across threads", ok,
           "profile-error CSV byte-identical for 1, 4, 8 threads")
