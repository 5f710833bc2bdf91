"""Every field that the runtime integrates through its radial coefficients
(``spectral.Field``) against its pointwise formula and against the black-box
angular integrator of ``tests/oracles.py``, the closed-form heat and
damped-cosine items of ``lemma31`` against the black-box norms of their
pointwise fields, each field that a truncated zone integrates against its
Gaussian envelope, and the sphere means against the sum of their P0 and Q0
parts.

A structured field is axially symmetric and quadratic in u by construction;
this seeded sweep is what checks that its coefficients are the right ones.
"""

import math
import random
from functools import partial

import numpy as np
import pytest

from nsprofile import decay, quadrature, replace
from nsprofile.cli import run_lemma31
from nsprofile.config import build_run_config
from nsprofile.decay import (
    energy_field,
    field_norm_sq,
    remainder_field,
    velocity_field,
)
from nsprofile.model import InitialData, ModelParams
from nsprofile.profiles import (
    expansion_field,
    moment_defect_field,
    moment_field,
    profile_field,
    sine_correction_field,
)
from nsprofile.quadrature import DEFAULT_REL_TOL, QuadratureError, default_r_max, zone_norm_sq
from nsprofile.spectral import exact_field, flow, pointwise
from oracles import black_box_norm_sq, pointwise_fields

# field -> (its function (params, data, r, t) to its Field, the subcommand whose
# default grid it runs on, its zone)
FIELDS = {
    "velocity": (velocity_field, "rate", "full"),
    "energy": (energy_field, "highfreq", "high"),
    "velocity_remainder": (partial(remainder_field, component="velocity"),
                           "profile-error", "low"),
    "density_remainder": (partial(remainder_field, component="density"),
                          "density-profile-error", "low"),
    "moment_defect": (moment_defect_field, "bounds", "low"),
    "sine_correction": (sine_correction_field, "bounds", "low"),
    "expansion": (expansion_field, "bounds", "low"),
}
# the lemma31 items that are full-zone norms of a projection field, by their
# t^{n/2}-scaled column; they run on the lemma31 grid
KERNEL_ITEMS = {"heat_projection": "heat_scaled", "damped_cosine": "cosine_scaled"}
# a case's seed is its name's index here, so that no case is re-drawn
SEED_NAMES = sorted([*FIELDS, *KERNEL_ITEMS])
_ROUNDING = 8 * np.finfo(float).eps  # relative rounding of a closed-form Gaussian integral
_UNSCALING = 2 * np.finfo(float).eps  # relative rounding of (value * scale) / scale
PARTS = {"energy": "both", "density_remainder": "scalar"}  # the rest are vectors
# a difference of fields is compared at the size of the terms that it cancels
CANCELS = {"velocity_remainder": "velocity", "density_remainder": "energy",
           "expansion": "moment_flow"}
ASSEMBLY_CASES = [(name, n) for name in FIELDS for n in (2, 3, 4)]
CASES = [(name, n) for name in [*FIELDS, *KERNEL_ITEMS] for n in (2, 3, 4)]


def _draw(name, n):
    """Random coefficients, log-uniform on [0.1, 10], data with both moments
    (the velocity moment along e1, as the black-box integrator needs) and a
    time of the field's default grid."""
    sub, zone = FIELDS[name][1:] if name in FIELDS else ("lemma31", "full")
    rng = np.random.default_rng([SEED_NAMES.index(name), n])
    alpha, beta, gamma = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
    params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=n)
    data = InitialData(amplitude_v=(rng.uniform(0.1, 1.0),) + (0.0,) * (n - 1),
                       amplitude_rho=rng.uniform(0.5, 1.5), width=rng.uniform(0.5, 2.0))
    return params, data, float(rng.choice(build_run_config(sub, {}).times)), zone, rng


@pytest.mark.parametrize("name,n", ASSEMBLY_CASES,
                         ids=[f"{name}-n{n}" for name, n in ASSEMBLY_CASES])
def test_assembly_matches_the_pointwise_formula(name, n):
    # radii out to where |field|^2 has fallen by e^-32 or to the zone's end
    params, data, t, zone, rng = _draw(name, n)
    r_hi = params.r_low if zone == "low" else default_r_max(params, t)
    r_hi = min(r_hi, 4.0 / np.sqrt(min(params.alpha, params.b / 2, data.width ** 2) * t))
    xi = rng.normal(size=(64, n))
    xi *= (r_hi * rng.uniform(0.01, 1.0, 64) / np.linalg.norm(xi, axis=1))[:, None]
    vector, scalar = pointwise(FIELDS[name][0], params, data, xi, t)
    got = {"velocity": vector, "scalar": scalar,
           "both": np.concatenate([vector, scalar[:, None]], axis=1)}[PARTS.get(name, "velocity")]
    fields = pointwise_fields(params, data, t)
    expected = fields[name](xi)
    scale = np.max(np.abs(fields[CANCELS.get(name, name)](xi)))
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * scale)


def test_field_coefficients_are_real():
    # b0 and c1 are the real coefficients of i, so no complex array reaches
    # the radial integrands
    params, data, t, _, _ = _draw("velocity", 3)
    r = params.r_low * np.linspace(0.0, 1.0, 17)[1:]
    fields = {"flow": flow(params, r, t, data.p0_norm, data.amplitude_rho),
              "exact_field": exact_field(params, data, r, t),
              "profile_field": profile_field(params, data, r, t),
              "sine_correction_field": sine_correction_field(params, data, r, t),
              "moment_defect_field": moment_defect_field(params, data, r, t),
              "expansion_field": expansion_field(params, data, r, t)}
    for name, field in fields.items():
        for coefficient, value in field._asdict().items():
            assert isinstance(value, (float, np.ndarray)), (name, coefficient)
            assert np.asarray(value).dtype == np.float64, (name, coefficient)


@pytest.mark.parametrize("name,n", CASES, ids=[f"{name}-n{n}" for name, n in CASES])
def test_zone_norm_matches_the_black_box_integrator(name, n, monkeypatch):
    params, data, t, zone, _ = _draw(name, n)
    f = pointwise_fields(params, data, t)[name]
    if name in KERNEL_ITEMS:
        value, est_error = _kernel_item(name, params, data, t, monkeypatch)
        ref = black_box_norm_sq(f, params, t, zone)
        assert abs(value - ref.value) <= est_error + ref.est_error
        return
    field = FIELDS[name][0]
    try:
        got = field_norm_sq(field, params, data, t, zone, DEFAULT_REL_TOL)
    except QuadratureError:
        # the default radius can cut off mass that decays in r only through
        # the data envelope, while the tail estimate assumes a Gaussian in
        # t r^2; both must fail there, and both are compared where the
        # envelope e^{-s^2 r^2} is e^-144
        with pytest.raises(QuadratureError, match="did not converge"):
            black_box_norm_sq(f, params, t, zone)
        r_max = max(default_r_max(params, t), 12.0 / data.width)
        monkeypatch.setattr(quadrature, "default_r_max", lambda params, t: r_max)
        got = field_norm_sq(field, params, data, t, zone, DEFAULT_REL_TOL)
    ref = black_box_norm_sq(f, params, t, zone)
    assert abs(got.value - ref.value) <= got.est_error + ref.est_error


def _kernel_item(name, params, data, t, monkeypatch):
    """``lemma31``'s item ``name`` at t, its scaled column over the scale, and
    its error: the rounding of its Gaussian integral G and of the unscaling
    and, for the cosine item |p0|^2/n (G(b, t) - K_sin), |p0|^2/n times the
    sine kernel's estimate."""
    sine_norms = []

    def recorded(*args, **kwargs):
        sine_norms.append(zone_norm_sq(*args, **kwargs))
        return sine_norms[-1]

    monkeypatch.setattr(decay, "zone_norm_sq", recorded)
    cfg = replace(build_run_config("lemma31", {}), params=params, data=data,
                  times=np.array([t]))
    _, columns, _ = run_lemma31(cfg)
    value = float((columns[KERNEL_ITEMS[name]] / cfg.times ** (params.n / 2))[0])
    (sine,) = sine_norms
    share = float(np.dot(data.amplitude_v, data.amplitude_v)) / params.n
    if name == "heat_projection":
        return value, (_ROUNDING + _UNSCALING) * value
    error = share * (_ROUNDING * (value / share + sine.value) + sine.est_error)
    return value, error + _UNSCALING * value


# field that a truncated zone integrates -> (its function (params, data, r, t)
# to its Field, its Gaussian envelope (M, lambda) at (params, data, t)): the
# sphere mean of |f|^2 is at most M e^(-lambda r^2) at every radius r.  The flow
# does not increase |v_hat|^2 + |rho_hat|^2, which start at (|P0|^2 + Q0^2)
# e^(-s^2 r^2); the profile's heat, sine and cosine decay as e^(-alpha r^2 t)
# and e^(-b r^2 t / 2)
ENVELOPES = {
    "velocity": (velocity_field, lambda params, data, t: (data.mass_sq, data.width ** 2)),
    "energy": (energy_field, lambda params, data, t: (data.mass_sq / 2, data.width ** 2)),
    "profile": (partial(profile_field, scalar=False),
                lambda params, data, t: (data.mass_sq, min(2 * params.alpha, params.b) * t)),
}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _moment_draw(rng, n):
    """Coefficients log-uniform on [0.1, 10], a width on [0.5, 2], and a unit
    velocity moment direction with |P0| and |Q0| log-uniform on [1e-3, 1]."""
    params = ModelParams(*(_log_uniform(rng, 0.1, 10.0) for _ in range(3)), n=n)
    direction = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    direction /= np.linalg.norm(direction)
    p0 = _log_uniform(rng, 1e-3, 1.0) * direction
    q0 = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-3, 1.0)
    return params, InitialData(tuple(p0), q0, rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("name", ENVELOPES)
def test_truncated_zone_field_stays_under_its_gaussian_envelope(name):
    field, envelope = ENVELOPES[name]
    rng = random.Random(7)
    for _ in range(300):
        params, data = _moment_draw(rng, rng.choice((2, 3, 5, 8, 16)))
        t = _log_uniform(rng, 0.5, 1e4)
        r = np.linspace(1e-4, 12.0 / data.width, 400)
        mean = field(params, data, r, t).sphere_mean_max(params.n)[0]
        m, rate = envelope(params, data, t)
        assert np.all(mean <= m * np.exp(-rate * (r * r)) * (1 + 1e-12)), (params, data, t)


# every field whose sphere mean is taken on its own, not as a difference of
# fields that cancel, by its function (params, data, r, t) to its Field
MOMENT_FIELDS = {
    "exact": exact_field, "velocity": velocity_field, "energy": energy_field,
    "profile": profile_field, "moment": moment_field, "moment_defect": moment_defect_field,
    "sine_correction": sine_correction_field,
}


@pytest.mark.parametrize("name", MOMENT_FIELDS)
def test_sphere_mean_has_no_cross_term_between_the_moments(name):
    # a, b1 and c1 take P0 and b0 and c0 take Q0 (Field.from_factors), and the
    # sphere mean pairs no P0 coefficient with a Q0 one: the mean at (P0, Q0)
    # is |P0|^2 times that at (P0/|P0|, 0) plus Q0^2 times that at (0, 1)
    field = MOMENT_FIELDS[name]
    rng = random.Random(24)
    for _ in range(200):
        params, data = _moment_draw(rng, rng.choice((2, 3, 5, 8)))
        t = rng.uniform(1.0, 1e3)
        r_hi = params.delta0 if name == "moment_defect" else 4.0 * params.delta0
        r = r_hi * np.linspace(0.0, 1.0, 65)[1:]
        unit_p = replace(data, amplitude_v=tuple(np.array(data.amplitude_v) / data.p0_norm),
                         amplitude_rho=0.0)
        unit_q = replace(data, amplitude_v=(0.0,) * params.n, amplitude_rho=1.0)
        mean = {d: field(params, d, r, t).sphere_mean_max(params.n)[0]
                for d in (data, unit_p, unit_q)}
        parts = data.p0_sq * mean[unit_p] + data.amplitude_rho ** 2 * mean[unit_q]
        # a subnormal mean has no relative precision to compare
        np.testing.assert_allclose(mean[data], parts, rtol=1e-14, atol=np.finfo(float).tiny)
