"""Every field that the runtime integrates through its radial coefficients
(``spectral.Field``) against its pointwise formula and against the black-box
angular integrator of ``tests/oracles.py``, and the closed-form heat and
damped-cosine items of ``kernel_series`` against the black-box norms of their
pointwise fields.

A structured field is axially symmetric and quadratic in u by construction;
this seeded sweep is what checks that its coefficients are the right ones.
"""

from functools import partial

import numpy as np
import pytest

from nsprofile.config import build_run_config
from nsprofile import decay, quadrature
from nsprofile.decay import (
    energy_field,
    field_norm_sq,
    kernel_series,
    remainder_field,
    velocity_field,
)
from nsprofile.model import InitialData, ModelParams
from nsprofile.profiles import (
    expansion_field,
    moment_defect_field,
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
# the items of kernel_series' (heat, sine, cosine, witness) that are full-zone
# norms of a projection field, by their index; they run on the lemma31 grid
KERNEL_ITEMS = {"heat_projection": 0, "damped_cosine": 2}
# a case's seed is its name's index here, so that no case is re-drawn
SEED_NAMES = sorted([*FIELDS, *KERNEL_ITEMS])
_ROUNDING = 8 * np.finfo(float).eps  # relative rounding of a closed-form Gaussian integral
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
    vector, scalar = pointwise(lambda r: FIELDS[name][0](params, data, r, t), xi, n,
                               data.amplitude_v)
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
    """``kernel_series``' item ``name`` at t and its error: the rounding of its
    Gaussian integral G and, for the cosine item |p0|^2/n (G(b, t) - K_sin),
    |p0|^2/n times the sine kernel's estimate."""
    sine_norms = []

    def recorded(*args, **kwargs):
        sine_norms.append(zone_norm_sq(*args, **kwargs))
        return sine_norms[-1]

    monkeypatch.setattr(decay, "zone_norm_sq", recorded)
    value = float(kernel_series(params, data, [t])[KERNEL_ITEMS[name]][0])
    (sine,) = sine_norms
    share = float(np.dot(data.amplitude_v, data.amplitude_v)) / params.n
    if name == "heat_projection":
        return value, _ROUNDING * value
    return value, share * (_ROUNDING * (value / share + sine.value) + sine.est_error)
