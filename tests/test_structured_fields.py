"""Every field that the runtime integrates through its radial coefficients
(``spectral.Field``) against its pointwise formula and against the black-box
angular integrator of ``tests/oracles.py``.

A structured field is axially symmetric and quadratic in u by construction;
this seeded sweep is what checks that its coefficients are the right ones.
"""

import numpy as np
import pytest

from nsprofile.config import build_run_config
from nsprofile.decay import energy_field, projection_field, remainder_field, velocity_field
from nsprofile.model import InitialData, ModelParams, moments
from nsprofile.profiles import expansion_field, moment_defect_field, sine_correction_field
from nsprofile.quadrature import QuadratureError, default_r_max, zone_norm_sq
from nsprofile.spectral import pointwise
from oracles import black_box_norm_sq, pointwise_fields

# field -> (its builder: (params, data, t) to radii to its Field, the subcommand
# whose default grid it runs on, its zone)
FIELDS = {
    "velocity": (velocity_field, "rate", "full"),
    "energy": (energy_field, "highfreq", "high"),
    "velocity_remainder": (lambda p, d, t: remainder_field(p, d, t, "velocity"),
                           "profile-error", "low"),
    "density_remainder": (lambda p, d, t: remainder_field(p, d, t, "density"),
                          "density-profile-error", "low"),
    "moment_defect": (lambda p, d, t: lambda r: moment_defect_field(p, d, r, t),
                      "bounds", "low"),
    "sine_correction": (lambda p, d, t: lambda r: sine_correction_field(p, moments(d), r, t),
                        "bounds", "low"),
    "expansion": (lambda p, d, t: lambda r: expansion_field(p, moments(d), r, t),
                  "bounds", "low"),
    "heat_projection": (lambda p, d, t: projection_field(p, d.amplitude_v, t, "heat"),
                        "lemma31", "full"),
    "damped_cosine": (lambda p, d, t: projection_field(p, d.amplitude_v, t, "cosine"),
                      "lemma31", "full"),
}
PARTS = {"energy": "both", "density_remainder": "scalar"}  # the rest are vectors
# a difference of fields is compared at the size of the terms that it cancels
CANCELS = {"velocity_remainder": "velocity", "density_remainder": "energy",
           "expansion": "moment_flow"}
CASES = [(name, n) for name in FIELDS for n in (1, 2, 3, 4)]


def _draw(name, n):
    """Random coefficients, log-uniform on [0.1, 10], data with both moments
    (the velocity moment along e1, as the black-box integrator needs) and a
    time of the field's default grid."""
    _, sub, zone = FIELDS[name]
    rng = np.random.default_rng([sorted(FIELDS).index(name), n])
    alpha, beta, gamma = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
    params = ModelParams(alpha=alpha, beta=beta, gamma=gamma, n=n)
    data = InitialData(amplitude_v=(rng.uniform(0.1, 1.0),) + (0.0,) * (n - 1),
                       amplitude_rho=rng.uniform(0.5, 1.5), width=rng.uniform(0.5, 2.0))
    return params, data, float(rng.choice(build_run_config(sub, {}).times)), zone, rng


@pytest.mark.parametrize("name,n", CASES, ids=[f"{name}-n{n}" for name, n in CASES])
def test_assembly_matches_the_pointwise_formula(name, n):
    # radii out to where |field|^2 has fallen by e^-32 or to the zone's end
    params, data, t, zone, rng = _draw(name, n)
    r_hi = params.r_low if zone == "low" else default_r_max(params, t)
    r_hi = min(r_hi, 4.0 / np.sqrt(min(params.alpha, params.b / 2, data.width ** 2) * t))
    xi = rng.normal(size=(64, n))
    xi *= (r_hi * rng.uniform(0.01, 1.0, 64) / np.linalg.norm(xi, axis=1))[:, None]
    vector, scalar = pointwise(FIELDS[name][0](params, data, t), xi, n, data.amplitude_v)
    got = {"velocity": vector, "scalar": scalar,
           "both": np.concatenate([vector, scalar[:, None]], axis=1)}[PARTS.get(name, "velocity")]
    fields = pointwise_fields(params, data, t)
    expected = fields[name](xi)
    scale = np.max(np.abs(fields[CANCELS.get(name, name)](xi)))
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("name,n", CASES, ids=[f"{name}-n{n}" for name, n in CASES])
def test_zone_norm_matches_the_black_box_integrator(name, n):
    params, data, t, zone, _ = _draw(name, n)
    field = FIELDS[name][0](params, data, t)
    f = pointwise_fields(params, data, t)[name]
    r_max = None
    try:
        got = zone_norm_sq(lambda r: field(r).abs_sq(), params, t, zone)
    except QuadratureError:
        # the default radius can cut off mass that decays in r only through
        # the data envelope, while the tail estimate assumes a Gaussian in
        # t r^2; both must fail there, and both are compared where the
        # envelope e^{-s^2 r^2} is e^-144, the radius of the highfreq E_h(0)
        with pytest.raises(QuadratureError, match="did not converge"):
            black_box_norm_sq(f, params, t, zone)
        r_max = max(default_r_max(params, t), 12.0 / data.width)
        got = zone_norm_sq(lambda r: field(r).abs_sq(), params, t, zone, r_max=r_max)
    ref = black_box_norm_sq(f, params, t, zone, r_max=r_max)
    assert abs(got.value - ref.value) <= got.est_error + ref.est_error
