import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import optimize, special

from nsprofile import replace
from nsprofile.config import build_run_config
from nsprofile.decay import DecaySeries
from nsprofile.model import (
    VERSINE_RATIO,
    InitialData,
    ModelParams,
    ParameterError,
    fourier_data_batch,
    l11_weight,
)
from nsprofile.quadrature import ZoneNorm
from nsprofile.reporting import AxesSpec
from oracles import ABDecomposition, ab_decomposition, l11_norm_radial_quadrature


def test_records_that_hold_arrays_compare_by_value():
    # a field that holds an array compares element by element, and arrays of
    # other shapes are unequal rather than a broadcast error
    assert build_run_config("rate", {}) == build_run_config("rate", {})
    assert build_run_config("rate", {}) != build_run_config("rate", {"params": {"n": 3}})
    t = np.geomspace(1.0, 10.0, 5)
    v = np.exp(-t)
    assert DecaySeries(t, v) == DecaySeries(t.copy(), v.copy())
    assert DecaySeries(t, v) != DecaySeries(t, 2 * v)
    assert DecaySeries(t, v) != DecaySeries(t[:4], v[:4])
    assert DecaySeries(t, v, "a") != DecaySeries(t, v, "b")
    for series in (build_run_config("rate", {}), DecaySeries(t, v)):
        with pytest.raises(TypeError):
            hash(series)


def test_derived_params_direct_substitution():
    p = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)
    assert p.a == 1.0
    assert p.b == 2.0
    assert p.delta0 == 1.0
    assert p.r_low == pytest.approx(1.0 / math.sqrt(2.0), rel=0, abs=1e-16)

    p = ModelParams(alpha=1.0, beta=0.0, gamma=2.0, n=2)
    assert (p.a, p.b, p.delta0) == (4.0, 1.0, 4.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0, beta=1.0, gamma=1.0, n=2),
        dict(alpha=-1.0, beta=0.0, gamma=1.0, n=2),
        dict(alpha=1.0, beta=-0.1, gamma=1.0, n=2),
        dict(alpha=1.0, beta=0.0, gamma=0.0, n=2),
        dict(alpha=1.0, beta=0.0, gamma=1.0, n=0),
        dict(alpha=math.inf, beta=0.0, gamma=1.0, n=2),
        dict(alpha=1.0, beta=math.nan, gamma=1.0, n=2),
        dict(alpha=1.0, beta=math.inf, gamma=1.0, n=2),
        dict(alpha=1.0, beta=0.0, gamma=math.inf, n=2),
        dict(alpha=1.0, beta=1e308, gamma=1.0, n=2),
        dict(alpha=1e308, beta=1e308, gamma=1.0, n=2),
        dict(alpha=1.0, beta=0.0, gamma=1e200, n=2),
        dict(alpha=1.0, beta=0.0, gamma=1e150, n=2),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ModelParams(**kwargs)


def test_initial_data_validation():
    with pytest.raises(ParameterError):
        InitialData(amplitude_v=(1.0,), amplitude_rho=1.0, width=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            InitialData(amplitude_v=(1.0, bad), amplitude_rho=1.0, width=1.0)
        with pytest.raises(ParameterError):
            InitialData(amplitude_v=(1.0,), amplitude_rho=bad, width=1.0)
        with pytest.raises(ParameterError):
            InitialData(amplitude_v=(1.0,), amplitude_rho=1.0, width=bad)


def test_records_are_frozen():
    records = {"alpha": ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2),
               "width": InitialData(amplitude_v=[0, 1], amplitude_rho=1.0, width=1.0),
               "times": build_run_config("rate", {}),
               "value": ZoneNorm(value=1.0, est_error=0.0, points=15, level=0)}
    for field, record in records.items():
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.no_such_field = 0.0
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [type(c) for c in records["width"].amplitude_v] == [float, float]
    # a changed copy is checked like a new record
    with pytest.raises(ParameterError):
        replace(records["alpha"], alpha=-1.0)
    with pytest.raises(ParameterError):
        replace(records["width"], width=0.0)
    assert replace(records["alpha"], n=3) == ModelParams(1.0, 1.0, 1.0, 3)
    # equal fields compare and hash equal
    twin = ModelParams(1.0, 1.0, 1.0, n=2)
    assert twin == records["alpha"] and hash(twin) == hash(records["alpha"])
    assert twin != ModelParams(1.0, 1.0, 2.0, 2) and twin != (1.0, 1.0, 1.0, 2)
    data = InitialData((0.0, 1.0), 1.0, 1.0)
    assert data == records["width"] and hash(data) == hash(records["width"])
    with pytest.raises(TypeError):  # RunConfig holds dicts
        hash(records["times"])
    # the dataclass repr
    assert repr(twin) == "ModelParams(alpha=1.0, beta=1.0, gamma=1.0, n=2)"
    assert repr(data) == "InitialData(amplitude_v=(0.0, 1.0), amplitude_rho=1.0, width=1.0)"
    assert repr(records["value"]) == "ZoneNorm(value=1.0, est_error=0.0, points=15, level=0)"
    assert repr(AxesSpec()) == ("AxesSpec(x_label='t', y_label='value', x_log=True, "
                                "y_log=True, title='', guide_slope=None)")
    assert AxesSpec(y_log=False) == AxesSpec("t", "value", True, False, "", None)
    # a missing, unknown or duplicate argument
    for args, kwargs in [((1.0, 1.0, 1.0), {}), ((1.0, 1.0, 1.0, 2), {"delta": 1.0}),
                         ((1.0, 1.0, 1.0, 2), {"alpha": 1.0}), ((1.0,) * 5, {})]:
        with pytest.raises(TypeError):
            ModelParams(*args, **kwargs)
    with pytest.raises(TypeError):
        replace(twin, delta=1.0)


@pytest.mark.parametrize("n,width", [(2, 1.0), (3, 0.6), (2, 2.4)])
def test_l11_closed_form_matches_radial_quadrature(n, width):
    data = InitialData(amplitude_v=(1.0,) * n, amplitude_rho=1.7, width=width)
    weight = l11_weight(n, width)
    ref = l11_norm_radial_quadrature(data)
    assert 1.7 * weight == pytest.approx(ref, rel=1e-10)
    # same radial profile scaled by the velocity amplitude
    assert weight == pytest.approx(ref / 1.7, rel=1e-10)
    # no moment exceeds its weighted norm
    assert weight >= 1.0


def test_fourier_data_at_zero_is_the_moment():
    data = InitialData(amplitude_v=(0.4, 0.9), amplitude_rho=-1.2, width=0.8)
    v_hat, rho_hat = fourier_data_batch(data, np.zeros((1, 2)))
    assert v_hat[0].tolist() == [0.4 + 0j, 0.9 + 0j]
    assert rho_hat[0] == -1.2 + 0j


def test_fourier_data_gaussian_value_matches_quadrature_oracle():
    # Oracle: radial Bessel quadrature of the 2-d transform at |xi| = 1,
    # 2 pi * int J0(r) rho0(r) r dr; frozen value equals exp(-1/2).
    data = InitialData(amplitude_v=(0.0, 0.0), amplitude_rho=1.0, width=1.0)
    nodes, weights = leggauss(400)
    r = 0.5 * (nodes + 1.0) * 12.0
    w = 0.5 * 12.0 * weights
    rho0 = (1.0 / (2 * math.pi)) * np.exp(-r * r / 2)
    oracle = 2 * math.pi * float(np.sum(special.j0(r) * rho0 * r * w))
    assert oracle == pytest.approx(0.6065306597126334, abs=1e-10)
    _, rho_hat = fourier_data_batch(data, np.array([[1.0, 0.0]]))
    assert rho_hat[0].real == pytest.approx(0.6065306597126334, rel=1e-12)
    assert rho_hat[0].imag == 0.0


def test_fourier_data_imaginary_part_exactly_zero():
    data = InitialData(amplitude_v=(1.0, -2.0), amplitude_rho=0.5, width=1.1)
    rng = np.random.default_rng(7)
    v_hat, rho_hat = fourier_data_batch(data, rng.normal(size=(20, 2)))
    assert v_hat.dtype == rho_hat.dtype == np.float64
    assert np.all(v_hat.imag == 0.0)
    assert np.all(rho_hat.imag == 0.0)


def test_ab_decomposition_vanishes_at_zero():
    data = InitialData(amplitude_v=(1.0, 2.0), amplitude_rho=3.0, width=1.0)
    dec = ab_decomposition(data, np.zeros((1, 2)))
    assert isinstance(dec, ABDecomposition)
    for part in dec:
        assert np.all(part == 0.0)


def test_ab_decomposition_value_matches_2d_quadrature_oracle():
    # Oracle: tensor Gauss-Legendre quadrature of int (cos(x.xi)-1) v01 dx on
    # [-14,14]^2 with xi=(1,0); frozen value equals exp(-1/2)-1.
    nodes, weights = leggauss(240)
    x = nodes * 14.0
    w = weights * 14.0
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    v01 = (1.0 / (2 * math.pi)) * np.exp(-(X**2 + Y**2) / 2)
    oracle = float(np.sum((np.cos(X) - 1.0) * v01 * W))
    assert oracle == pytest.approx(-0.3934693402873666, abs=1e-9)
    # B, the sin(x.xi) integral, vanishes for even data
    assert abs(float(np.sum(np.sin(X) * v01 * W))) <= 1e-12

    data = InitialData(amplitude_v=(1.0, 0.0), amplitude_rho=0.0, width=1.0)
    dec = ab_decomposition(data, np.array([[1.0, 0.0]]))
    assert dec.A0[0, 0] == pytest.approx(-0.3934693402873666, rel=1e-12)
    assert dec.A0[0, 1] == 0.0


def test_decomposition_identity_on_grid():
    # v0_hat(xi) - P0 = A0(xi) to machine precision (B = 0 for even data)
    data = InitialData(amplitude_v=(0.6, -1.4, 0.2), amplitude_rho=0.9, width=0.7)
    xi = np.random.default_rng(3).normal(size=(50, 3)) * 2.0
    v_hat, rho_hat = fourier_data_batch(data, xi)
    dec = ab_decomposition(data, xi)
    np.testing.assert_allclose(v_hat - np.array(data.amplitude_v), dec.A0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rho_hat - data.amplitude_rho, dec.A_rho, rtol=0, atol=1e-15)


def test_moment_bound_constants():
    # the maximum of (1 - cos t)/t sits at the root of tan(t/2) = t
    t_star = optimize.brentq(lambda t: math.tan(t / 2) - t, 2.0, 3.0, xtol=1e-15)
    peak = (1.0 - math.cos(t_star)) / t_star
    assert abs(VERSINE_RATIO - peak) <= 2 * math.ulp(peak)
    t = np.linspace(0.0, 2 * math.pi, 200_001)[1:]
    assert np.all((1.0 - np.cos(t)) / t <= VERSINE_RATIO * (1 + 1e-15))


def test_moment_remainder_bounds_on_sampled_grid():
    # |A| <= VERSINE_RATIO |xi| l11
    data = InitialData(amplitude_v=(0.8, -0.3), amplitude_rho=1.5, width=1.2)
    weight = l11_weight(data.n, data.width)
    r = np.geomspace(1e-3, 30.0, 40)
    theta = np.random.default_rng(11).uniform(0, 2 * math.pi, size=r.size)
    xi = r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    dec = ab_decomposition(data, xi)
    l11_v, l11_rho = np.abs(data.amplitude_v) * weight, abs(data.amplitude_rho) * weight
    assert np.all(np.abs(dec.A_rho) <= VERSINE_RATIO * r * l11_rho + 1e-12)
    assert np.all(np.abs(dec.A0) <= VERSINE_RATIO * r[:, None] * l11_v + 1e-12)


def test_fourier_data_batch_agrees_with_scalar():
    # a row of a batch does not depend on the other rows (one-row batches)
    data = InitialData(amplitude_v=(0.2, 0.5), amplitude_rho=-0.7, width=0.9)
    xi = np.array([[0.3, 0.1], [1.2, -0.4], [0.0, 2.0]])
    vb, rb = fourier_data_batch(data, xi)
    for i in range(3):
        v, r = fourier_data_batch(data, xi[i:i + 1])
        np.testing.assert_array_equal(vb[i], v[0])
        assert rb[i] == r[0]
