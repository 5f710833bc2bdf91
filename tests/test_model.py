import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special

from nsprofile.model import (
    ABDecomposition,
    InitialData,
    ModelParams,
    ParameterError,
    ab_decomposition,
    fourier_data,
    fourier_data_batch,
    moment_bound_constants,
    moments,
)
from oracles import l11_norm_radial_quadrature


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
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ModelParams(**kwargs)


def test_initial_data_validation():
    with pytest.raises(ParameterError):
        InitialData(amplitude_v=(1.0,), amplitude_rho=1.0, width=0.0)
    with pytest.raises(ParameterError):
        InitialData(amplitude_v=(1.0,), amplitude_rho=1.0, width=1.0, family="box")
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            InitialData(amplitude_v=(1.0, bad), amplitude_rho=1.0, width=1.0)
        with pytest.raises(ParameterError):
            InitialData(amplitude_v=(1.0,), amplitude_rho=bad, width=1.0)
        with pytest.raises(ParameterError):
            InitialData(amplitude_v=(1.0,), amplitude_rho=1.0, width=bad)


def test_moments_equal_amplitudes_exactly():
    data = InitialData(amplitude_v=(0.3, -0.7), amplitude_rho=2.5, width=1.3)
    m = moments(data)
    assert m.P0.tolist() == [0.3, -0.7]
    assert m.Q0 == 2.5
    assert np.all(np.abs(m.P0) <= m.l11_v)
    assert abs(m.Q0) <= m.l11_rho


@pytest.mark.parametrize("n,width", [(2, 1.0), (3, 0.6), (2, 2.4)])
def test_l11_closed_form_matches_radial_quadrature(n, width):
    data = InitialData(amplitude_v=(1.0,) * n, amplitude_rho=1.7, width=width)
    m = moments(data)
    ref = l11_norm_radial_quadrature(data)
    assert m.l11_rho == pytest.approx(ref, rel=1e-10)
    # same radial profile scaled by the velocity amplitude
    assert m.l11_v[0] == pytest.approx(ref / 1.7, rel=1e-10)


def test_fourier_data_at_zero_is_the_moment():
    data = InitialData(amplitude_v=(0.4, 0.9), amplitude_rho=-1.2, width=0.8)
    v_hat, rho_hat = fourier_data(data, np.zeros(2))
    assert v_hat.tolist() == [0.4 + 0j, 0.9 + 0j]
    assert rho_hat == -1.2 + 0j


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
    _, rho_hat = fourier_data(data, np.array([1.0, 0.0]))
    assert rho_hat.real == pytest.approx(0.6065306597126334, rel=1e-12)
    assert rho_hat.imag == 0.0


def test_fourier_data_imaginary_part_exactly_zero():
    data = InitialData(amplitude_v=(1.0, -2.0), amplitude_rho=0.5, width=1.1)
    rng = np.random.default_rng(7)
    for xi in rng.normal(size=(20, 2)):
        v_hat, rho_hat = fourier_data(data, xi)
        assert np.all(v_hat.imag == 0.0)
        assert rho_hat.imag == 0.0


def test_ab_decomposition_vanishes_at_zero():
    data = InitialData(amplitude_v=(1.0, 2.0), amplitude_rho=3.0, width=1.0)
    dec = ab_decomposition(data, np.zeros(2))
    assert dec == ABDecomposition(
        A0=pytest.approx([0.0, 0.0]), B0=pytest.approx([0.0, 0.0]), A_rho=0.0, B_rho=0.0
    )


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

    data = InitialData(amplitude_v=(1.0, 0.0), amplitude_rho=0.0, width=1.0)
    dec = ab_decomposition(data, np.array([1.0, 0.0]))
    assert dec.A0[0] == pytest.approx(-0.3934693402873666, rel=1e-12)
    assert dec.A0[1] == 0.0
    assert dec.B0.tolist() == [0.0, 0.0]


def test_decomposition_identity_on_grid():
    # v0_hat(xi) - P0 = A0(xi) - i B0(xi) to machine precision
    data = InitialData(amplitude_v=(0.6, -1.4, 0.2), amplitude_rho=0.9, width=0.7)
    m = moments(data)
    rng = np.random.default_rng(3)
    for xi in rng.normal(size=(50, 3)) * 2.0:
        v_hat, rho_hat = fourier_data(data, xi)
        dec = ab_decomposition(data, xi)
        np.testing.assert_allclose(v_hat - m.P0, dec.A0 - 1j * dec.B0, atol=1e-15)
        assert rho_hat - m.Q0 == pytest.approx(dec.A_rho - 1j * dec.B_rho, abs=1e-15)


def test_moment_bound_constants():
    c = moment_bound_constants()
    assert c.sinc_ratio == 1.0
    assert c.versine_ratio == pytest.approx(0.724611, abs=5e-7)
    assert c.versine_ratio < 1.0


def test_moment_remainder_bounds_on_sampled_grid():
    # |A| <= versine_ratio |xi| l11 and |B| <= sinc_ratio |xi| l11
    data = InitialData(amplitude_v=(0.8, -0.3), amplitude_rho=1.5, width=1.2)
    m = moments(data)
    c = moment_bound_constants()
    rng = np.random.default_rng(11)
    radii = np.geomspace(1e-3, 30.0, 40)
    for r in radii:
        theta = rng.uniform(0, 2 * math.pi)
        xi = r * np.array([math.cos(theta), math.sin(theta)])
        dec = ab_decomposition(data, xi)
        assert abs(dec.A_rho) <= c.versine_ratio * r * m.l11_rho + 1e-12
        assert abs(dec.B_rho) <= c.sinc_ratio * r * m.l11_rho + 1e-12
        assert np.all(np.abs(dec.A0) <= c.versine_ratio * r * m.l11_v + 1e-12)
        assert np.all(np.abs(dec.B0) <= c.sinc_ratio * r * m.l11_v + 1e-12)


def test_fourier_data_batch_agrees_with_scalar():
    data = InitialData(amplitude_v=(0.2, 0.5), amplitude_rho=-0.7, width=0.9)
    xi = np.array([[0.3, 0.1], [1.2, -0.4], [0.0, 2.0]])
    vb, rb = fourier_data_batch(data, xi)
    for i in range(3):
        v, r = fourier_data(data, xi[i])
        np.testing.assert_allclose(vb[i], v, rtol=0, atol=0)
        assert rb[i] == r
