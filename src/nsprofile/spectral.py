"""Exact per-frequency solution of the transformed system, plus an RK4 oracle.

After Fourier transform the model becomes, at each frequency xi, the linear ODE
system

    rho_t = -i gamma (xi . v),
    v_t   = -alpha |xi|^2 v - beta xi (xi . v) - i gamma xi rho.

The transverse part of v follows a pure heat flow; the longitudinal pair
(rho, xi.v) evolves by a 2x2 flow whose eigenvalues are the roots of
lambda^2 + b |xi|^2 lambda + a |xi|^2: a conjugate pair below the resonance
radius delta0, real above it.  The flow needs only their divided differences
Phi and Psi, which are real on every branch: damped cos/sin below delta0,
damped cosh/sinh above it while the roots are close and the real root
difference beyond, and a series near the double root, so the closed form is
smooth across delta0 and complex numbers enter only through the -i gamma
coupling.

The solution is linear in the data: one batched kernel (:func:`_flow`) maps
the data transform, the zeroth moments or the moment remainder to their flow.
Every entry point takes frequencies as an (m, n) batch.

The classical fixed-step RK4 integrator is kept deliberately independent of
the closed form and serves as the verification oracle.
"""

from __future__ import annotations

import numpy as np

from .model import InitialData, ModelParams, fourier_data_batch

# Switch Phi/Psi to the sinhc series once |(s1-s2)*t| drops below this.
_CONFLUENT_CUTOFF = 1e-6


def _phi_psi(params: ModelParams, r2: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Real divided differences Phi = (e^{s1 t}-e^{s2 t})/(s1-s2) and
    Psi = (s1 e^{s1 t}-s2 e^{s2 t})/(s1-s2) at |xi|^2 = r2, where s1, s2 are the
    roots of lambda^2 + b r^2 lambda + a r^2: a conjugate pair m -+ i w below
    delta0, real above it, a double root at delta0.
    """
    a, b = params.a, params.b
    r = np.sqrt(r2)
    rr = r * r  # not r2: r2 one ulp apart (xi and a rotated xi) often share r, so disc
    disc = 4.0 * a - b * b * rr  # > 0 oscillatory, 0 at r = delta0, < 0 overdamped
    gap = r * np.sqrt(np.abs(disc))  # |s1 - s2|
    m = -0.5 * b * rr  # (s1 + s2) / 2
    phi = np.empty(r.shape)
    psi = np.empty(r.shape)
    near = gap * t < _CONFLUENT_CUTOFF
    osc = ~near & (disc > 0.0)
    emt = np.exp(m[osc] * t)
    w = 0.5 * gap[osc]
    sin_w = np.sin(w * t) / w
    phi[osc] = emt * sin_w
    psi[osc] = emt * (np.cos(w * t) + m[osc] * sin_w)
    # real roots m -+ d: below d t = 1 the damped sinh/cosh, which do not
    # cancel there as e^{s1 t} - e^{s2 t} does
    real = ~near & (disc < 0.0)
    short = real & (gap * t < 2.0)
    emt = np.exp(m[short] * t)
    d = 0.5 * gap[short]
    sinh_d = np.sinh(d * t) / d
    phi[short] = emt * sinh_d
    psi[short] = emt * (np.cosh(d * t) + m[short] * sinh_d)
    # from d t = 1 on the root difference: s2 the large root, s1 = a r^2 / s2
    # free of cancellation
    over = real & ~short
    s2 = m[over] - 0.5 * gap[over]
    s1 = a * rr[over] / s2
    e1, e2 = np.exp(s1 * t), np.exp(s2 * t)
    phi[over] = (e1 - e2) / (s1 - s2)
    psi[over] = (s1 * e1 - s2 * e2) / (s1 - s2)
    # near-confluent: Phi = t e^{mt} sinhc(z), Psi = e^{mt}(m t sinhc(z) + cosh(z))
    # in z^2 = (s1-s2)^2 t^2 / 4, negative when oscillatory; |z| < 5e-7 leaves
    # the z^4 terms below 1e-26
    z2 = -0.25 * disc[near] * rr[near] * t * t
    sinhc = 1.0 + z2 / 6.0
    emt = np.exp(m[near] * t)
    phi[near] = t * emt * sinhc
    psi[near] = emt * (m[near] * t * sinhc + 1.0 + z2 / 2.0)
    return phi, psi


def _as_batch(xi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xi as an (m, n) float array, |xi|^2), rejecting other shapes and xi = 0."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != n:
        raise ValueError(f"xi must have shape (m, {n}), got {xi.shape}")
    r2 = np.sum(xi * xi, axis=1)
    if np.any(r2 == 0.0):
        raise ValueError("xi = 0 is excluded from pointwise evaluation")
    return xi, r2


def _flow(params: ModelParams, xi: np.ndarray, r2: np.ndarray, t: float,
          v0: np.ndarray, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form flow of the transformed data (v0, rho0) over xi of shape (m, n).

    ``r2`` is |xi|^2 (nonzero); ``v0`` and ``rho0`` broadcast against (m, n)
    and (m,), so constant data may be passed as (1, n) and (1,) arrays.  The
    velocity is heat flow on the transverse part plus the longitudinal 2x2
    flow; the density uses the same flow applied to (rho0, xi.v0):

        v_hat   = e^{-alpha r^2 t} v0 - i gamma xi Phi rho0
                  + (Psi - e^{-alpha r^2 t}) xi (xi.v0)/r^2,
        rho_hat = (Psi + b r^2 Phi) rho0 - i gamma Phi (xi.v0).
    """
    phi, psi = _phi_psi(params, r2, t)
    heat = np.exp(-params.alpha * r2 * t)
    w0 = np.einsum("ij,ij->i", xi, v0)
    v_hat = (heat[:, None] * v0
             - 1j * params.gamma * phi[:, None] * xi * rho0[:, None]
             + ((psi - heat) * w0 / r2)[:, None] * xi)
    rho_hat = (psi + params.b * r2 * phi) * rho0 - 1j * params.gamma * phi * w0
    return v_hat, rho_hat


def solve_exact_batch(params: ModelParams, data: InitialData, xi: np.ndarray,
                      t: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed form over xi of shape (m, n); returns (v_hat, rho_hat),
    the :func:`_flow` of the data transform."""
    if data.n != params.n:
        raise ValueError(f"data dimension {data.n} != params dimension {params.n}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    xi, r2 = _as_batch(xi, params.n)
    v0, rho0 = fourier_data_batch(data, xi)
    return _flow(params, xi, r2, t, v0, rho0)


def _flow_matrix(params: ModelParams, xi: np.ndarray) -> np.ndarray:
    """Generator of the frequency ODE on the stacked state (v_1..v_n, rho)."""
    m, n = xi.shape
    r2 = np.sum(xi * xi, axis=1)
    gen = np.zeros((m, n + 1, n + 1), dtype=complex)
    gen[:, :n, :n] = -params.beta * xi[:, :, None] * xi[:, None, :]
    idx = np.arange(n)
    gen[:, idx, idx] += -params.alpha * r2[:, None]
    gen[:, :n, n] = -1j * params.gamma * xi
    gen[:, n, :n] = -1j * params.gamma * xi
    return gen


def solve_ode_oracle_batch(params: ModelParams, data: InitialData, xi: np.ndarray,
                           t: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 integration of the frequency ODE system, batched over xi.

    The system is linear and autonomous, so one RK4 step is exactly the
    degree-4 Taylor polynomial of the step matrix applied to the state; the
    matrix is formed once and raised to the number of steps by repeated
    squaring (global error O(step^4), independent of the closed-form path).
    All points share the endpoint t; the stability guard requires
    b |xi|^2 step < 0.5 and the actual uniform step is t/ceil(t/step).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    xi = np.asarray(xi, dtype=float)
    r2 = np.sum(xi * xi, axis=1)
    if np.max(params.b * r2) * step >= 0.5:
        raise ValueError("step too large: b |xi|^2 step must stay below 0.5")
    v0, rho0 = fourier_data_batch(data, xi)
    y = np.concatenate([v0, rho0[:, None]], axis=1, dtype=complex)
    if t > 0:
        nsteps = max(1, int(np.ceil(t / step)))
        h = t / nsteps
        ha = h * _flow_matrix(params, xi)
        eye = np.broadcast_to(np.eye(xi.shape[1] + 1, dtype=complex), ha.shape)
        rk4 = eye + ha
        power = ha
        for k in (2.0, 3.0, 4.0):
            power = np.matmul(power, ha) / k
            rk4 = rk4 + power
        y = np.einsum("mij,mj->mi", np.linalg.matrix_power(rk4, nsteps), y)
    return y[:, :-1].copy(), y[:, -1].copy()
