"""Exact per-frequency solution of the transformed system, plus an RK4 oracle.

After Fourier transform the model becomes, at each frequency xi, the linear ODE
system

    rho_t = -i gamma (xi . v),
    v_t   = -alpha |xi|^2 v - beta xi (xi . v) - i gamma xi rho.

The transverse part of v follows a pure heat flow; the longitudinal pair
(rho, xi.v) evolves by a 2x2 flow whose eigenvalues are the roots of
lambda^2 + b |xi|^2 lambda + a |xi|^2: a conjugate pair below the resonance
radius delta0, real above it.  The flow needs only their divided differences
Phi and Psi, which are real for every root type: damped cos/sin below
delta0, the real roots through expm1 above it and the double-root limit at
it.  No formula subtracts nearby exponentials, so the closed form is smooth
across delta0 with no cutoff, and complex numbers enter only through the
-i gamma coupling.

The solution is linear in the data: one batched kernel (:func:`_flow`) maps
the data transform, the zeroth moments or the moment remainder to their flow.
Every entry point takes frequencies as an (m, n) batch.

The classical fixed-step RK4 integrator is kept deliberately independent of
the closed form and serves as the verification oracle.
"""

from __future__ import annotations

import numpy as np

from .model import InitialData, ModelParams, fourier_data_batch


def _phi_psi(params: ModelParams, r2: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Real divided differences Phi = (e^{s1 t}-e^{s2 t})/(s1-s2) and
    Psi = (s1 e^{s1 t}-s2 e^{s2 t})/(s1-s2) at |xi|^2 = r2, where s1, s2 are the
    roots of lambda^2 + b r^2 lambda + a r^2, by one formula per root type:

    - conjugate pair m -+ i w (below delta0): Phi = e^{mt} sin(wt)/w,
      Psi = e^{mt} cos(wt) + m Phi;
    - real roots (above delta0), s2 the large one and s1 = a r^2 / s2:
      Phi = e^{s1 t} (-expm1(-(s1-s2) t)) / (s1-s2), Psi = s1 Phi + e^{s2 t};
    - double root m (at delta0): Phi = t e^{mt}, Psi = e^{mt} + m Phi.

    None of them forms a difference of nearby exponentials, so each holds for
    every (s1-s2) t, and every one gives Phi = 0, Psi = 1 at t = 0.
    """
    a, b = params.a, params.b
    r = np.sqrt(r2)
    rr = r * r  # not r2: r2 one ulp apart (xi and a rotated xi) often share r, so disc
    disc = 4.0 * a - b * b * rr  # > 0 oscillatory, 0 at r = delta0, < 0 overdamped
    gap = r * np.sqrt(np.abs(disc))  # |s1 - s2|
    m = -0.5 * b * rr  # (s1 + s2) / 2
    phi = np.empty(r.shape)
    psi = np.empty(r.shape)
    osc = disc > 0.0
    emt = np.exp(m[osc] * t)
    w = 0.5 * gap[osc]
    phi_osc = emt * np.sin(w * t) / w
    phi[osc] = phi_osc
    psi[osc] = emt * np.cos(w * t) + m[osc] * phi_osc
    real = disc < 0.0
    s2 = m[real] - 0.5 * gap[real]
    s1 = a * rr[real] / s2  # free of the cancellation in m + gap / 2
    phi_real = np.exp(s1 * t) * -np.expm1(-gap[real] * t) / gap[real]
    phi[real] = phi_real
    psi[real] = s1 * phi_real + np.exp(s2 * t)
    double = disc == 0.0
    emt = np.exp(m[double] * t)
    phi[double] = t * emt
    psi[double] = emt + m[double] * t * emt
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
