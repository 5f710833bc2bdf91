"""Exact per-frequency solution of the transformed system, plus an RK4 oracle.

After Fourier transform the model becomes, at each frequency xi, the linear ODE
system

    rho_t = -i gamma (xi . v),
    v_t   = -alpha |xi|^2 v - beta xi (xi . v) - i gamma xi rho.

The transverse part of v follows a pure heat flow; the longitudinal pair
(rho, xi.v) evolves by a 2x2 flow whose eigenvalues are the roots of
lambda^2 + b |xi|^2 lambda + a |xi|^2.  The closed form is evaluated with a
confluent (double-root) branch and a series-stabilized divided difference so
it is smooth across the resonance radius delta0.

The solution is linear in the data: one batched kernel (:func:`_flow`) maps
the data transform, the zeroth moments or the moment remainder to their flow.
The scalar entry points wrap the batched ones.

The classical fixed-step RK4 integrator is kept deliberately independent of
the closed form and serves as the verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InitialData, ModelParams, fourier_data_batch

BRANCH_COMPLEX = "complex-pair"
BRANCH_DOUBLE = "double-root"
BRANCH_REAL = "real-pair"

# Switch Phi/Psi to the sinhc series once |(s1-s2)*t| drops below this.
_CONFLUENT_CUTOFF = 1e-6


@dataclass(frozen=True)
class SpectralState:
    """Velocity transform (complex n-vector) and density transform at one (t, xi)."""

    v_hat: np.ndarray
    rho_hat: complex


@dataclass(frozen=True)
class EigenPair:
    """Roots of lambda^2 + b r^2 lambda + a r^2 with their branch label.

    On the real branch sigma1 is the small-magnitude root (computed
    cancellation-free as a r^2 / sigma2) and sigma2 the large-magnitude one.
    """

    sigma1: complex
    sigma2: complex
    branch: str


def _discriminant(params: ModelParams, r2):
    """4a - b^2 r^2: positive on the oscillatory branch, zero at r = delta0."""
    return 4.0 * params.a - params.b * params.b * r2


def eigenvalues(params: ModelParams, r: float) -> EigenPair:
    """Eigenvalues of the longitudinal 2x2 flow at radius r = |xi| >= 0."""
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    s1, s2 = _eigenvalues_batch(params, np.array([r], dtype=float))
    disc = _discriminant(params, r * r)
    branch = BRANCH_COMPLEX if disc > 0 else BRANCH_DOUBLE if disc == 0 else BRANCH_REAL
    return EigenPair(complex(s1[0]), complex(s2[0]), branch)


def _eigenvalues_batch(params: ModelParams, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = params.a, params.b
    r = np.asarray(r, dtype=float)
    r2 = r * r
    disc = _discriminant(params, r2)
    s1 = np.empty(r.shape, dtype=complex)
    s2 = np.empty(r.shape, dtype=complex)
    osc = disc > 0.0
    re = -0.5 * b * r2[osc]
    im = 0.5 * r[osc] * np.sqrt(disc[osc])
    s1[osc] = re + 1j * im
    s2[osc] = re - 1j * im
    dbl = disc == 0.0
    s1[dbl] = s2[dbl] = -0.5 * b * r2[dbl]
    over = disc < 0.0
    big = -0.5 * (b * r2[over] + r[over] * np.sqrt(-disc[over]))
    s1[over] = (a * r2[over]) / big
    s2[over] = big
    return s1, s2


def _phi_psi(s1: np.ndarray, s2: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Divided differences Phi = (e^{s1 t}-e^{s2 t})/(s1-s2) and
    Psi = (s1 e^{s1 t}-s2 e^{s2 t})/(s1-s2), stable through the double root."""
    s1 = np.atleast_1d(np.asarray(s1, dtype=complex))
    s2 = np.atleast_1d(np.asarray(s2, dtype=complex))
    diff = s1 - s2
    phi = np.empty(s1.shape, dtype=complex)
    psi = np.empty(s1.shape, dtype=complex)
    near = np.abs(diff) * t < _CONFLUENT_CUTOFF
    far = ~near
    e1 = np.exp(s1[far] * t)
    e2 = np.exp(s2[far] * t)
    phi[far] = (e1 - e2) / diff[far]
    psi[far] = (s1[far] * e1 - s2[far] * e2) / diff[far]
    # Near-confluent: Phi = t e^{mt} sinhc(dt), Psi = e^{mt}(m t sinhc(dt) + cosh(dt))
    m = 0.5 * (s1[near] + s2[near])
    d = 0.5 * diff[near]
    z = d * t
    sinhc = 1.0 + z * z / 6.0 * (1.0 + z * z / 20.0)
    emt = np.exp(m * t)
    phi[near] = t * emt * sinhc
    psi[near] = emt * (m * t * sinhc + np.cosh(z))
    return phi, psi


def solve_exact(params: ModelParams, data: InitialData, xi: np.ndarray, t: float) -> SpectralState:
    """Closed-form state at one frequency xi != 0 and time t >= 0."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (params.n,):
        raise ValueError(f"xi must have shape ({params.n},), got {xi.shape}")
    v, rho = solve_exact_batch(params, data, xi[None, :], t)
    return SpectralState(v_hat=v[0], rho_hat=complex(rho[0]))


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
    s1, s2 = _eigenvalues_batch(params, np.sqrt(r2))
    phi, psi = _phi_psi(s1, s2, t)
    heat = np.exp(-params.alpha * r2 * t)
    w0 = np.einsum("ij,ij->i", xi.astype(complex), v0)
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
    xi = np.asarray(xi, dtype=float)
    r2 = np.sum(xi * xi, axis=1)
    if np.any(r2 == 0.0):
        raise ValueError("xi = 0 is excluded from pointwise evaluation")
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
    y = np.concatenate([v0, rho0[:, None]], axis=1)
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


def solve_ode_oracle(params: ModelParams, data: InitialData, xi: np.ndarray, t: float,
                     step: float) -> SpectralState:
    """Single-point RK4 oracle; independent of the closed-form path."""
    xi = np.asarray(xi, dtype=float)
    v, rho = solve_ode_oracle_batch(params, data, xi[None, :], t, step)
    return SpectralState(v_hat=v[0], rho_hat=complex(rho[0]))


def energy(state: SpectralState) -> float:
    """Frequency-space energy (|rho_hat|^2 + |v_hat|^2) / 2."""
    v = np.asarray(state.v_hat)
    return 0.5 * (abs(state.rho_hat) ** 2 + float(np.sum(np.abs(v) ** 2)))


def density_ode_residual(params: ModelParams, data: InitialData, xi: np.ndarray,
                         t: float, dt: float) -> float:
    """|finite-difference residual| of the second-order density equation.

    The density transform satisfies rho_tt + b r^2 rho_t + a r^2 rho = 0;
    this evaluates it with central differences on the closed-form solution,
    so the result should be O(dt^2) against the term magnitudes.  Requires
    gamma |xi| dt < 0.1 so the oscillation is resolved, and t > dt.
    """
    xi = np.asarray(xi, dtype=float)
    r = float(np.linalg.norm(xi))
    if params.gamma * r * dt >= 0.1:
        raise ValueError("dt too large: gamma |xi| dt must stay below 0.1")
    if t <= dt:
        raise ValueError("need t > dt for the centered stencil")
    rm = solve_exact(params, data, xi, t - dt).rho_hat
    r0 = solve_exact(params, data, xi, t).rho_hat
    rp = solve_exact(params, data, xi, t + dt).rho_hat
    rho_tt = (rp - 2.0 * r0 + rm) / dt ** 2
    rho_t = (rp - rm) / (2.0 * dt)
    r2 = r * r
    return abs(rho_tt + params.b * r2 * rho_t + params.a * r2 * r0)
