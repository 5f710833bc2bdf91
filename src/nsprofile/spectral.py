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
across delta0 with no cutoff.  The -i gamma coupling is the only source of i,
so every coefficient of the solution is real or i times real: a :class:`Field`
stores both kinds as real arrays, and i enters only where :func:`pointwise`
assembles complex vectors.

The data are isotropic envelopes times the moments, so the solution depends
on the direction of xi only through u = xi_hat . p_hat, p_hat the direction
of the velocity moment: it is a :class:`Field` of coefficients in r = |xi|.
One kernel (:func:`flow`) maps the data transform, the zeroth moments or the
moment remainder to those coefficients at a batch of radii, and
:func:`pointwise` assembles any such field at an (m, n) batch of frequencies.
The kernel forms only what a zone norm integrates: the vector or the scalar
part alone when asked for one, and no coefficient that a zero moment makes 0,
which a :class:`Field` holds as the scalar 0.0.

The classical fixed-step RK4 integrator is kept deliberately independent of
the closed form and serves as the verification oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import InitialData, ModelParams, check_dimension, fourier_data_batch


def _phi_psi(params: ModelParams, r: np.ndarray, t: float,
             with_psi: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Real divided differences Phi = (e^{s1 t}-e^{s2 t})/(s1-s2) and
    Psi = (s1 e^{s1 t}-s2 e^{s2 t})/(s1-s2) at ascending radii r, where s1, s2
    are the roots of lambda^2 + b r^2 lambda + a r^2, one formula per root type:

    - conjugate pair m -+ i w (below delta0): Phi = e^{mt} sin(wt)/w,
      Psi = e^{mt} cos(wt) + m Phi;
    - double root m (at delta0): Phi = t e^{mt}, Psi = e^{mt} + m Phi;
    - real roots (above delta0), s2 the large one and s1 = a r^2 / s2:
      Phi = e^{s1 t} (-expm1(-(s1-s2) t)) / (s1-s2), Psi = s1 Phi + e^{s2 t}.

    None of them forms a difference of nearby exponentials, so each holds for
    every (s1-s2) t, and every one gives Phi = 0, Psi = 1 at t = 0.  Each runs
    on its own slice of the radii, where the root types are consecutive, so a
    radius has the same bits in any batch; out of order, a radius in another
    type's slice gives NaN with a RuntimeWarning (0/0 or a negative's root) or,
    among double roots, ValueError.  Without ``with_psi``, Psi is None.
    """
    a, b = params.a, params.b
    rr = r * r
    disc = 4.0 * a - b * b * rr  # > 0 oscillatory, 0 at r = delta0, < 0 overdamped
    # [0, osc) oscillatory, [osc, real) double and [real, size) real roots
    osc = real = size = disc.size
    if size and not disc[-1] > 0.0:
        ascending = disc[::-1]
        osc -= int(np.searchsorted(ascending, 0.0, side="right"))
        real -= int(np.searchsorted(ascending, 0.0, side="left"))
        if disc[osc:real].any():
            raise ValueError("_phi_psi takes radii in ascending order")
    m = -0.5 * b * rr  # (s1 + s2) / 2
    phi = np.empty(size)
    psi = np.empty(size) if with_psi else None
    if osc:
        m_osc = m[:osc]
        emt = np.exp(m_osc * t)
        w = 0.5 * (r[:osc] * np.sqrt(disc[:osc]))  # |s1 - s2| / 2
        wt = w * t
        np.divide(emt * np.sin(wt), w, out=phi[:osc])
        if with_psi:
            np.add(emt * np.cos(wt), m_osc * phi[:osc], out=psi[:osc])
    if real > osc:
        m_double = m[osc:real]
        emt = np.exp(m_double * t)
        np.multiply(t, emt, out=phi[osc:real])
        if with_psi:
            np.add(emt, m_double * t * emt, out=psi[osc:real])
    if real < size:
        gap = r[real:] * np.sqrt(-disc[real:])  # s1 - s2
        s2 = m[real:] - 0.5 * gap
        s1 = a * rr[real:] / s2  # free of the cancellation in m + gap / 2
        np.divide(np.exp(s1 * t) * -np.expm1(-gap * t), gap, out=phi[real:])
        if with_psi:
            np.add(s1 * phi[real:], np.exp(s2 * t), out=psi[real:])
    return phi, psi


def _zero(x) -> bool:
    """Whether a coefficient or amplitude is held as the scalar zero."""
    return isinstance(x, float) and x == 0.0


def _sum(terms: list):
    """Left-to-right sum of the terms, 0.0 for none."""
    return sum(terms[1:], terms[0]) if terms else 0.0


class Field(NamedTuple):
    """A field that depends on the direction of xi only through u = xi_hat . p_hat,
    with p_hat the unit velocity moment (e1 if the moment is 0): the vector
    a p_hat + (i b0 + b1 u) xi_hat and the scalar c0 + i c1 u.  Each coefficient
    is a real array over the radii r = |xi| or a scalar; b0 and c1 are the real
    coefficients of i.  A coefficient that a zero amplitude makes 0 everywhere
    is held as the scalar 0.0, and no arithmetic is spent on it."""

    a: np.ndarray | float = 0.0
    b0: np.ndarray | float = 0.0
    b1: np.ndarray | float = 0.0
    c0: np.ndarray | float = 0.0
    c1: np.ndarray | float = 0.0

    def __sub__(self, other: "Field") -> "Field":
        return Field(*(x if _zero(y) else x - y for x, y in zip(self, other)))

    def sphere_mean_max(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and maximum, as arrays over the radii, of |vector|^2 + |scalar|^2
        over the sphere S^(n-1) of each radius.

        That is q0 + q2 u^2 with q0 = a^2 + b0^2 + c0^2 and q2 = 2 a b1 + b1^2
        + c1^2: the cross terms a b0, b0 b1 and c0 c1 pair a real with an
        imaginary part, so nothing is odd in u.  The sphere mean of u^2 is 1/n,
        and the maximum is taken over u in [-1, 1], all of which the sphere
        attains.  The terms of scalar-zero coefficients are left out of the
        sums, which changes no value; a field whose coefficients are all the
        scalar 0.0 gives 0.0.
        """
        a, b0, b1, c0, c1 = self
        q0 = _sum([x * x for x in (a, b0, c0) if not _zero(x)])
        q2 = _sum(([] if _zero(a) or _zero(b1) else [2.0 * a * b1])
                  + [x * x for x in (b1, c1) if not _zero(x)])
        if _zero(q2):
            return q0, q0
        peak = np.maximum(q2, 0.0)
        if _zero(q0):
            return q2 / n, peak
        return q0 + q2 / n, q0 + peak


def pointwise(field_at, xi: np.ndarray, n: int,
              p0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vector (m, n), scalar (m,)) at xi of shape (m, n) of the :class:`Field`
    that ``field_at`` gives at the radii |xi|, for the velocity moment ``p0``;
    rejects other shapes and xi = 0.  ``field_at`` gets the radii sorted."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != n:
        raise ValueError(f"xi must have shape (m, {n}), got {xi.shape}")
    r = np.sqrt(np.sum(xi * xi, axis=1))
    if np.any(r == 0.0):
        raise ValueError("xi = 0 is excluded from pointwise evaluation")
    p0 = np.asarray(p0, dtype=float)
    norm = np.linalg.norm(p0)
    p_hat = p0 / norm if norm > 0 else np.eye(n)[0]
    order = np.argsort(r, kind="stable")
    back = np.argsort(order)
    f = Field(*(x[back] if np.ndim(x) else x for x in field_at(r[order])))
    xi_hat = xi / r[:, None]
    u = xi_hat @ p_hat
    return (np.multiply.outer(f.a, p_hat) + (f.b1 * u + 1j * f.b0)[:, None] * xi_hat,
            f.c0 + 1j * f.c1 * u)


def flow(params: ModelParams, r: np.ndarray, t: float, p, q, vector: bool = True,
         scalar: bool = True) -> Field:
    """Closed-form flow at radii r of the transformed data p p_hat (velocity)
    and q (density), p and q scalars or arrays over r.  The velocity is heat
    flow on the transverse part plus the longitudinal 2x2 flow; the density
    uses the same flow applied to (q, xi . v0 = r u p):

        v_hat   = heat p p_hat + (-i gamma r Phi q + (Psi - heat) p u) xi_hat,
        rho_hat = (Psi + b r^2 Phi) q - i gamma r Phi p u,

    heat = e^{-alpha r^2 t}; b0 and c1 hold -gamma r Phi q and -gamma r Phi p.
    With ``vector`` or ``scalar`` false that part is left out.  Its
    coefficients, and those of a p or q that is the scalar 0.0, stay the
    scalar 0.0, and only the factors that the others use are formed: heat for
    a and b1, Psi for b1 and c0."""
    with_p, with_q = not _zero(p), not _zero(q)
    rr = r * r
    phi, psi = _phi_psi(params, r, t, (vector and with_p) or (scalar and with_q))
    acoustic = -params.gamma * r * phi
    a = b0 = b1 = c0 = c1 = 0.0
    if vector and with_p:
        heat = np.exp(-params.alpha * rr * t)
        a, b1 = heat * p, (psi - heat) * p
    if vector and with_q:
        b0 = acoustic * q
    if scalar and with_q:
        c0 = (psi + params.b * rr * phi) * q
    if scalar and with_p:
        c1 = acoustic * p
    return Field(a, b0, b1, c0, c1)


def exact_field(params: ModelParams, data: InitialData, r: np.ndarray, t: float,
                vector: bool = True, scalar: bool = True) -> Field:
    """:func:`flow` of the data transform, whose envelope is e^{-s^2 r^2 / 2};
    a zero moment stays the scalar 0.0."""
    envelope = np.exp(-data.width ** 2 * (r * r) / 2.0)
    p, q = data.p0_norm, data.amplitude_rho
    return flow(params, r, t, p * envelope if p else 0.0, q * envelope if q else 0.0,
                vector, scalar)


def solve_exact_batch(params: ModelParams, data: InitialData, xi: np.ndarray,
                      t: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed form over xi of shape (m, n); returns (v_hat, rho_hat),
    the :func:`exact_field` at those points."""
    check_dimension(params, data.n)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return pointwise(lambda r: exact_field(params, data, r, t), xi, params.n,
                     data.amplitude_v)


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
