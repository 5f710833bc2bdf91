"""Exact per-frequency solution of the transformed system, plus an RK4 oracle.

After Fourier transform the model becomes, at each frequency xi, the linear ODE
system

    rho_t = -i gamma (xi . v),
    v_t   = -alpha |xi|^2 v - beta xi (xi . v) - i gamma xi rho.

The transverse part of v follows a pure heat flow; the longitudinal pair
(rho, xi.v) evolves by a 2x2 flow whose eigenvalues are the roots of
lambda^2 + b |xi|^2 lambda + a |xi|^2: a conjugate pair below the resonance
radius delta0, real above it.  The flow needs only their divided differences
Phi and Psi, which are real for both root types: damped cos/sin up to
delta0, whose w -> 0 limit covers the double root there, and the real roots
through expm1 above it.  No formula subtracts nearby exponentials, so the
closed form is smooth across delta0 with no cutoff.  The -i gamma coupling is
the only source of i, so every coefficient of the solution is real or i times
real: a :class:`Field` stores both kinds as real arrays, and i enters only
where :func:`pointwise` assembles complex vectors.

The data are isotropic envelopes times the moments, so the solution depends
on the direction of xi only through u = xi_hat . p_hat, p_hat the direction
of the velocity moment: it is a :class:`Field` of coefficients in r = |xi|.
One kernel (:func:`flow`) maps the data transform, the zeroth moments or the
moment remainder to those coefficients at a batch of radii.  :func:`pointwise`
assembles any field(params, data, r, t) at an (m, n) batch of frequencies.
The kernel forms only what a zone norm integrates: the vector or the scalar
part alone when asked for one, and no coefficient that a zero moment makes 0,
which a :class:`Field` holds as the scalar 0.0.

The classical fixed-step RK4 integrator is kept deliberately independent of
the closed form and serves as the verification oracle.

No runtime code of the package calls a BLAS- or LAPACK-backed numpy function:
not ``@``, ``np.dot``, ``np.matmul``, ``np.linalg.matrix_power`` or
``np.polyfit``, nor ``np.linalg.norm`` without ``axis``.  Their operands here
are 3x3 and 4x4 matrices, 15-point panels and 2- or 3-vectors, where BLAS
saves microseconds per call at most, while the first BLAS call of a process
pages OpenBLAS code and buffers in: 412 KiB of the 1.4 MB that the 8
subcommands at n = 2 added to the resident set when they still called it
(numpy 2.4.6, x86-64; the README gives the benchmark figures).  Nor does it
call numpy's sorts (``np.sort``, ``np.argsort``, ``np.lexsort``,
``np.unique``): the one ordering it needs, the 10 oracle radii of the CLI,
takes Python's ``sorted``, since the first numpy sort pages 192-576 KiB of
its kernels in.  No kernel needs its radii in order: :func:`_phi_psi` picks
each radius's root type by the sign of its discriminant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import InitialData, ModelParams, check_dimension, fourier_data_batch


def _phi_psi(params: ModelParams, r: np.ndarray, t: float,
             with_psi: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Real divided differences Phi = (e^{s1 t}-e^{s2 t})/(s1-s2) and
    Psi = (s1 e^{s1 t}-s2 e^{s2 t})/(s1-s2) at radii r in any order, where
    s1, s2 are the roots of lambda^2 + b r^2 lambda + a r^2, one formula per
    root type:

    - conjugate pair m -+ i w (up to delta0): Phi = e^{mt} sin(wt)/w,
      Psi = e^{mt} cos(wt) + m Phi, with Phi = t e^{mt}, its w -> 0 limit,
      at the double root w = 0 (r = delta0);
    - real roots (above delta0), s2 the large one and s1 = a r^2 / s2:
      Phi = e^{s1 t} (-expm1(-(s1-s2) t)) / (s1-s2), Psi = s1 Phi + e^{s2 t}.

    Neither forms a difference of nearby exponentials, so each holds for
    every (s1-s2) t, and both give Phi = 0, Psi = 1 at t = 0.  The sign of the
    discriminant picks each radius's formula, which runs elementwise on the
    radii of its type alone, so a radius has the same bits in any batch.
    Without ``with_psi``, Psi is None.
    """
    a, b = params.a, params.b
    rr = r * r
    disc = 4.0 * a - b * b * rr  # > 0 oscillatory, 0 at r = delta0, < 0 overdamped
    osc = disc >= 0.0  # conjugate pair or double root; the others are real roots
    m = -0.5 * b * rr  # (s1 + s2) / 2
    phi = np.empty(r.size)
    psi = np.empty(r.size) if with_psi else None
    m_osc = m[osc]
    emt = np.exp(m_osc * t)
    w = 0.5 * (r[osc] * np.sqrt(disc[osc]))  # |s1 - s2| / 2
    wt = w * t
    phi_osc = t * emt
    np.divide(emt * np.sin(wt), w, out=phi_osc, where=w > 0.0)
    phi[osc] = phi_osc
    if with_psi:
        psi[osc] = emt * np.cos(wt) + m_osc * phi_osc
    real = ~osc
    gap = r[real] * np.sqrt(-disc[real])  # s1 - s2
    s2 = m[real] - 0.5 * gap
    s1 = a * rr[real] / s2  # free of the cancellation in m + gap / 2
    phi_real = np.exp(s1 * t) * -np.expm1(-gap * t) / gap
    phi[real] = phi_real
    if with_psi:
        psi[real] = s1 * phi_real + np.exp(s2 * t)
    return phi, psi


def _zero(x) -> bool:
    """Whether a coefficient or amplitude is held as a scalar zero."""
    return isinstance(x, (int, float)) and x == 0.0


class Field(NamedTuple):
    """A field that depends on the direction of xi only through u = xi_hat . p_hat,
    with p_hat the unit velocity moment (e1 if the moment is 0): the vector
    a p_hat + (i b0 + b1 u) xi_hat and the scalar c0 + i c1 u.  Each coefficient
    is a real array over the radii r = |xi| or a scalar; b0 and c1 are the real
    coefficients of i.  A coefficient that a zero amplitude makes 0 everywhere
    is held as the scalar 0.0: :meth:`from_factors` spends no array arithmetic
    on it, and the arithmetic below takes it as an exact zero."""

    a: np.ndarray | float = 0.0
    b0: np.ndarray | float = 0.0
    b1: np.ndarray | float = 0.0
    c0: np.ndarray | float = 0.0
    c1: np.ndarray | float = 0.0

    @classmethod
    def from_factors(cls, p, q, vector: bool, scalar: bool, heat, acoustic, psi,
                     density) -> "Field":
        """The field of amplitudes p (velocity) and q (density), scalars or arrays
        over the radii, from a flow's factors there: a = heat p, b1 = (psi - heat) p
        and b0 = acoustic (-q) form the vector, c0 = density q and c1 = acoustic (-p)
        the scalar.  A coefficient of a part that ``vector`` or ``scalar`` leaves out,
        or of a scalar-zero p or q, stays the scalar 0.0: a factor only it reads may be None."""
        with_p, with_q = not _zero(p), not _zero(q)
        a = b0 = b1 = c0 = c1 = 0.0
        if vector and with_p:
            a, b1 = heat * p, (psi - heat) * p
        if vector and with_q:
            b0 = acoustic * -q
        if scalar and with_q:
            c0 = density * q
        if scalar and with_p:
            c1 = acoustic * -p
        return cls(a, b0, b1, c0, c1)

    def __sub__(self, other: "Field") -> "Field":
        return Field(*(x - y for x, y in zip(self, other)))

    def sphere_mean_max(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and maximum, as arrays over the radii, of |vector|^2 + |scalar|^2
        over the sphere S^(n-1) of each radius.

        That is q0 + q2 u^2 with q0 = a^2 + b0^2 + c0^2 and q2 = 2 a b1 + b1^2
        + c1^2: the cross terms a b0, b0 b1 and c0 c1 pair a real with an
        imaginary part, so nothing is odd in u.  The sphere mean of u^2 is 1/n,
        and the maximum is taken over u in [-1, 1], all of which the sphere
        attains.  A scalar-zero coefficient adds exact zeros, which change no
        bit; a field whose coefficients are all the scalar 0.0 gives scalars 0.0.
        """
        a, b0, b1, c0, c1 = self
        q0 = a * a + b0 * b0 + c0 * c0
        q2 = 2.0 * a * b1 + b1 * b1 + c1 * c1
        return q0 + q2 / n, q0 + np.maximum(q2, 0.0)


def _check_run(params: ModelParams, data: InitialData, xi, t: float) -> np.ndarray:
    """xi as a float array; rejects a datum of another dimension, a t not finite
    and >= 0, and an xi not of shape (m, n) or not finite."""
    check_dimension(params, data.n)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    n = params.n
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != n:
        raise ValueError(f"xi must have shape (m, {n}), got {xi.shape}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    return xi


def pointwise(field, params: ModelParams, data: InitialData, xi: np.ndarray,
              t: float) -> tuple[np.ndarray, np.ndarray]:
    """(vector (m, n), scalar (m,)) at xi of shape (m, n) of the :class:`Field`
    ``field(params, data, r, t)``: the one frequency-point entry point.  The
    field takes r = |xi| in the order of xi and works elementwise, so each
    point gets the bits that any batch gives it.  Rejects what
    :func:`_check_run` rejects and xi = 0."""
    xi = _check_run(params, data, xi, t)
    n = params.n
    r = np.sqrt(np.sum(xi * xi, axis=1))
    if np.any(r == 0.0):
        raise ValueError("xi = 0 is excluded from pointwise evaluation")
    p_hat = np.asarray(data.amplitude_v) / data.p0_norm if data.p0_norm else np.eye(n)[0]
    f = field(params, data, r, t)
    xi_hat = xi / r[:, None]
    u = np.sum(xi_hat * p_hat, axis=1)
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

    heat = e^{-alpha r^2 t}, assembled by :meth:`Field.from_factors`.  ``vector``
    or ``scalar`` false leaves that part out, and only the factors that the
    coefficients left in read are formed: heat for a and b1, Psi for b1 and c0."""
    with_p, with_q = not _zero(p), not _zero(q)
    rr = r * r
    phi, psi = _phi_psi(params, r, t, (vector and with_p) or (scalar and with_q))
    heat = np.exp(-params.alpha * rr * t) if vector and with_p else None
    density = psi + params.b * rr * phi if scalar and with_q else None
    acoustic = params.gamma * r * phi
    return Field.from_factors(p, q, vector, scalar, heat, acoustic, psi, density)


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
    return pointwise(exact_field, params, data, xi, t)


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


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix products x[k] y[k] of stacks (m, i, j) and (m, j, l), as a
    broadcast sum: np.einsum also calls no BLAS and is faster per call, but
    pages another 64 KiB of numpy's code in at n = 2."""
    return (x[:, :, :, None] * y[:, None, :, :]).sum(axis=2)


def solve_ode_oracle_batch(params: ModelParams, data: InitialData, xi: np.ndarray,
                           t: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 integration of the frequency ODE system, batched over xi.

    The system is linear and autonomous, so one RK4 step is exactly the
    degree-4 Taylor polynomial of the step matrix applied to the state; the
    matrix is formed once and its powers 2^k, found by repeated squaring, are
    applied to the state for the set bits k of the number of steps, lowest
    first (global error O(step^4), independent of the closed-form path).
    All points share t; xi, t and the datum are checked as in :func:`pointwise`,
    the stability guard requires b |xi|^2 step < 0.5, and the uniform step is
    t/max(1, ceil(t/step)), so t = 0 takes one zero-length step, the identity.
    An empty batch gives (0, n) and (0,) arrays, as :func:`pointwise` does.
    """
    xi = _check_run(params, data, xi, t)
    if not step > 0:
        raise ValueError("step must be positive")
    r2 = np.sum(xi * xi, axis=1)
    if np.max(params.b * r2, initial=0.0) * step >= 0.5:
        raise ValueError("step too large: b |xi|^2 step must stay below 0.5")
    v0, rho0 = fourier_data_batch(data, xi)
    y = np.concatenate([v0, rho0[:, None]], axis=1, dtype=complex)[:, :, None]
    nsteps = max(1, int(np.ceil(t / step)))
    h = t / nsteps
    ha = h * _flow_matrix(params, xi)
    rk4 = np.eye(xi.shape[1] + 1) + ha
    power = ha
    for k in (2.0, 3.0, 4.0):
        power = _matmul(power, ha) / k
        rk4 = rk4 + power
    while nsteps:
        nsteps, bit = divmod(nsteps, 2)
        if bit:
            y = _matmul(rk4, y)
        rk4 = _matmul(rk4, rk4)
    return y[:, :-1, 0].copy(), y[:, -1, 0].copy()
