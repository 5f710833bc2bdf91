"""Model coefficients, the Gaussian test data, and its closed-form transforms.

The linearized system couples a scalar density and an n-vector velocity through
three constant coefficients: two viscosities (``alpha > 0``, ``beta >= 0``) and
a pressure coupling ``gamma > 0``.  Everything downstream is driven by the
derived symbols ``a = gamma**2``, ``b = alpha + beta`` and the resonance radius
``delta0 = 2*gamma/b`` that splits frequency space into an oscillatory low zone
and an overdamped high zone.

Initial data are even, real Gaussian bumps whose Fourier transforms, weighted
L^{1,1} norms and moment-bound constant are all closed form.  The Fourier
convention is the unnormalized one,
``phi_hat(xi) = int e^{-i x.xi} phi(x) dx``, so that the transform at xi = 0
equals the plain integral of the data.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._record import record

_SQRT2 = math.sqrt(2.0)


class ParameterError(ValueError):
    """Raised when model parameters violate the thermodynamic restrictions."""


@record
class ModelParams:
    """Coefficients of the linearized system plus the space dimension.

    Requires finite alpha > 0, beta >= 0, gamma > 0 and integer n >= 2, the
    dimensions of the paper's decay statements, with a = gamma^2, a r^2 and
    b^2 r^2 finite at r = 5 delta0, so the discriminant 4a - b^2 r^2 can be
    formed out to r = 5 delta0.
    """

    alpha: float
    beta: float
    gamma: float
    n: int

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.beta < math.inf:
            raise ParameterError(f"beta must be nonnegative and finite, got {self.beta}")
        if not 0 < self.gamma < math.inf:
            raise ParameterError(f"gamma must be positive and finite, got {self.gamma}")
        # the kernels form a r^2 and b^2 r^2 out to oracle-check's 5 delta0; the
        # full-zone radius's part 8/sqrt(alpha t) is checked by zone_norm_sq
        r = 5.0 * self.delta0
        if not (math.isfinite(self.gamma * self.gamma) and math.isfinite(self.a * (r * r))
                and math.isfinite(self.b * self.b * (r * r))):
            raise ParameterError(f"gamma^2, a (5 delta0)^2 or (alpha + beta)^2 (5 delta0)^2 "
                                 f"overflows: gamma={self.gamma}, alpha + beta={self.b}")
        if int(self.n) != self.n or self.n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n}")

    @property
    def a(self) -> float:
        return self.gamma ** 2

    @property
    def b(self) -> float:
        return self.alpha + self.beta

    @property
    def delta0(self) -> float:
        return 2.0 * self.gamma / self.b

    @property
    def r_low(self) -> float:
        """Outer radius of the low-frequency zone, delta0/sqrt(2)."""
        return self.delta0 / _SQRT2


@record
class InitialData:
    """Gaussian-bump initial data.

    The physical-space fields are
    ``v0_j(x) = amplitude_v[j] * (2 pi s^2)^{-n/2} exp(-|x|^2 / (2 s^2))`` and
    the same radial profile times ``amplitude_rho`` for the density, so the
    zeroth moments P0 = int v0 and Q0 = int rho0 are exactly ``amplitude_v``
    and ``amplitude_rho``, their weighted L^{1,1} norms are |P0_j| and |Q0|
    times :func:`l11_weight`, and all transforms are closed form.
    """

    amplitude_v: tuple[float, ...]
    amplitude_rho: float
    width: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude_v", tuple(float(c) for c in self.amplitude_v))
        if not all(map(math.isfinite, (*self.amplitude_v, self.amplitude_rho, self.width))):
            raise ParameterError("amplitudes and width must be finite")
        if not self.width > 0:
            raise ParameterError(f"width must be positive, got {self.width}")
        if not math.isfinite(self.width * self.width):
            raise ParameterError(f"width^2 overflows: width={self.width}")
        if len(self.amplitude_v) < 1:
            raise ParameterError("amplitude_v must have at least one component")
        if not math.isfinite(self.mass_sq):
            raise ParameterError("|P0|^2 + Q0^2 of the amplitudes overflows")

    @property
    def n(self) -> int:
        return len(self.amplitude_v)

    @cached_property
    def p0_sq(self) -> float:
        """|P0|^2, summed once per datum."""
        return sum(c * c for c in self.amplitude_v)

    @cached_property
    def p0_norm(self) -> float:
        """|P0|."""
        return math.sqrt(self.p0_sq)

    @property
    def mass_sq(self) -> float:
        """|P0|^2 + Q0^2, the squared moments that bound the energy density."""
        return self.p0_sq + self.amplitude_rho * self.amplitude_rho


def check_dimension(params: ModelParams, n: int) -> None:
    """Reject a datum of ``n`` components for the dimension of ``params``."""
    if n != params.n:
        raise ValueError(f"data dimension {n} != params dimension {params.n}")


def l11_weight(n: int, width: float) -> float:
    """1 + E|x|, the weighted L^{1,1} norm of the unit-mass Gaussian of width s
    in R^n, with E|x| = s sqrt(2) Gamma((n+1)/2) / Gamma(n/2); it is at least 1,
    so no moment exceeds its L^{1,1} norm."""
    return 1.0 + width * _SQRT2 * math.gamma((n + 1) / 2) / math.gamma(n / 2)


def fourier_data_batch(data: InitialData, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform of the data over xi of shape (m, n): (v0_hat, rho0_hat), real
    multiples of exp(-s^2 |xi|^2 / 2) that the solvers promote to complex."""
    xi = np.asarray(xi, dtype=float)
    envelope = np.exp(-data.width ** 2 * np.sum(xi * xi, axis=1) / 2.0)
    v0_hat = np.asarray(data.amplitude_v, dtype=float)[None, :] * envelope[:, None]
    return v0_hat, data.amplitude_rho * envelope


# sup over t > 0 of (1 - cos t)/t, attained where tan(t/2) = t; it bounds
# |A(xi)| by VERSINE_RATIO |xi| times the weighted L^{1,1} norm
VERSINE_RATIO = 0.7246113537767084
