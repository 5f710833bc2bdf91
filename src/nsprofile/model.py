"""Model coefficients, the Gaussian test data, and its moment machinery.

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
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)


class ParameterError(ValueError):
    """Raised when model parameters violate the thermodynamic restrictions."""


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the linearized system plus the space dimension.

    Requires finite alpha > 0, beta >= 0, gamma > 0 and integer n >= 1, with
    a = gamma^2, b^2 = (alpha + beta)^2 and a (4 delta0)^2 finite, so the
    discriminant 4a - b^2 r^2 can be formed.  The main decay statements assume
    n >= 2; n = 1 is accepted for the radial kernel plateau tests only.
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
        # the kernels form a r^2 out to the default full-zone radius r = 4 delta0
        r = 4.0 * self.delta0
        if not all(map(math.isfinite, (self.b * self.b, self.gamma * self.gamma * (r * r)))):
            raise ParameterError(f"(alpha + beta)^2 or gamma^2 (4 delta0)^2 overflows: "
                                 f"gamma={self.gamma}, alpha + beta={self.b}")
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"n must be an integer >= 1, got {self.n}")

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


@dataclass(frozen=True)
class InitialData:
    """Gaussian-bump initial data.

    The physical-space fields are
    ``v0_j(x) = amplitude_v[j] * (2 pi s^2)^{-n/2} exp(-|x|^2 / (2 s^2))`` and
    the same radial profile times ``amplitude_rho`` for the density, so the
    zeroth moments equal the amplitudes exactly and all transforms are closed
    form.
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
        if len(self.amplitude_v) < 1:
            raise ParameterError("amplitude_v must have at least one component")

    @property
    def n(self) -> int:
        return len(self.amplitude_v)


@dataclass(frozen=True)
class Moments:
    """Zeroth moments and weighted L^{1,1} norms of an initial datum."""

    P0: np.ndarray
    Q0: float
    l11_v: np.ndarray
    l11_rho: float

    def __post_init__(self):
        if np.any(np.abs(self.P0) > self.l11_v + 1e-15):
            raise ParameterError("|P0_j| must not exceed the weighted norm l11_v[j]")
        if abs(self.Q0) > self.l11_rho + 1e-15:
            raise ParameterError("|Q0| must not exceed the weighted norm l11_rho")


def _abs_moment_factor(n: int, width: float) -> float:
    # E|x| for an isotropic Gaussian of width s in R^n: s*sqrt(2)*G((n+1)/2)/G(n/2)
    return width * _SQRT2 * math.gamma((n + 1) / 2) / math.gamma(n / 2)


def moments(data: InitialData) -> Moments:
    """Zeroth moments (exactly the amplitudes) and closed-form L^{1,1} norms."""
    n = data.n
    p0 = np.asarray(data.amplitude_v, dtype=float)
    weight = 1.0 + _abs_moment_factor(n, data.width)
    return Moments(
        P0=p0,
        Q0=float(data.amplitude_rho),
        l11_v=np.abs(p0) * weight,
        l11_rho=abs(data.amplitude_rho) * weight,
    )


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
