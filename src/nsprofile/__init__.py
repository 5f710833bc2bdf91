"""Frequency-space solver and decay-verification toolkit for a linearized
compressible viscous flow model."""

from .model import (
    ABDecomposition,
    InitialData,
    ModelParams,
    Moments,
    ParameterError,
    ab_decomposition,
    fourier_data,
    moment_bound_constants,
    moments,
)
from .spectral import (
    EigenPair,
    SpectralState,
    density_ode_residual,
    eigenvalues,
    energy,
    solve_exact,
    solve_ode_oracle,
)
from .profiles import (
    ProfileDecomposition,
    RemainderBounds,
    decompose_velocity,
    density_profile,
    gaussian_moment_bound,
    moment_defect_term,
    moment_flow,
    remainder_bounds,
    sine_correction_term,
    velocity_profile,
)
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    ZoneNorm,
    cone_cap_area,
    cone_cosine_integral,
    sine_kernel_integral,
    sphere_area,
    zone_norm_sq,
)
from .decay import (
    DecayFit,
    DecaySeries,
    HighFreqReport,
    KernelPlateauReport,
    SandwichReport,
    fit_loglog,
    fit_semilog,
    highfreq_energy,
    verify_kernel_plateaus,
    verify_sandwich,
    verify_velocity_rate,
)

__version__ = "0.1.0"
