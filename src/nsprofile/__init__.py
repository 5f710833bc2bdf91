"""Frequency-space solver and decay-verification toolkit for a linearized
compressible viscous flow model.  Frequencies are passed as (m, n) batches."""

from .model import (
    VERSINE_RATIO,
    InitialData,
    ModelParams,
    Moments,
    ParameterError,
    fourier_data_batch,
    moments,
)
from .spectral import solve_exact_batch, solve_ode_oracle_batch
from .profiles import (
    RemainderBounds,
    density_profile,
    gaussian_moment_bound,
    moment_defect_term,
    moment_flow,
    remainder_bounds,
    sine_correction_term,
    velocity_profile,
)
from .quadrature import (
    DEFAULT_REL_TOL,
    QuadratureError,
    ZoneNorm,
    cone_cap_area,
    sphere_area,
    zone_norm_sq,
)
from .decay import (
    DecayFit,
    DecaySeries,
    HighFreqReport,
    KernelPlateauReport,
    PlateauReport,
    cone_cosine_integral,
    fit_loglog,
    fit_semilog,
    highfreq_energy,
    sine_kernel_integral,
    velocity_norm_series,
    verify_kernel_plateaus,
    verify_sandwich,
)

__version__ = "0.1.0"
