"""Tempered heavy-tailed random walks and their limit laws.

Simulates triangular-array row sums whose jumps are heavy-tailed with
direction-dependent tempering, and validates them against the limiting
tempered stable law: characteristic exponents, analytic means and shifts,
Lévy-measure masses, and empirical convergence diagnostics.
"""

from .analytics import (
    DRIFT_FREE,
    MEAN_ZERO,
    TRUNCATED,
    CFGrid,
    LevyExponent,
    Sector,
    cf_distance,
    default_cf_grid,
    density_1d,
    empirical_cf,
    levy_mass,
    shift_theta,
    tail_first_moment,
    tempered_mean,
    uan_profile,
    vague_convergence_table,
)
from .engine import (
    CENTER_JUMP_MEAN,
    CENTER_NONE,
    CENTER_TRUNCATED_MEAN,
    SampleBatch,
    WalkPlan,
    centering_truncated_mean,
    simulate_paths,
    simulate_rowsum,
    tempering_threshold,
)
from .jumps import EXACT_PARETO, JumpModel, MixedScalePareto
from .numerics import QuadratureError, gammainc_upper
from .spectral import SpectralMeasure
from .tempering import (
    CONDITIONALLY_EXPONENTIAL,
    CUSTOM_Q,
    EXPONENTIAL_Q,
    NO_TEMPERING,
    TemperingSpec,
)

__version__ = "0.1.0"

__all__ = [
    "SpectralMeasure",
    "JumpModel",
    "MixedScalePareto",
    "EXACT_PARETO",
    "TemperingSpec",
    "NO_TEMPERING",
    "CONDITIONALLY_EXPONENTIAL",
    "EXPONENTIAL_Q",
    "CUSTOM_Q",
    "WalkPlan",
    "SampleBatch",
    "CENTER_NONE",
    "CENTER_TRUNCATED_MEAN",
    "CENTER_JUMP_MEAN",
    "tempering_threshold",
    "centering_truncated_mean",
    "simulate_rowsum",
    "simulate_paths",
    "LevyExponent",
    "TRUNCATED",
    "MEAN_ZERO",
    "DRIFT_FREE",
    "CFGrid",
    "Sector",
    "tempered_mean",
    "shift_theta",
    "tail_first_moment",
    "levy_mass",
    "empirical_cf",
    "cf_distance",
    "default_cf_grid",
    "vague_convergence_table",
    "uan_profile",
    "density_1d",
    "QuadratureError",
    "gammainc_upper",
    "__version__",
]
