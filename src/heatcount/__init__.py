"""heatcount: eigenvalue counting functions and heat traces, numerically.

Given a (truncated) Laplace-operator spectrum, this package computes the
counting function N(lam) and the heat trace K(t), and verifies the
identities tying them together: the forward Laplace transform of N, the
contour-integral inversion recovering N from K, occupation-factor
smoothing of the counting step function, and the constant-density regime
where N(lam) = K(1/lam).
"""

from .asymptotics import (
    PowerLawFit,
    TauberianResult,
    WeylCheckReport,
    tauberian_first_term,
    weyl_check,
)
from .errors import (
    AccuracyError,
    ConfigurationError,
    CoverageError,
    DomainError,
    EmptySpectrumError,
    HeatcountError,
    InsufficientDataError,
    InvalidParameterError,
    SpectrumFormatError,
    ValidationError,
)
from .evaltable import EvalTable
from .inversion import (
    InversionConfig,
    InversionResult,
    abscissa_estimate,
    bromwich_invert,
    invert_profile,
)
from .smoothing import (
    SmoothingConfig,
    beta_sweep,
    default_beta,
    smoothed_counting,
    smoothing_error_bound,
)
from .spectrum import (
    Spectrum,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    load_spectrum,
    save_spectrum,
)
from .transforms import (
    CountingMode,
    DensityResult,
    HeatTraceResult,
    TailBound,
    counting,
    density_estimate,
    heat_trace,
    laplace_of_counting,
    partial_exponential_sum,
    truncation_correction,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConfigurationError",
    "CountingMode",
    "CoverageError",
    "DensityResult",
    "DomainError",
    "EmptySpectrumError",
    "EvalTable",
    "HeatTraceResult",
    "HeatcountError",
    "InsufficientDataError",
    "InvalidParameterError",
    "InversionConfig",
    "InversionResult",
    "PowerLawFit",
    "SmoothingConfig",
    "Spectrum",
    "SpectrumFormatError",
    "TailBound",
    "TauberianResult",
    "ValidationError",
    "WeylCheckReport",
    "abscissa_estimate",
    "beta_sweep",
    "bromwich_invert",
    "counting",
    "default_beta",
    "density_estimate",
    "generate_constant_density",
    "generate_interval",
    "generate_rectangle",
    "generate_torus",
    "heat_trace",
    "invert_profile",
    "laplace_of_counting",
    "load_spectrum",
    "partial_exponential_sum",
    "save_spectrum",
    "smoothed_counting",
    "smoothing_error_bound",
    "tauberian_first_term",
    "truncation_correction",
    "weyl_check",
]
