"""heatcount: eigenvalue counting functions and heat traces, numerically.

Given a (truncated) Laplace-operator spectrum, this package computes the
counting function N(lam) and the heat trace K(t), and verifies the
identities tying them together: the forward Laplace transform of N, the
contour-integral inversion recovering N from K, occupation-factor
smoothing of the counting step function, and the constant-density regime
where N(lam) = K(1/lam).

Each public name is imported from its home module on first access (PEP
562), so ``import heatcount`` loads no layer and no numpy, and a CLI
command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "asymptotics": ("PowerLawFit", "TauberianResult", "WeylCheckReport", "tauberian_first_term",
                    "weyl_check"),
    "errors": ("AccuracyError", "ConfigurationError", "CoverageError", "DomainError",
               "EmptySpectrumError", "HeatcountError", "InsufficientDataError",
               "InvalidParameterError", "SpectrumFormatError", "ValidationError"),
    "evaltable": ("EvalTable",),
    "inversion": ("InversionConfig", "InversionResult", "abscissa_estimate", "bromwich_invert",
                  "invert_profile"),
    "smoothing": ("beta_sweep", "default_beta", "smoothed_counting", "smoothing_error_bound"),
    "spectrum": ("Spectrum", "generate_constant_density", "generate_interval", "generate_rectangle",
                 "generate_torus", "load_spectrum", "save_spectrum"),
    "transforms": ("CountingMode", "DensityResult", "HeatTraceResult", "TailBound", "counting",
                   "density_estimate", "heat_trace", "laplace_of_counting",
                   "partial_exponential_sum", "truncation_correction"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        # a layer module, which its import binds here
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    # bind it here, so later lookups are plain global hits and skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys() | _HOME.keys())
