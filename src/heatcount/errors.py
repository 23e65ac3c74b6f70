"""Exception types shared across the toolkit."""

from __future__ import annotations


class HeatcountError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(HeatcountError, ValueError):
    """A generator or operation parameter is outside its documented domain.

    Carries the offending parameter name in ``field`` so callers (and the
    CLI) can point at the exact input that failed.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class EmptySpectrumError(HeatcountError, ValueError):
    """A generator cutoff excludes every eigenvalue."""


class SpectrumFormatError(HeatcountError, ValueError):
    """A spectrum file does not parse; message carries line/field context."""


class ValidationError(HeatcountError, ValueError):
    """Spectrum content violates a structural invariant."""


class DomainError(HeatcountError, ValueError):
    """An evaluation argument is outside the operation's domain."""


class CoverageError(DomainError):
    """A requested abscissa lies beyond the stored spectral coverage."""


class ConfigurationError(HeatcountError, ValueError):
    """An inversion contour configuration is unusable."""


class InsufficientDataError(HeatcountError, ValueError):
    """The spectrum is too small for the requested estimate."""


class AccuracyError(HeatcountError, RuntimeError):
    """A result could not be formed to its stated accuracy.

    Nothing in the package raises it: theorem 1's quadrature, which takes
    the integral past the last eigenvalue exactly, has no failure path.
    The name stays exported for callers that catch it.
    """
