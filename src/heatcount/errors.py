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
    """A quadrature could not be formed within the double range.

    Theorem 1's quadrature follows a fixed Boole panel plan whose error
    bound holds by construction, so it raises only where its domain end
    passes the double range (t below about 1e-306).
    """
