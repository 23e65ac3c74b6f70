"""Smoothed counting via occupation factors 1/(e^(beta(lam_n - lam)) + 1).

As beta grows each factor tends to the step indicator, so the full-sum
expression converges to the counting function at points off the
spectrum; at an eigenvalue the resonant term contributes exactly half
its multiplicity.  The payoff is that a partial sum over lam_n < lam
becomes a smooth sum over the whole spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .evaltable import EvalTable
from .spectrum import Spectrum
from .transforms import CountingMode, _spectral_sum, counting

SHARPNESS = 50.0  # default_beta: beta times the distance to the nearest other eigenvalue


def _check_lambda(lam: float) -> None:
    if not math.isfinite(lam):
        raise DomainError(f"smoothing requires a finite lambda, got {lam!r}")


def _check_beta(beta: float) -> None:
    if not (beta > 0):
        raise DomainError(f"beta must be positive, got {beta!r}")


def _occupation(x: np.ndarray) -> np.ndarray:
    """1/(e^x + 1) without overflow: exactly 1 below x ~ -37, exactly 0 beyond x ~ 745."""
    e = np.exp(-np.abs(x))
    return np.where(x > 0, e, 1.0) / (1.0 + e)


def smoothed_counting(s: Spectrum, lam: float, beta: float) -> float:
    """sum_n mult_n / (e^(beta(lam_n - lam)) + 1), in [0, total count].

    The sharpness beta is in inverse eigenvalue units.  Terms with
    beta (lam_n - lam) > EXP_ZERO are exactly +0.0 and are not evaluated
    (``_spectral_sum``).  lam must be finite and beta positive.
    """
    _check_lambda(lam)
    _check_beta(beta)
    return _spectral_sum(s, lambda v: _occupation(beta * (v - lam)), beta, lam)


def smoothing_error_bound(s: Spectrum, lam: float, beta: float) -> float:
    """Exact bound on |smoothed - strict count| for lam off the spectrum.

    Each term deviates from its limiting indicator by exactly
    mult_n / (e^(beta |lam_n - lam|) + 1), so the sum of those dominates
    the signed deviation.  As in ``smoothed_counting``, the terms past
    beta (lam_n - lam) = EXP_ZERO are exactly +0.0 and are not evaluated.
    """
    _check_lambda(lam)
    _check_beta(beta)
    i = int(np.searchsorted(s.values, lam))
    if i < s.values.size and s.values[i] == lam:
        raise DomainError(
            f"lam={lam!r} is an eigenvalue; the smoothed value converges to the "
            "jump midpoint there, not to the counting function"
        )
    return _spectral_sum(s, lambda v: _occupation(beta * np.abs(v - lam)), beta, lam)


def default_beta(s: Spectrum, lam: float) -> float:
    """SHARPNESS / (distance from lam to the nearest eigenvalue other than lam)."""
    _check_lambda(lam)
    i = int(np.searchsorted(s.values, lam))  # that eigenvalue is in values[i - 1 : i + 2]
    dist = np.abs(s.values[max(i - 1, 0) : i + 2] - lam)
    dist = dist[dist > 0]
    if dist.size == 0:
        return SHARPNESS  # single-point spectrum at lam: no gap scale available
    return SHARPNESS / float(np.min(dist))


def beta_sweep(s: Spectrum, lam: float, beta_list) -> EvalTable:
    """Convergence study: one row (beta, value, deviation, bound) per beta.

    Deviation is measured against the strict counting function; for lam
    off the spectrum it is non-increasing in beta and dominated by the
    error bound (bound is NaN when lam sits on an eigenvalue).
    """
    _check_lambda(lam)
    betas = [float(b) for b in beta_list]
    if not betas:
        raise DomainError("beta list must not be empty")
    oracle = counting(s, lam, CountingMode.STRICT)
    table = EvalTable(
        ("beta", "value", "deviation", "bound"),
        metadata={"lambda": lam, "oracle": oracle},
    )
    for beta in betas:
        value = smoothed_counting(s, lam, beta)
        try:
            bound = smoothing_error_bound(s, lam, beta)
        except DomainError:
            bound = math.nan
        table.append(beta, value, abs(value - oracle), bound)
    return table
