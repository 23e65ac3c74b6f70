"""Smoothed counting via occupation factors 1/(e^(beta(lam_n - lam)) + 1).

As beta grows each factor tends to the step indicator, so the full-sum
expression converges to the counting function at points off the
spectrum; at an eigenvalue the resonant term contributes exactly half
its multiplicity.  The payoff is that a partial sum over lam_n < lam
becomes a smooth sum over the whole spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .evaltable import EvalTable
from .spectrum import Spectrum
from .transforms import CountingMode, _sum, counting

DEFAULT_EXPONENT_CAP = 700.0  # e^709 overflows a double; saturated terms are exact to e^-700


@dataclass(frozen=True)
class SmoothingConfig:
    """Sharpness beta (inverse eigenvalue units) and the saturation cap."""

    beta: float
    exponent_cap: float = DEFAULT_EXPONENT_CAP

    def __post_init__(self):
        if not (self.beta > 0):
            raise DomainError(f"beta must be positive, got {self.beta!r}")
        if not (0 < self.exponent_cap <= 709.0):
            raise DomainError(f"exponent cap must lie in (0, 709], got {self.exponent_cap!r}")


def _occupation(x: np.ndarray, cap: float) -> np.ndarray:
    """1/(e^x + 1) with saturation: exactly 0 above +cap, exactly 1 below -cap."""
    xc = np.clip(x, -cap, cap)
    positive = xc > 0
    expneg = np.exp(-np.abs(xc))
    out = np.where(positive, expneg / (1.0 + expneg), 1.0 / (1.0 + expneg))
    out = np.where(x > cap, 0.0, out)
    out = np.where(x < -cap, 1.0, out)
    return out


def smoothed_counting(s: Spectrum, lam: float, cfg: SmoothingConfig) -> float:
    """sum_n mult_n / (e^(beta(lam_n - lam)) + 1), in [0, total count]."""
    x = cfg.beta * (s.values - lam)
    return _sum(s.multiplicities * _occupation(x, cfg.exponent_cap))


def smoothing_error_bound(s: Spectrum, lam: float, beta: float) -> float:
    """Exact bound on |smoothed - strict count| for lam off the spectrum.

    Each term deviates from its limiting indicator by exactly
    mult_n / (e^(beta |lam_n - lam|) + 1), so the sum of those dominates
    the signed deviation.
    """
    if not (beta > 0):
        raise DomainError(f"beta must be positive, got {beta!r}")
    if float(lam) in s.values:
        raise DomainError(
            f"lam={lam!r} is an eigenvalue; the smoothed value converges to the "
            "jump midpoint there, not to the counting function"
        )
    t = np.exp(-beta * np.abs(s.values - lam))
    return _sum(s.multiplicities * (t / (1.0 + t)))


def default_beta(s: Spectrum, lam: float, sharpness: float = 50.0) -> float:
    """sharpness / (distance from lam to the nearest eigenvalue other than lam)."""
    dist = np.abs(s.values - lam)
    dist = dist[dist > 0]
    if dist.size == 0:
        return sharpness  # single-point spectrum at lam: no gap scale available
    return sharpness / float(np.min(dist))


def beta_sweep(s: Spectrum, lam: float, beta_list, cap: float = DEFAULT_EXPONENT_CAP) -> EvalTable:
    """Convergence study: one row (beta, value, deviation, bound) per beta.

    Deviation is measured against the strict counting function; for lam
    off the spectrum it is non-increasing in beta and dominated by the
    error bound (bound is NaN when lam sits on an eigenvalue).
    """
    betas = [float(b) for b in beta_list]
    if not betas:
        raise DomainError("beta list must not be empty")
    oracle = counting(s, lam, CountingMode.STRICT)
    table = EvalTable(
        ("beta", "value", "deviation", "bound"),
        metadata={"lambda": lam, "oracle": oracle},
    )
    for beta in betas:
        value = smoothed_counting(s, lam, SmoothingConfig(beta=beta, exponent_cap=cap))
        try:
            bound = smoothing_error_bound(s, lam, beta)
        except DomainError:
            bound = math.nan
        table.append(beta, value, abs(value - oracle), bound)
    return table
