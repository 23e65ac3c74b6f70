"""Constant-density regime checks and first-term asymptotics.

When the eigenvalue density is a constant C, the counting function and
the heat trace are tied together in the small-t / large-lam limit:
N(lam) = C lam and K(t) = C/t, so K(t) = N(1/t).  ``weyl_check``
measures how close a spectrum comes to that regime.

More generally the small-t power law K(t) ~ A t^(-p) determines the
leading term of the counting function,

    N(lam) ~ A lam^p / Gamma(p + 1),

which ``tauberian_first_term`` extracts by a log-log least-squares fit
and compares against the exact count at a probe point.  Nothing beyond
the first-order term is recoverable this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, InvalidParameterError
from .evaltable import EvalTable
from .spectrum import Spectrum
from .transforms import CountingMode, counting, heat_trace

# A window is usable when the truncation-tail bound stays below this
# fraction of the heat-trace value at every fit point.
TAIL_VALIDITY_FRACTION = 0.01
POOR_FIT_RESIDUAL = 0.05
COVERAGE_FRACTION = 0.8  # weyl_check requires 1/t <= COVERAGE_FRACTION * coverage


@dataclass(frozen=True)
class WeylCheckReport:
    """Grid evaluation of the ratio K(t) / N(1/t)."""

    t_grid: tuple[float, ...]
    heat_values: tuple[float, ...]
    counts: tuple[int, ...]
    ratios: tuple[float, ...]
    flags: tuple[str, ...]
    density_constant: float

    def to_table(self) -> EvalTable:
        table = EvalTable(("t", "K", "N_inv", "ratio", "flag"))
        for row in zip(self.t_grid, self.heat_values, self.counts, self.ratios, self.flags):
            table.append(*row)
        return table


def weyl_check(s: Spectrum, t_grid) -> WeylCheckReport:
    """Compare K(t) with N(1/t) over a grid of small t.

    Rows with 1/t beyond the covered spectral range are flagged
    "coverage" and skipped; the batch continues.  The density constant
    is the mean eigenvalue count per unit interval over the coverage,
    which reproduces the generator constant exactly for constant-density
    spectra.
    """
    ts = sorted(float(t) for t in t_grid)
    if not ts:
        raise DomainError("t grid must not be empty")
    if ts[0] <= 0:
        raise DomainError(f"t values must be positive, got {ts[0]!r}")
    coverage = s.coverage
    density = s.total_count / coverage if coverage > 0 else math.nan
    heats, counts, ratios, flags = [], [], [], []
    for t in ts:
        lam = 1.0 / t
        if lam > COVERAGE_FRACTION * coverage:
            heats.append(math.nan)
            counts.append(0)
            ratios.append(math.nan)
            flags.append("coverage")
            continue
        k_val = heat_trace(s, t).value
        n_val = counting(s, lam, CountingMode.STRICT)
        heats.append(k_val)
        counts.append(n_val)
        if n_val > 0:
            ratios.append(k_val / n_val)
            flags.append("ok")
        else:
            ratios.append(math.nan)
            flags.append("zero-count")
    return WeylCheckReport(
        tuple(ts),
        tuple(heats),
        tuple(counts),
        tuple(ratios),
        tuple(flags),
        density,
    )


@dataclass(frozen=True)
class PowerLawFit:
    """K(t) ~ amplitude * t^(-exponent) over t_window.

    ``fit_residual`` is the max relative deviation of the fitted law from
    the measured trace on the window; ``poor_fit`` marks residuals above
    5%, meaning the trace is not power-law there.
    """

    amplitude: float
    exponent: float
    fit_residual: float
    poor_fit: bool


@dataclass(frozen=True)
class TauberianResult:
    fit: PowerLawFit
    predicted_count: float
    actual_count: int
    relative_gap: float

    def to_table(self, lam_probe: float) -> EvalTable:
        table = EvalTable(
            ("A", "p", "residual", "lambda_probe", "predicted", "actual", "relative_gap")
        )
        table.append(
            self.fit.amplitude,
            self.fit.exponent,
            self.fit.fit_residual,
            lam_probe,
            self.predicted_count,
            self.actual_count,
            self.relative_gap,
        )
        return table


def tauberian_first_term(
    s: Spectrum, t_window: tuple[float, float], lam_probe: float, n_points: int = 16
) -> TauberianResult:
    """Fit ln K(t) = ln A - p ln t and predict N(lam_probe) = A lam^p / Gamma(p+1).

    The window must lie where the truncation tail is negligible (the
    heat-trace tail bound below 1% of the value), which requires
    generator metadata; at least 8 log-spaced points are used.
    """
    t_lo, t_hi = float(t_window[0]), float(t_window[1])
    if not (0 < t_lo < t_hi):
        raise DomainError(f"need 0 < t_lo < t_hi, got ({t_lo!r}, {t_hi!r})")
    if n_points < 8:
        raise InvalidParameterError("n_points", f"need >= 8 fit points, got {n_points}")
    if not (0 < lam_probe <= s.coverage):
        raise CoverageError(f"probe {lam_probe!r} outside spectral coverage {s.coverage!r}")
    ts = np.exp(np.linspace(math.log(t_lo), math.log(t_hi), n_points))
    k_vals = np.empty(n_points)
    for i, t in enumerate(ts):
        value, tail = heat_trace(s, float(t))
        if not tail.valid:
            raise CoverageError(
                "no truncation-tail bound available for this spectrum; "
                "the fit window cannot be certified"
            )
        if tail.bound_value > TAIL_VALIDITY_FRACTION * value:
            raise CoverageError(
                f"truncation tail bound {tail.bound_value:g} exceeds "
                f"{TAIL_VALIDITY_FRACTION:.0%} of K({t:g}) = {value:g}; "
                "shrink the window or extend the spectrum"
            )
        k_vals[i] = value
    x = np.log(ts)
    y = np.log(k_vals)
    x_c = x - x.mean()
    slope = float(np.sum(x_c * (y - y.mean())) / np.sum(x_c * x_c))
    exponent = -slope
    amplitude = float(np.exp(y.mean() + exponent * x.mean()))
    residual = float(np.max(np.abs(amplitude * ts ** (-exponent) / k_vals - 1.0)))
    fit = PowerLawFit(
        amplitude=amplitude,
        exponent=exponent,
        fit_residual=residual,
        poor_fit=residual > POOR_FIT_RESIDUAL,
    )
    if exponent <= -1.0:
        raise DomainError(f"fitted exponent {exponent!r} puts Gamma(p+1) at a pole")
    predicted = amplitude * lam_probe**exponent / math.gamma(exponent + 1.0)
    actual = counting(s, lam_probe, CountingMode.STRICT)
    gap = predicted / actual - 1.0 if actual > 0 else math.inf
    return TauberianResult(fit, predicted, actual, gap)
