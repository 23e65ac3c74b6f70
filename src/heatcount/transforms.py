"""Counting function, heat trace, partial exponential sums, and the
forward Laplace identity connecting them.

For a truncated spectrum with boundary L (``Spectrum.coverage``), the
analytic integration of the step function N gives

    t * integral_0^L N(lam) e^(-lam t) dlam
        = sum_n mult_n (e^(-lam_n t) - e^(-L t))
        = K(t) - N(L) e^(-L t),

so the step-exact mode reproduces the heat trace up to an explicit
truncation correction.  The quadrature mode integrates the same step
function numerically, by Boole's rule on a fixed panel plan, and extends
the domain until its own boundary term is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, CoverageError, DomainError, InvalidParameterError
from .evaltable import EvalTable
from .spectrum import Spectrum

# The quadrature extends its domain until the boundary term is below this
# times the result, and splits its panels for a rule error of a tenth of it.
BOUNDARY_DROP = 1e-12

# Sums over more than this many terms are correctly rounded (equal to
# math.fsum): _exact_sum reads them in seven passes, an error-free
# extraction and a pairwise sum held to its a-priori bound.  Smaller ones
# use numpy's pairwise sum, one pass.
FSUM_THRESHOLD = 100_000
# e^(-x) rounds to exactly 0.0 for every x above 745.14; terms, panels and
# occupation factors whose exponent passes EXP_ZERO are not evaluated.
EXP_ZERO = 746.0


class CountingMode(Enum):
    """Boundary semantics of the counting function at an eigenvalue."""

    STRICT = "strict"        # count eigenvalues < lam
    INCLUSIVE = "inclusive"  # count eigenvalues <= lam


@dataclass(frozen=True)
class TailBound:
    """Bound on the heat-trace mass lost to truncation at the spectrum's coverage."""

    bound_value: float
    valid: bool

    def __post_init__(self):
        if self.bound_value < 0:
            raise ValueError("bound_value must be >= 0")


class HeatTraceResult(NamedTuple):
    value: float
    tail: TailBound


def counting(s: Spectrum, lam: float, mode: CountingMode = CountingMode.STRICT) -> int:
    """Number of eigenvalues (with multiplicity) below lam.

    STRICT counts lam_n < lam, INCLUSIVE counts lam_n <= lam.  Binary
    search over the distinct values, O(log n).  At lam = -inf it is 0 and
    at +inf the total count; at nan it is undefined and raises DomainError.
    """
    if math.isnan(lam):
        raise DomainError(f"counting function is undefined at lam={lam!r}")
    if not isinstance(mode, CountingMode):
        mode = CountingMode(mode)
    side = "left" if mode is CountingMode.STRICT else "right"
    return int(s.cumulative[s.values.searchsorted(lam, side=side)])


def _live(values: np.ndarray, rate: float, origin: float = 0.0) -> int:
    """Length of the prefix of the sorted values past which every
    e^(-rate (lam - origin)) is exactly +0.0.

    A value whose exponent, rounded as numpy rounds rate * (lam - origin),
    is at most EXP_ZERO satisfies lam - origin <= (EXP_ZERO / rate)(1 + 3u),
    u = 2**-53.  The threshold widens the rounded quotient by 2**-30 and
    steps past the rounded sum, so it lies above every such value: no live
    value is cut, and the few kept past EXP_ZERO give terms of +0.0.
    rate = 0 keeps every value.
    """
    rate, origin = float(rate), float(origin)
    if not rate > 0:
        return values.size
    limit = math.nextafter(origin + EXP_ZERO / rate * (1 + 2**-30), math.inf)
    return int(np.searchsorted(values, limit, side="right"))


def _padded(terms: np.ndarray, size: int) -> np.ndarray:
    """terms followed by size - terms.size zeros (+0.0)."""
    if terms.size == size:
        return terms
    out = np.zeros(size)
    out[: terms.size] = terms
    return out


def _spectral_sum(values, mults, term, rate: float, origin: float = 0.0) -> float:
    """sum_n mults_n * term(values_n) over the sorted values, in ascending order.

    ``term`` is an array function of the values that returns a fresh array
    (``Spectrum``'s arrays are read-only, so a view would raise) and is
    exactly +0.0 at every value whose exponent rate * (lam - origin) passes
    EXP_ZERO; it is evaluated only on the prefix ``_live`` keeps, and the
    multiplicities scale its array in place, one pass (an exponential term
    ``np.exp(v * -t)`` makes two more).  Over more than FSUM_THRESHOLD
    values the sum is correctly rounded and bit-identical to math.fsum, so
    the dropped zeros change nothing.  At or below it, it is numpy's
    pairwise sum, whose rounding depends on the length, so the terms are
    padded with +0.0 back to ``values.size``.
    """
    k = _live(values, rate, origin)
    terms = term(values[:k])
    terms *= mults[:k]
    return _sum_over(terms, values.size)


def _sum_over(terms: np.ndarray, size: int) -> float:
    """The sum of ``terms`` followed by size - terms.size zeros (+0.0), as
    ``_spectral_sum`` adds it."""
    if size > FSUM_THRESHOLD:
        return _exact_sum(terms)
    return float(np.sum(_padded(terms, size)))


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms), computed with numpy by error-free extraction and
    one pairwise sum.

    With n terms, 2**w >= n and |x| <= 2**e for the terms, the first level
    takes sigma = 2**m, m = max(e + w, -1022), and splits every term into
    q = (sigma + x) - sigma and the residual r = x - q.  Both steps are
    exact; every q is a multiple of 2**(m - 53) with |q| <= 2**e, so their
    sum, at most 2**m, is exact in any order, and |r| <= 2**(m - 53)
    (S. M. Rump, T. Ogita and S. Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008).  The second level
    is numpy's pairwise sum of the residuals.  Any order of n - 1 additions
    errs by at most gamma_(n-1) sum |r| <= n**2 * 2**(m - 105), since
    n u <= 1/2 (N. J. Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., SIAM 2002, section 4.2); additions that underflow
    are exact.  The sum stops there once every value within that bound of
    the two level sums rounds to the same double (``_rounds_to``).

    That decides every total farther than the bound from a rounding
    boundary.  For one at or near 0 or a tie, extraction levels run on the
    residuals, each with e that of the largest residual, and stop once the
    exact level sums decide within
    n * 2**(m - 53), or once no residual is left: every residual is 0 or
    m - 53 passes 2**-1074.  The hot path reads the terms in seven passes
    (min, max, two for q, its sum, the residuals, their sum) and allocates
    one array.  Non-finite terms, sums that could overflow inside
    math.fsum and exact zeros, whose sign math.fsum decides, are left to
    math.fsum itself.
    """
    n = terms.size
    top = max(-terms.min(), terms.max()) if n else 0.0
    # below this, sum |term| < 2**1020 and no partial sum inside math.fsum overflows
    if not 0.0 < top < math.ldexp(1.0, 1020) / n:  # also false on nan
        return math.fsum(terms)
    w = (n - 1).bit_length()
    m = max(math.frexp(top)[1] + w, -1022)
    sigma = math.ldexp(1.0, m)
    q = np.add(terms, sigma)
    q -= sigma
    parts = [float(np.sum(q))]
    if m - 53 < -1074:  # every term lies on the grid 2**-1074: no residual
        return parts[0] if parts[0] else math.fsum(terms)
    r = np.subtract(terms, q, out=q)
    rest = float(np.sum(r))
    total = parts[0] + rest  # one addition of two doubles: math.fsum of them
    if _rounds_to(total, parts + [rest], _pairwise_bound(n, m)):
        return total if total else math.fsum(terms)
    q = np.empty(n)
    while True:
        top = max(-r.min(), r.max())
        if not top:  # the level sums are exact parts of the total
            total = math.fsum(parts)
            return total if total else math.fsum(terms)
        m = max(math.frexp(top)[1] + w, -1022)
        sigma = math.ldexp(1.0, m)
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(np.sum(q)))
        total = math.fsum(parts)
        if m - 53 < -1074 or _rounds_to(total, parts, n << (m - 53 + 1074)):
            return total if total else math.fsum(terms)
        r -= q


def _pairwise_bound(n: int, m: int) -> int:
    """n**2 * 2**(m - 105), the bound on the rounding of a sum of n values
    of at most 2**(m - 53), in units of 2**-1074, rounded up."""
    shift = m - 105 + 1074
    return n * n << shift if shift >= 0 else -(-n * n >> -shift)


def _units(x: float) -> int:
    """x in units of 2**-1074, the spacing of the subnormals: an exact integer."""
    num, den = x.as_integer_ratio()
    return (num << 1074) // den


def _rounds_to(s: float, parts: list, bound: int) -> bool:
    """Whether every value within ``bound`` units of 2**-1074 of sum(parts)
    rounds to s.

    Strict inequalities against both half-gaps of s, so a tie, whose
    rounding depends on the last bit, never counts as decided.
    """
    exact = sum(map(_units, parts))
    units = _units(s)
    return (
        units + _units(math.nextafter(s, -math.inf)) < 2 * (exact - bound)
        and 2 * (exact + bound) < units + _units(math.nextafter(s, math.inf))
    )


def heat_trace(s: Spectrum, t: float) -> HeatTraceResult:
    """Heat trace K(t) = sum_n mult_n e^(-lam_n t) over the stored spectrum.

    Returns the truncated sum together with a bound on the missing tail,
    derived from the generator metadata (no bound for file spectra).
    """
    if not (0 < t < math.inf):
        raise DomainError(f"heat trace requires finite t > 0, got {t!r}")
    value = _spectral_sum(s.values, s.multiplicities, lambda v: np.exp(v * -t), t)
    return HeatTraceResult(value, _tail_bound(s, t))


def _tail_bound(s: Spectrum, t: float) -> TailBound:
    kind = s.generator.get("kind")
    cutoff = s.coverage
    if kind == "interval":
        length = float(s.generator["length"])
        count = s.total_count
        k = math.pi / length
        nxt = ((count + 1) * k) ** 2
        gap = ((count + 2) * k) ** 2 - nxt
        denom = -math.expm1(-gap * t)
        return TailBound(math.exp(-nxt * t) / denom, True)
    if kind == "constant_density":
        c = float(s.generator["density"])
        nxt = (s.total_count + 1) / c
        denom = -math.expm1(-t / c)
        return TailBound(math.exp(-nxt * t) / denom, True)
    if kind == "rectangle":
        a = float(s.generator["a"])
        b = float(s.generator["b"])
        # Elementary lattice-box bound N(lam) <= (a*b/pi^2) * lam.
        alpha = a * b / math.pi**2
        bound = math.exp(-cutoff * t) * (alpha * (cutoff + 1.0 / t) - s.total_count)
        return TailBound(max(bound, 0.0), True)
    if kind == "torus":
        # Lattice points in the disk of squared radius lam fit in a square:
        # N(lam) <= (2 sqrt(lam) + 1)^2 <= (4 + 4/sqrt(L)) lam + 1 for lam >= L >= 1.
        # Torus eigenvalues are integers, so starting the tail at max(cutoff, 1)
        # skips no eigenvalue.
        start = max(cutoff, 1.0)
        alpha = 4.0 + 4.0 / math.sqrt(start)
        bound = math.exp(-start * t) * (alpha * (start + 1.0 / t) + 1.0 - s.total_count)
        return TailBound(max(bound, 0.0), True)
    return TailBound(0.0, False)


def partial_exponential_sum(s: Spectrum, u: float, t: float) -> float:
    """A(u, t) = sum over lam_n <= u of mult_n e^(-lam_n t).

    A(lam, 0) is the inclusive counting function; A(max value, t) equals
    the heat trace bit for bit (same ``_spectral_sum``).  An empty prefix
    sums to 0.0.
    """
    if not (0 <= t < math.inf):
        raise DomainError(f"partial exponential sum requires finite t >= 0, got {t!r}")
    if math.isnan(u):
        raise DomainError(f"partial exponential sum is undefined at u={u!r}")
    idx = int(np.searchsorted(s.values, u, side="right"))
    return _spectral_sum(s.values[:idx], s.multiplicities[:idx], lambda v: np.exp(v * -t), t)


def truncation_correction(s: Spectrum, t: float) -> float:
    """The boundary term N(L) e^(-L t) dropped by the step-exact transform."""
    if not (0 < t < math.inf):
        raise DomainError(f"truncation correction requires finite t > 0, got {t!r}")
    return s.total_count * math.exp(-s.coverage * t)


def laplace_of_counting(s: Spectrum, t: float, method: str = "step_exact") -> float:
    """Forward Laplace transform t * integral N(lam) e^(-lam t) dlam.

    ``step_exact`` integrates the step function analytically over
    [0, coverage]; adding ``truncation_correction`` recovers the heat
    trace to roundoff.  ``quadrature`` applies Boole's rule to the same
    integrand from a panel plan fixed before any evaluation: panels
    aligned to the eigenvalue jumps, the domain extended until the
    boundary term is below BOUNDARY_DROP (1e-12) of the result, and each
    panel split into subpanels narrow enough that the rule errs by at most
    a tenth of that, relatively (``_boole_parts``).  So the quadrature lies
    within about 1.1e-12 of the heat trace, plus rounding, with no
    iteration and no subdivision cap; it raises AccuracyError only where
    the domain end passes the double range (t below about 1e-306).  In
    both modes nothing past lam t = EXP_ZERO is evaluated: there the
    step-exact terms and the integrand are exactly 0.0 (``_spectral_sum``).
    """
    if not (0 < t < math.inf):
        raise DomainError(f"laplace transform requires finite t > 0, got {t!r}")
    if method == "step_exact":
        # a dropped term is mult * (0.0 - 0.0): coverage lies past every value
        big = math.exp(-s.coverage * t)
        return _spectral_sum(s.values, s.multiplicities, lambda v: np.exp(v * -t) - big, t)
    if method == "quadrature":
        return _laplace_quadrature(s, t)
    raise InvalidParameterError("method", f"expected 'step_exact' or 'quadrature', got {method!r}")


def _laplace_quadrature(s: Spectrum, t: float) -> float:
    values = s.values
    # one exponential pass gives the terms of the domain end's scale and the
    # panels' left-edge factors e^(-a t)
    factors = np.exp(values[: _live(values, t)] * -t)
    scale = max(_sum_over(factors * s.multiplicities[: factors.size], values.size), 5e-324)
    # Extend past the stored coverage until N(L_q) e^(-L_q t) is negligible;
    # where BOUNDARY_DROP * scale underflows, its log is taken as a sum.  A
    # coverage past 2 EXP_ZERO / t is cut there: the integrand is 0.0 beyond.
    drop = BOUNDARY_DROP * scale
    log_drop = math.log(drop) if drop > 0 else math.log(BOUNDARY_DROP) + math.log(scale)
    needed = (math.log(s.total_count) - log_drop) / t
    lam_hi = max(min(s.coverage, 2 * EXP_ZERO / t), needed)
    if not math.isfinite(lam_hi):
        # below t ~ 1e-306 the domain end passes the double range
        raise AccuracyError(
            "laplace quadrature overflowed", estimate=math.inf, error_estimate=math.nan
        )

    lo = np.searchsorted(values, 0.0, side="right")
    hi = np.searchsorted(values, lam_hi, side="left")
    # The panels run from 0 through the values in (0, lam_hi) to lam_hi.
    # N restricted to each open panel (lam_k, lam_{k+1}) is the inclusive
    # count at its left edge, a slice of the cumulative counts since the
    # values increase strictly.  Only the panels up to ``_live``'s cut are
    # built: past it the integrand is 0.0.
    stop = min(factors.size, hi)
    x = np.diff(values[lo:stop], prepend=0.0, append=values[stop] if stop < hi else lam_hi)
    x *= t
    return _exact_sum(_boole_parts(x, s.cumulative[lo : stop + 1], factors[lo:stop]))


def _boole_parts(x, counts, factors):
    """t times Boole's rule for N(lam) e^(-lam t) over subpanels of the
    panels of scaled widths x = w t, counts N and left-edge factors e^(-a t)
    (the first panel starts at 0, factor 1).

    On a subpanel of scaled width x the integrand is n e^(-a t) r^k at its
    five nodes, r = e^(-x/4), so the rule's part is
    n e^(-a t) x P(r) / 90, P(r) = 7 + r(32 + r(12 + r(32 + 7r))).  The rule
    errs by (8/945) (w/4)^7 f^(6) at some node, which is positive and at
    most x^6 / (1935360 (1 - x/2)) of the subpanel's integral
    (P. J. Davis and P. Rabinowitz, "Methods of Numerical Integration",
    2nd ed., 1984, section 2.1).  A panel wider than x_tau, where
    x_tau^6 = 1935360 tau and tau = BOUNDARY_DROP / 10, is split into
    ceil(x / x_tau) equal subpanels, so every part errs by at most
    tau / (1 - x_tau/2) of its integral.  Subpanel j of a split panel is its
    first part times e^(-j x); those with j x past EXP_ZERO are 0.0 and are
    not formed.  The parts of the panels come first, then those of the
    subpanels j >= 1: at most about 2 * 746 / x_tau of them for the live
    panels and as many again for the last one.
    """
    x_tau = (193_536 * BOUNDARY_DROP) ** (1 / 6)
    split = np.flatnonzero(x > x_tau)
    pieces = np.ceil(x[split] / x_tau)
    x[split] /= pieces
    pieces = np.minimum(pieces, np.ceil(EXP_ZERO / x[split])).astype(np.int64) - 1
    parts = np.empty(x.size + int(pieces.sum()))
    part = parts[: x.size]
    r = x * -0.25
    np.exp(r, out=r)
    np.multiply(r, 7.0, out=part)
    for c in (32.0, 12.0, 32.0):
        part += c
        part *= r
    part += 7.0
    part *= x
    part *= counts
    part[1:] *= factors
    part /= 90.0
    # subpanels j >= 1 of each split panel, in order
    first = np.cumsum(pieces) - pieces
    j = np.arange(1, parts.size - x.size + 1) - np.repeat(first, pieces)
    rest = parts[x.size :]
    np.multiply(np.repeat(x[split], pieces), -j, out=rest)
    np.exp(rest, out=rest)
    rest *= np.repeat(part[split], pieces)
    return parts


@dataclass(frozen=True)
class DensityResult:
    """Binned eigenvalue density with a constancy diagnostic."""

    table: EvalTable
    constancy_deviation: float
    mean_density: float


def density_estimate(s: Spectrum, bin_width: float, lam_range: tuple[float, float]) -> DensityResult:
    """Per-bin eigenvalue count divided by the bin width.

    Bins are left-open, right-closed: (lo + k*w, lo + (k+1)*w], so a
    spectrum with exact spacing 1/C lands C*w eigenvalues in every bin.
    The range is trimmed to whole bins.  The table's error column is the
    absolute deviation of each bin from the mean density; the constancy
    diagnostic is the max relative deviation across bins.
    """
    if not (bin_width > 0):
        raise DomainError(f"bin width must be positive, got {bin_width!r}")
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not (lo < hi):
        raise DomainError(f"empty range [{lo!r}, {hi!r}]")
    if lo < 0:
        raise DomainError(f"range must start at >= 0, got {lo!r}")
    if hi > s.coverage * (1 + 1e-12):
        raise CoverageError(f"range end {hi!r} beyond spectral coverage {s.coverage!r}")
    n_bins = int(math.floor((hi - lo) / bin_width + 1e-9))
    if n_bins < 1:
        raise DomainError("range shorter than one bin")
    edges = lo + bin_width * np.arange(n_bins + 1, dtype=np.float64)
    idx = np.searchsorted(s.values, edges, side="right")
    counts = np.diff(s.cumulative[idx]).astype(np.float64)
    densities = counts / bin_width
    in_range = float(np.sum(counts))
    mean = in_range / (n_bins * bin_width)
    deviations = np.abs(densities - mean)
    if mean > 0:
        constancy = float(np.max(deviations) / mean)
    else:
        constancy = 0.0
    table = EvalTable(("abscissa", "value", "error_estimate"))
    centers = 0.5 * (edges[:-1] + edges[1:])
    for center, dens, dev in zip(centers, densities, deviations):
        table.append(float(center), float(dens), float(dev))
    return DensityResult(table, constancy, mean)
