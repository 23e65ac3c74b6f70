"""Counting function, heat trace, partial exponential sums, and the
forward Laplace identity connecting them.

For a truncated spectrum with boundary L (``Spectrum.coverage``), the
analytic integration of the step function N gives

    t * integral_0^L N(lam) e^(-lam t) dlam
        = sum_n mult_n (e^(-lam_n t) - e^(-L t))
        = K(t) - N(L) e^(-L t),

so the step-exact mode reproduces the heat trace up to an explicit
truncation correction.  The quadrature mode integrates the whole
domain: Boole's rule on a fixed panel plan between the stored values, one
part per panel, and past the last one, where N is the total count, the
exact integral.  Every sum, those parts included, is correctly rounded by
one loop (``_stopped_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CoverageError, DomainError, InvalidParameterError
from .evaltable import EvalTable
from .spectrum import Spectrum

# The quadrature splits its panels for a rule error of a tenth of this,
# relative to each panel's integral.
BOUNDARY_DROP = 1e-12

# e^(-x) rounds to exactly 0.0 for every x above 745.14; terms, panels and
# occupation factors whose exponent passes EXP_ZERO are not evaluated.
EXP_ZERO = 746.0
# Correctly rounded sums read their terms in blocks of this many values.
BLOCK = 1 << 15


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


def _live(values: np.ndarray, rate: float, origin: float = 0.0, exponent: float = EXP_ZERO) -> int:
    """Length of the prefix of the sorted values past which every exponent
    rate (lam - origin) passes ``exponent``: with EXP_ZERO, every
    e^(-rate (lam - origin)) is exactly +0.0.

    A value whose exponent, rounded as numpy rounds rate * (lam - origin),
    is at most ``exponent`` satisfies
    lam - origin <= (exponent / rate)(1 + 3u), u = 2**-53.  The threshold
    widens the rounded quotient by 2**-30 and steps past the rounded sum, so
    it lies above every such value: no value is cut whose exponent is at
    most ``exponent``.  With EXP_ZERO the few kept past it give terms of
    +0.0.  rate = 0 keeps every value.
    """
    rate, origin = float(rate), float(origin)
    if not rate > 0:
        return values.size
    limit = math.nextafter(origin + exponent / rate * (1 + 2**-30), math.inf)
    return int(np.searchsorted(values, limit, side="right"))


def _spectral_sum(s: Spectrum, term, rate: float, origin: float = 0.0, size: int | None = None) -> float:
    """sum_n mult_n * term(lam_n) over the first ``size`` values of s (all
    of them by default), correctly rounded (``_stopped_sum``).

    ``term`` is an array function of the values that returns a fresh array
    (``Spectrum``'s arrays are read-only, so a view would raise), with
    0 <= term(lam) <= e^(-rate (lam - origin)) at every value: the heat
    trace's and step-exact terms, the occupation factors and their
    deviations all satisfy it.  So it is exactly +0.0 at every value whose
    exponent passes EXP_ZERO, and the terms from value j on add at most the
    live count times e^(-rate (lam_j - origin)), as ``_stopped_sum``
    requires.  The multiplicities scale its array in place (``_terms``).
    """
    values, mults = s.values[:size], s.multiplicities

    def form(i, end):
        return _terms(term, values[i:end], mults[i:])

    return _stopped_sum(form, values, s.cumulative, rate, origin)


def _stopped_sum(form, values, counts, rate: float, origin: float = 0.0) -> float:
    """math.fsum of form(0, k), the terms of the sorted values up to
    ``_live``'s cut k, bit for bit: formed and summed a block at a time
    (``_TwoLevelSum``), so no array of the values' length is allocated.

    ``form(i, end)`` returns a fresh array of the nonnegative terms of
    values i to end - 1, for i = 0 with at most one more term.  Those of
    values j to k - 1 must add at most counts[k] e^(-rate (values[j] -
    origin)), within ``_tail_units``' widening: 2**-30 relative and
    16 (counts[k] + 1) units of 2**-1074 for each of up to k + 1 terms.
    After each block the sum stops once every value within that tail bound
    of the running total rounds to the same double; a float test first
    skips the exact one while the bound is above 2**-52 of the total.  Each
    block ends at most where the bound falls below 2**-62 of a lower bound
    on the total (the running total, or before the first block the first
    term), so the sum ends within about a block of where it could: before
    the subnormal terms, whose np.exp is about a hundred times slower,
    unless the total is below about 2**62 counts[k] times 2**-1022.  Only
    a sum still open at k (a total near the subnormal range, at 0 or at a
    tie) has every term formed again and summed by ``_exact_sum``.
    """
    k = _live(values, rate, origin)
    count = int(counts[k])
    pieces = (count + 1) * (k + 1)
    running = _TwoLevelSum(k + 1)
    # a lower bound on the total before the first block: its first term
    at = _stop_exponent(count, float(form(0, 1)[0]) if k else 0.0)
    i = 0
    while i < k:
        end = min(i + BLOCK, k)
        # end the block where the tail bound falls below 2**-62 of the estimate
        if rate * (float(values[end - 1]) - origin) > at:
            stop = _live(values[:end], rate, origin, at)
            end = stop if stop > i else end
        if not running.add(form(i, end)):
            break
        i = end
        at = _stop_exponent(count, running.estimate())
        exponent = rate * (float(values[i]) - origin) if i < k else math.inf
        # a float test skips the exact one while the tail bound is above
        # 2**-52 of the total (e^7 > 2**10); once every term is formed the
        # bound is 0
        if i == k or exponent > at - 7.0:
            total = running.rounded(_tail_units(count, exponent, pieces) if i < k else 0)
            if total is not None:
                return total
    return _exact_sum(form(0, k))


def _terms(term, values, mults) -> np.ndarray:
    """term(values) scaled in place by the leading multiplicities."""
    terms = term(values)
    terms *= mults[: terms.size]
    return terms


def _stop_exponent(weight: int, total: float) -> float:
    """The exponent x past which weight * e^(-x) is below 2**-62 of total:
    +inf where weight is 0 or total is not positive."""
    if not (weight and total > 0):  # also on nan
        return math.inf
    return math.log(weight) - math.log(total) + 62 * math.log(2)


def _tail_units(weight: int, exponent: float, pieces: int) -> int:
    """Units of 2**-1074 that bound the sum of terms of total weight
    ``weight`` times e^(-exponent) each, plus 16 units for each of
    ``pieces`` terms: widened by 2**-30 relative for the rounding of the
    exponent, of the exponential and of the products, and by the units for
    their absolute rounding where they are subnormal."""
    return weight * (_units(math.exp(-exponent) * (1 + 2**-30)) + 1) + 16 * pieces


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms): two levels over blocks of the terms
    (``_TwoLevelSum``), which allocate one block-sized array, and where
    those leave the sum open, math.fsum itself, over the array."""
    running = _TwoLevelSum(terms.size)
    if all(running.add(terms[i : i + BLOCK]) for i in range(0, terms.size, BLOCK)):
        total = running.rounded(0)
        if total is not None:
            return total
    return math.fsum(terms)


class _TwoLevelSum:
    """A correctly rounded sum of up to n terms added a block at a time.

    The first level is an error-free extraction per block.  With b terms
    in the block, 2**w >= b and |x| <= 2**e for them, it takes
    sigma = 2**m, m = max(e + w, -1022), and splits every term into
    q = (sigma + x) - sigma and the residual r = x - q.  Both steps are
    exact; every q is a multiple of 2**(m - 53) with |q| <= 2**e, so their
    sum, at most 2**m, is exact in any order, and |r| <= 2**(m - 53)
    (S. M. Rump, T. Ogita and S. Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008); where 2**(m - 53)
    is below 2**-1074 every r is 0.  The second level sums the residuals,
    pairwise within each block and the block sums in turn.  Any order of
    the additions of at most n residuals errs by at most
    gamma_(n-1) sum |r| (N. J. Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., SIAM 2002, section 4.2), and
    gamma_(n-1) < 2 n u = n 2**-52 since n u <= 1/2.  A block of b terms
    adds at most b 2**(m - 53) to sum |r|, with m its own, so the error is
    at most n b 2**(m - 105) summed over the blocks; additions that
    underflow are exact.  The sum is decided once every value within that
    bound plus a slack of the exact block sums and the residual sum rounds
    to the same double (``_rounds_to``).

    Each block is read in seven passes while it is in cache (min, max, two
    for q, its sum, the residuals over q's array, their sum), through one
    array of a block and one term, the longest block ``_stopped_sum`` adds.
    """

    def __init__(self, n: int):
        self.n, self.parts, self.low, self.bound = n, [], 0.0, 0
        self.buffer = np.empty(min(n, BLOCK + 1))

    def add(self, x: np.ndarray) -> bool:
        """Adds a block of terms; False, the sum left open, at a non-finite
        term or one large enough that the sum could overflow inside
        math.fsum."""
        top = max(-x.min(), x.max())
        # below this, sum |term| < 2**1020 and no partial sum inside math.fsum overflows
        if not top < math.ldexp(1.0, 1020) / self.n:  # also true on nan
            return False
        if not top:
            return True
        m = max(math.frexp(top)[1] + (x.size - 1).bit_length(), -1022)
        sigma = math.ldexp(1.0, m)
        q = self.buffer[: x.size]
        np.add(x, sigma, out=q)
        q -= sigma
        self.parts.append(float(np.sum(q)))  # exact
        if m - 53 >= -1074:  # else every residual is 0
            np.subtract(x, q, out=q)
            self.low += float(np.sum(q))
            self.bound += _pairwise_bound(self.n, x.size, m)
        return True

    def estimate(self) -> float:
        """The running total, to about its last bit."""
        return math.fsum(self.parts) + self.low

    def rounded(self, slack: int) -> float | None:
        """The correctly rounded sum of the terms added plus any value within
        ``slack`` units of 2**-1074 of 0, or None where that is left open,
        and for a total of 0, whose sign math.fsum decides."""
        parts = self.parts + [self.low]
        total = math.fsum(parts)
        return total if _rounds_to(total, parts, self.bound + slack) and total else None


def _pairwise_bound(n: int, b: int, m: int) -> int:
    """n * b * 2**(m - 105), the share of a block of b values of at most
    2**(m - 53) in the bound on the rounding of a sum of n values, in units
    of 2**-1074, rounded up."""
    shift = m - 105 + 1074
    return n * b << shift if shift >= 0 else -(-n * b >> -shift)


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
    value = _spectral_sum(s, _heat(t), t)
    return HeatTraceResult(value, _tail_bound(s, t))


def _heat(t: float, less: float = 0.0):
    """The term function e^(-lam t) - less, formed in one array."""

    def term(values):
        x = values * -t
        np.exp(x, out=x)
        if less:
            x -= less
        return x

    return term


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
    return _spectral_sum(s, _heat(t), t, size=idx)


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
    integrand from a panel plan fixed before any evaluation and read from
    the stored values alone: a panel between each value and the next, its
    subpanels narrow enough that the rule errs by at most
    tau = BOUNDARY_DROP / 10 relatively and summed in closed form, one part
    per panel (``_boole_parts``), and past the last value, where N is the
    total count, the exact part N e^(-t lam_last).  So the quadrature lies
    within tau / (1 - x_tau/2), about 1.04e-13, of the heat trace, plus
    rounding, at every t > 0, with no iteration and no subdivision cap.  In
    both modes nothing past lam t = EXP_ZERO is evaluated: there the
    step-exact terms and the integrand are exactly 0.0.

    Both modes are one correctly rounded sum (``_stopped_sum``), which
    stops once what is left cannot change the last bit: the quadrature
    forms the panels a block of left edges at a time, and equals math.fsum
    of every part of the plan.
    """
    if not (0 < t < math.inf):
        raise DomainError(f"laplace transform requires finite t > 0, got {t!r}")
    if method == "step_exact":
        # a dropped term is mult * (0.0 - 0.0): coverage lies past every value
        big = math.exp(-s.coverage * t)
        return _spectral_sum(s, _heat(t, big), t)
    if method == "quadrature":
        return _laplace_quadrature(s, t)
    raise InvalidParameterError("method", f"expected 'step_exact' or 'quadrature', got {method!r}")


def _laplace_quadrature(s: Spectrum, t: float) -> float:
    values, cumulative = s.values, s.cumulative
    # Panel k runs from values[k] to values[k + 1], where N is the inclusive
    # count cumulative[k + 1]; on [0, values[0]] N is 0.  Past the last value
    # N is the total count, and that piece is exactly N e^(-t values[-1]).
    # No panel past ``_live``'s cut is built: a panel ends at values[k + 1]
    # or, the last live one only, at 2 EXP_ZERO / t, past which it is 0.0.
    last = min(_live(values, t), values.size - 1)
    past = np.array([s.total_count * math.exp(-t * float(values[-1]))])

    def form(i, end):
        """The parts of panels i to end - 1, and in the first block the
        exact part past the last value."""
        x = np.minimum(values[i + 1 : end + 1], 2 * EXP_ZERO / t)
        x -= values[i:end]
        x *= t
        parts = _boole_parts(x, cumulative[i + 1 : end + 1], _heat(t)(values[i:end]))
        return np.concatenate((parts, past)) if i == 0 else parts

    # Every live panel has N <= cumulative[last] and a part of at most
    # (1 + 1.04e-13) times its integral, plus rounding: below 16 (N + 1)
    # units of 2**-1074 where it is subnormal.  So the panels from
    # values[j] on add at most cumulative[last] e^(-t values[j]).
    return _stopped_sum(form, values[:last], cumulative, t)


def _boole_parts(x, counts, factors):
    """t times Boole's rule for N(lam) e^(-lam t) over the panels of scaled
    widths x = w t, counts N and left-edge factors e^(-a t): one part per
    panel.  ``x`` is overwritten.

    On a subpanel of scaled width y the integrand is n e^(-a t) r^k at its
    five nodes, r = e^(-y/4), so the rule's part is
    n e^(-a t) y P(r) / 90, P(r) = 7 + r(32 + r(12 + r(32 + 7r))).  The rule
    errs by (8/945) (w/4)^7 f^(6) at some node, which is positive and at
    most y^6 / (1935360 (1 - y/2)) of the subpanel's integral
    (P. J. Davis and P. Rabinowitz, "Methods of Numerical Integration",
    2nd ed., 1984, section 2.1).  A panel wider than x_tau, where
    x_tau^6 = 1935360 tau and tau = BOUNDARY_DROP / 10, is split into
    m = ceil(x / x_tau) equal subpanels of width y = x / m, so every part
    errs by at most tau / (1 - x_tau/2) of its integral.  Subpanel j's part
    is the first one's times e^(-j y), so the panel's part is the first
    one's times (1 - e^(-x)) / (1 - e^(-y)), with no subpanel formed or cut
    at EXP_ZERO.  The ratio is taken on split panels only, where
    y > x_tau / 2: an unsplit panel's x may underflow to 0.0.
    """
    x_tau = _split_width()
    split = x > x_tau
    whole = x[split]
    x[split] = whole / np.ceil(whole / x_tau)
    r = x * -0.25
    np.exp(r, out=r)
    part = r * 7.0
    for c in (32.0, 12.0, 32.0):
        part += c
        part *= r
    part += 7.0
    part *= x
    part *= counts
    part *= factors
    part /= 90.0
    part[split] *= np.expm1(-whole) / np.expm1(-x[split])
    return part


def _split_width() -> float:
    """x_tau, the widest scaled panel Boole's rule takes unsplit:
    x_tau^6 = 1935360 BOUNDARY_DROP / 10."""
    return (193_536 * BOUNDARY_DROP) ** (1 / 6)


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
    The range is trimmed to whole bins, of which there may be at most a
    million, as in the CLI's grids.  The table's error column is the
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
    span = (hi - lo) / bin_width + 1e-9  # inf for a tiny width
    if not span < 1_000_001:
        raise DomainError(f"range holds more than 1000000 bins of width {bin_width!r}")
    n_bins = int(span)
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
