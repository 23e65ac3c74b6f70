"""Counting function, heat trace, partial exponential sums, and the
forward Laplace identity connecting them.

For a truncated spectrum with boundary L (``Spectrum.coverage``), the
analytic integration of the step function N gives

    t * integral_0^L N(lam) e^(-lam t) dlam
        = sum_n mult_n (e^(-lam_n t) - e^(-L t))
        = K(t) - N(L) e^(-L t),

so the step-exact mode reproduces the heat trace up to an explicit
truncation correction.  The quadrature mode integrates the same step
function numerically and extends the domain until its own boundary term
is negligible.
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

# Adaptive Simpson controls.
QUAD_TOL_SCALE = 1e-10        # absolute tolerance = QUAD_TOL_SCALE * result scale
QUAD_MAX_DEPTH = 30           # hard subdivision cap
QUAD_MAX_PANELS = 1 << 21
BOUNDARY_DROP = 1e-12         # quadrature extends domain until boundary term < this * result

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
    if values.size > FSUM_THRESHOLD:
        return _exact_sum(terms)
    return float(np.sum(_padded(terms, values.size)))


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
    trace to roundoff.  ``quadrature`` applies adaptive Simpson to the
    same integrand, with panels aligned to the eigenvalue jumps and the
    domain extended until the boundary term is below 1e-12 of the result.
    In both modes nothing past lam t = EXP_ZERO is evaluated: there the
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
    scale = max(_spectral_sum(s.values, s.multiplicities, lambda v: np.exp(v * -t), t), 5e-324)
    # Extend past the stored coverage until N(L_q) e^(-L_q t) is negligible;
    # where BOUNDARY_DROP * scale underflows, its log is taken as a sum.
    drop = BOUNDARY_DROP * scale
    log_drop = math.log(drop) if drop > 0 else math.log(BOUNDARY_DROP) + math.log(scale)
    needed = (math.log(s.total_count) - log_drop) / t
    lam_hi = max(s.coverage, needed)
    if not (math.isfinite(lam_hi) and math.isfinite(scale / t)):
        # below t ~ 1e-306 the domain end or the tolerance passes the double range
        raise AccuracyError(
            "laplace quadrature overflowed", estimate=math.inf, error_estimate=math.nan
        )

    values = s.values
    lo = np.searchsorted(values, 0.0, side="right")
    hi = np.searchsorted(values, lam_hi, side="left")
    # The panels run from 0 through the values in (0, lam_hi) to lam_hi.
    # N restricted to each open panel (lam_k, lam_{k+1}) is the inclusive
    # count at its left edge, a slice of the cumulative counts since the
    # values increase strictly; endpoint evaluations use the interior
    # value so the jump carries no quadrature weight.  Only the panels up
    # to ``_live``'s cut are built: past it the integrand is 0.0.
    stop = lo + _live(values[lo:hi], t)
    edges = np.concatenate(([0.0], values[lo:stop], [values[stop] if stop < hi else lam_hi]))
    panel_n = s.cumulative[lo : stop + 1].astype(np.float64)

    try:
        # near t ~ 1e-306 panel sums can pass the double range; the
        # non-finite values that follow end in AccuracyError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            integral, error = _adaptive_simpson_exp(
                edges, panel_n, t, QUAD_TOL_SCALE * scale / t, hi - lo + 1, lam_hi
            )
    except AccuracyError as exc:
        raise AccuracyError(
            "laplace quadrature did not converge",
            estimate=t * exc.estimate,
            error_estimate=t * exc.error_estimate,
        ) from exc
    if not math.isfinite(integral):
        # below t ~ 1e-306 the integral, about K(t) / t, passes the double range
        raise AccuracyError("laplace quadrature overflowed", estimate=t * integral, error_estimate=t * error)
    return t * integral


def _adaptive_simpson_exp(edges, n_const, t, tol, panels, total_len):
    """Vectorized adaptive Simpson for f(lam) = N(lam) * exp(-lam * t).

    The initial panels are aligned with the eigenvalues, so N is the
    constant ``n_const`` on each of them and every subpanel inherits it.
    Budget: per-panel tolerance proportional to panel length;
    Richardson-extrapolated acceptance at |S2 - S1|/15.

    ``edges`` bounds only the live panels, those up to ``_live``'s cut of
    the ``panels`` over a domain of length ``total_len``.  A panel whose
    left edge a has a t > EXP_ZERO has an integrand of exactly 0.0 at every
    node, so it would pass at depth 0 with zero sum and zero error: the cut
    panels enter only the two depth-0 reductions, as the zeros that keep
    numpy's pairwise sum over every panel.

    Each depth forms its arrays with in-place operations that round as the
    written expressions do: a quarter point's integrand is its exponent,
    exp and count multiply in one array; b - a is taken once, for the
    budget and, at depth 0, for S1; d = (S2 - S1)/15 overwrites S1 and
    gives both the error |d| and the accepted value S2 + d.  That is about
    36 passes over the depth's panels, two of them exp.  Failing panels are
    zeroed by index and split by gathering only their own entries.
    """
    a, b = edges[:-1], edges[1:]
    e = edges * -t
    np.exp(e, out=e)
    fa = e[:-1] * n_const
    fb = e[1:]
    fb *= n_const
    mid = a + b
    mid *= 0.5
    fm = _integrand(mid, n_const, t)
    budget = b - a  # the panel widths, scaled to the budget at each depth
    s_whole = _simpson(budget / 6.0, fa, fm, fb)

    result = 0.0
    err_accum = 0.0
    reduced = panels  # length of the depth-0 reductions
    for depth in range(QUAD_MAX_DEPTH + 1):
        # length-proportional budget with a roundoff floor: panels whose
        # Simpson correction is at machine noise cannot refine further.
        # The length fraction is taken first: at tiny t both tol and b - a
        # are near the top of the double range, and their product overflows.
        budget /= total_len
        budget *= tol
        lm = a + mid
        lm *= 0.5
        rm = mid + b
        rm *= 0.5
        flm = _integrand(lm, n_const, t)
        frm = _integrand(rm, n_const, t)
        s_left = mid - a
        s_left /= 6.0
        s_left = _simpson(s_left, fa, flm, fm)
        s_right = b - mid
        s_right /= 6.0
        s_right = _simpson(s_right, fm, frm, fb)
        s2 = s_left + s_right
        floor = np.abs(s2)
        floor *= 32.0 * 2.3e-16
        np.maximum(budget, floor, out=budget)
        d = np.subtract(s2, s_whole, out=s_whole)
        d /= 15.0
        err = np.abs(d, out=floor)
        ok = err <= budget
        d += s2  # the accepted value s2 + d
        failed = np.flatnonzero(~ok)
        lost = err[failed]
        d[failed] = 0.0
        err[failed] = 0.0
        result += float(np.sum(_padded(d, reduced)))
        err_accum += float(np.sum(_padded(err, reduced)))
        if not failed.size:
            return result, err_accum
        panels += 2 * failed.size
        if depth == QUAD_MAX_DEPTH or panels > QUAD_MAX_PANELS:
            raise AccuracyError(
                "adaptive Simpson did not converge within the subdivision cap",
                estimate=result + float(np.sum(s2[failed])),
                error_estimate=err_accum + float(np.sum(lost)),
            )
        # split failing panels into halves
        a, b = _halves(a, mid, failed), _halves(mid, b, failed)
        fa, fb = _halves(fa, fm, failed), _halves(fm, fb, failed)
        mid, fm = _halves(lm, rm, failed), _halves(flm, frm, failed)
        s_whole = _halves(s_left, s_right, failed)
        n_const = _halves(n_const, n_const, failed)
        budget = b - a
        reduced = a.size
    raise AssertionError("unreachable")


def _integrand(x, n_const, t):
    """n_const * exp(-x * t) in one new array, rounded as written."""
    f = x * -t
    np.exp(f, out=f)
    f *= n_const
    return f


def _simpson(sixth, fa, fm, fb):
    """sixth * (fa + 4.0 * fm + fb), rounded as written, into ``sixth``."""
    s = fm * 4.0
    s += fa
    s += fb
    sixth *= s
    return sixth


def _halves(left, right, index):
    """The panels at ``index`` of left, then those of right."""
    return np.concatenate((left[index], right[index]))


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
