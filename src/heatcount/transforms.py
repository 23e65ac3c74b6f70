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
# math.fsum, by _exact_sum's error-free extraction); smaller ones use
# numpy's pairwise sum.
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

    ``term`` is an array function of the values that is exactly +0.0 at
    every value whose exponent rate * (lam - origin) passes EXP_ZERO; it is
    evaluated only on the prefix ``_live`` keeps.  Over more than
    FSUM_THRESHOLD values the sum is correctly rounded and bit-identical to
    math.fsum, so the dropped zeros change nothing.  At or below it, it is
    numpy's pairwise sum, whose rounding depends on the length, so the
    terms are padded with +0.0 back to ``values.size``.
    """
    k = _live(values, rate, origin)
    terms = mults[:k] * term(values[:k])
    if values.size > FSUM_THRESHOLD:
        return _exact_sum(terms)
    return float(np.sum(_padded(terms, values.size)))


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms), computed with numpy by error-free extraction.

    With n terms, 2**w >= n and |r| <= 2**e for the residuals r (at first
    the terms), each level takes sigma = 2**m, m = max(e + w, -1022), and
    splits every r into q = (sigma + r) - sigma and r - q.  Both steps are
    exact; every q is a multiple of 2**(m - 53) with |q| <= 2**e, so their
    sum, at most 2**m, is exact in any order, and now |r| <= 2**(m - 53)
    (S. M. Rump, T. Ogita and S. Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008).  The level sums are
    exact parts of the total, which lies within n * 2**(m - 53) of theirs;
    the levels stop once every value in that range rounds to the same
    double (``_rounds_to``), or once no residual is left: every residual is
    0 or m - 53 passes 2**-1074.  From the third level on, e is that of the
    largest residual, not the bound, so a zero total or a tie, which no
    bound decides, ends once its parts are exact instead of at the floor.
    Non-finite terms, sums that could overflow inside math.fsum
    and exact zeros, whose sign math.fsum decides, are left to math.fsum
    itself.
    """
    n = terms.size
    top = max(-terms.min(), terms.max()) if n else 0.0
    # below this, sum |term| < 2**1020 and no partial sum inside math.fsum overflows
    if not 0.0 < top < math.ldexp(1.0, 1020) / n:  # also false on nan
        return math.fsum(terms)
    w = (n - 1).bit_length()
    e = math.frexp(top)[1]
    q = np.empty(n)
    r = terms
    parts = []
    while True:
        m = max(e + w, -1022)
        sigma = math.ldexp(1.0, m)
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(np.sum(q)))
        e = m - 53
        total = math.fsum(parts)
        if e < -1074 or _rounds_to(total, parts, n << (e + 1074)):
            return total if total else math.fsum(terms)
        # the first level leaves the terms alone and takes its own residual array
        r = np.subtract(r, q, out=None if r is terms else r)
        if len(parts) >= 2:
            # past the second level the total lies at or near 0 or a rounding
            # boundary, where no bound decides: take e from the residuals
            top = max(-r.min(), r.max())
            if not top:
                return total if total else math.fsum(terms)
            e = math.frexp(top)[1]


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
    value = _spectral_sum(s.values, s.multiplicities, lambda v: np.exp(-v * t), t)
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
    return _spectral_sum(s.values[:idx], s.multiplicities[:idx], lambda v: np.exp(-v * t), t)


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
        return _spectral_sum(s.values, s.multiplicities, lambda v: np.exp(-v * t) - big, t)
    if method == "quadrature":
        return _laplace_quadrature(s, t)
    raise InvalidParameterError("method", f"expected 'step_exact' or 'quadrature', got {method!r}")


def _laplace_quadrature(s: Spectrum, t: float) -> float:
    scale = max(_spectral_sum(s.values, s.multiplicities, lambda v: np.exp(-v * t), t), 5e-324)
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
    edges = np.concatenate(([0.0], values[lo:hi], [lam_hi]))
    # N restricted to each open panel (lam_k, lam_{k+1}) is the inclusive
    # count at its left edge, a slice of the cumulative counts since the
    # values increase strictly; endpoint evaluations use the interior
    # value so the jump carries no quadrature weight.
    panel_n = s.cumulative[lo : hi + 1].astype(np.float64)

    try:
        # near t ~ 1e-306 panel sums can pass the double range; the
        # non-finite values that follow end in AccuracyError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            integral, error = _adaptive_simpson_exp(
                edges, panel_n, t, tol=QUAD_TOL_SCALE * scale / t
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


def _adaptive_simpson_exp(edges, n_const, t, tol):
    """Vectorized adaptive Simpson for f(lam) = N(lam) * exp(-lam * t).

    The initial panels are aligned with the eigenvalues, so N is the
    constant ``n_const`` on each of them and every subpanel inherits it.
    Budget: per-panel tolerance proportional to panel length;
    Richardson-extrapolated acceptance at |S2 - S1|/15.

    A panel whose left edge a has a t > EXP_ZERO has an integrand of
    exactly 0.0 at every node, so it passes at depth 0 with zero sum and
    zero error.  The panels past ``_live``'s cut, all of that kind, are not
    evaluated: they enter only the two depth-0 reductions, as the zeros
    that keep numpy's pairwise sum over every panel.  Their lengths still
    count in ``total_len``.
    """
    panels = edges.size - 1
    total_len = edges[-1] - edges[0]
    live = _live(edges[:-1], t)
    nodes = edges[: live + 1]
    a, b = nodes[:-1], nodes[1:]
    n_const = n_const[:live]

    def f(x, n_const):
        return n_const * np.exp(-x * t)

    e = np.exp(-nodes * t)
    fa = n_const * e[:-1]
    fb = n_const * e[1:]
    mid = 0.5 * (a + b)
    fm = f(mid, n_const)
    s_whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    result = 0.0
    err_accum = 0.0
    width = panels  # length of the depth-0 reductions
    for depth in range(QUAD_MAX_DEPTH + 1):
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm = f(lm, n_const)
        frm = f(rm, n_const)
        s_left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = s_left + s_right
        err = np.abs(s2 - s_whole) / 15.0
        # length-proportional budget with a roundoff floor: panels whose
        # Simpson correction is at machine noise cannot refine further.
        # The length fraction is taken first: at tiny t both tol and b - a
        # are near the top of the double range, and their product overflows.
        ok = err <= np.maximum(tol * ((b - a) / total_len), 32.0 * 2.3e-16 * np.abs(s2))
        result += float(np.sum(_padded(np.where(ok, s2 + (s2 - s_whole) / 15.0, 0.0), width)))
        err_accum += float(np.sum(_padded(np.where(ok, err, 0.0), width)))
        if bool(np.all(ok)):
            return result, err_accum
        keep = ~ok
        panels += 2 * int(np.count_nonzero(keep))
        if depth == QUAD_MAX_DEPTH or panels > QUAD_MAX_PANELS:
            raise AccuracyError(
                "adaptive Simpson did not converge within the subdivision cap",
                estimate=result + float(np.sum(s2[keep])),
                error_estimate=err_accum + float(np.sum(err[keep])),
            )
        # split failing panels into halves
        a = np.concatenate((a[keep], mid[keep]))
        b = np.concatenate((mid[keep], b[keep]))
        fa = np.concatenate((fa[keep], fm[keep]))
        fb = np.concatenate((fm[keep], fb[keep]))
        mid_new = np.concatenate((lm[keep], rm[keep]))
        fm = np.concatenate((flm[keep], frm[keep]))
        s_whole = np.concatenate((s_left[keep], s_right[keep]))
        mid = mid_new
        n_const = np.concatenate((n_const[keep], n_const[keep]))
        width = a.size
    raise AssertionError("unreachable")


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
