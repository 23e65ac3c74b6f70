"""Recovering the counting function from the heat trace.

The counting function is the inverse Laplace transform of K(t)/t,
evaluated along a vertical contour Re(t) = c:

    N(lam) = (1/2 pi i) * integral_{c-i inf}^{c+i inf} K(t) e^(lam t) / t dt,

for any c > 0: the stored spectrum is finite, so K is entire and c only
has to damp the aliases of the discretization below.  Conjugate symmetry
folds the contour onto [0, T]:

    N(lam) = (e^(c lam) / pi) * integral_0^T Re[K(c + i w) e^(i lam w) / (c + i w)] dw,

computed by the trapezoidal rule with step h, plus the tail of each
term past T.  At a jump the limit is the midpoint N(lam-) + mult/2.

Contour selection: the trapezoid discretization with step h reproduces
the counting function plus aliased copies N(lam + 2 pi k / h) damped by
e^(-2 pi c k / h); with h = pi/(8 lam) the aliases of N counted terms
add at most N e^(-16 c lam) / (1 - e^(-16 c lam)).  The auto contour's
c lam = max(KAPPA, ln(N / eps) / 16), eps = 1e-3 AUTO_TRUNCATION_TOL,
holds that within eps and keeps the e^(c lam) amplification of the
tail error small: c lam is 2 up to N ~ 1.6e8, below 3.6 for any int64
count.  T is the smallest height whose predicted error after the tail
correction stays below AUTO_TRUNCATION_TOL.

Tail correction: with a_n = mult_n e^(-c lam_n), z_n = e^(i (lam - lam_n) h)
and g_j = 1/(c + i j h), node j carries Re sum_n a_n z_n^j g_j.  Stopping
at node M = ceil(T/h) with half weight there leaves out, per term,
tau = sum_(j>M) z^j g_j + z^M g_M / 2.  Summation by parts gives

    tau = z^M g_M (1/(1 - z) - 1/2) + z^(M+1) (g_(M+1) - g_M) / (1 - z)^2
          + z^2 / (1 - z)^2 * sum_(j>=M) z^j (g_(j+2) - 2 g_(j+1) + g_j),

and the first two terms are added.  |1 - z| = mu_eff h, where
mu_eff = 2 |sin((lam - lam_n) h / 2)| / h is the term's frequency as the
grid sees it, and |g_(M+2) - 2 g_(M+1) + g_M| is about 2 h^2 / T^3, so
the remainder costs about 2 e^(c lam) a_n / (pi (mu_eff T)^3) of the
value, where the uncorrected sum misses e^(c lam) a_n / (pi mu_eff T).
A resonant term, z = 1 exactly (lam_n = lam), has
Re tau = atan(c / (M h)) / h by Euler-Maclaurin.  A term near resonance
but not in it keeps its 1 / (mu_eff T) size until T reaches a few
1 / mu_eff.  Where even the cap is below 1 / (2 mu_eff), as for lam
within a rounding error of lam_n or of an alias lam_n - 2 pi k / h, the
size is bounded by 2 instead: pi/2 from the sine integral plus c/T and
h/T.  Near lam_n that bound alone passes the budget and T is the cap;
an alias carries e^(-16 c lam k) <= e^(-32 k) in its weight, so it
leaves T as it is.

The expansion runs in powers of 1/(mu_eff T): its k-th term is about
(k-1)! / (mu_eff T)^(k-1) times the first, so the remainder is smaller
than the last term kept only where mu_eff T > 2, and its estimate
2 / (mu_eff T)^3 is below the uncorrected 1 / (mu_eff T) only where
mu_eff T > sqrt(2).  TAIL_EXPANSION_MIN = 4 keeps the remainder at most
half the second-order term and its estimate at most 1/8 of the
uncorrected size.  Terms below it, resonant ones included, are counted
at the uncorrected size, 1/(mu_eff T), 2 below 1/(2 mu_eff) at the cap
or c/T in resonance; those that are not resonant get no correction.
Each term's estimate thus falls as T passes TAIL_EXPANSION_MIN / mu_eff,
and so does their sum: between those breakpoints it is p / T^3 + q / T,
and the smallest T within budget is the root of a cubic in the first
interval where the budget is met.  T then stays between
t_min = max(20 c, 4 pi / lam, 8 h) and the cap T_CAP_FACTOR * c.  Where
the uncorrected rule needed T ~ 1/tol, the corrected one needs
T ~ tol^(-1/3).  The model leaves rounding out.

Cost model: K(c + i w) e^(i lam w) is needed at every node w_j = j h,
j = 0 .. ceil(T/h), for the `terms` spectral values kept.  The nodes
form an arithmetic progression, so with B = ceil(sqrt(nodes)) and
j = q B + r,

    e^(i (lam - lam_n) w_j) = e^(i (lam - lam_n) q B h) * e^(i (lam - lam_n) r h),

and the trace on the grid is one complex matrix product P @ E of a
(nodes/B) x terms table P[q, n] = a_n e^(i (lam - lam_n) q B h) with a
terms x B table E[n, r] = e^(i (lam - lam_n) r h).  That costs about
2 sqrt(nodes) * terms complex exponentials and nodes * terms complex
multiply-adds in one GEMM.  P is built and multiplied in row groups of
at most BLOCK_BYTES of working arrays, but E is built whole: terms x
ceil(sqrt(nodes)) complex values, and building it takes about three
times that.  Both factors grow with lam, so the transient memory of one
call is BLOCK_BYTES plus a table that grows about as lam^1.5 on a
Weyl-law spectrum; ROADMAP.md item 12 would tile E as well.  One sweep
gives both the trapezoid sum and the last period's sum, each reduced by
np.sum, so no result depends on the number of BLAS threads.  The kept
terms, their coefficients a_n, phases g_n and frequencies mu_eff are
derived once per call and shared by the choice of T, the trace and the
tail.  Choosing T sorts the terms once; the tail takes e^(i pi g_n) and
z_n^M from one two-row phasor table of the expanded terms, at most 2 *
terms exponentials.

Phases: (lam - lam_n) j h reaches thousands of radians, and rounding it
to a double moves it by about 1e-13 rad.  Near a resonance (lam_n close
to lam) the real part of the integrand is only c/w of its modulus, so
that error is amplified by up to T/c.  The phase is therefore carried in
turns as a double-double, (lam - lam_n) h / (2 pi) = g_hi + g_lo, and
reduced modulo one turn before the exponential, which leaves an absolute
phase error of a few 1e-16 rad whatever j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, InsufficientDataError
from .evaltable import EvalTable
from .spectrum import Spectrum
from .transforms import CountingMode, counting

KAPPA = 2.0                  # target c * lam for the auto contour
AUTO_TRUNCATION_TOL = 2e-3   # absolute truncation-error budget for auto T
T_CAP_FACTOR = 1e5           # hard cap T <= T_CAP_FACTOR * c
TERM_DROP_EXPONENT = 46.0    # drop spectral terms with c*(lam_n - lam) beyond this
BLOCK_BYTES = 1 << 24       # working-array budget of one row group of the contour kernel
TAIL_EXPANSION_MIN = 4.0     # least mu_eff * T at which a term's tail is expanded

# 1/(2 pi) as the unevaluated sum of two doubles
_INV_2PI_HI = 0.15915494309189535
_INV_2PI_LO = -9.839338337591243e-18


@dataclass(frozen=True)
class InversionConfig:
    """Contour abscissa c, truncation height T, and trapezoid step h.

    Left all None (the default), the three are derived from the evaluation
    point and the spectrum; a manual configuration must supply them all,
    finite, with c > 0, 0 < h < T and T/h finite.
    """

    c: float | None = None
    T: float | None = None
    h: float | None = None

    def __post_init__(self):
        given = [x is not None for x in (self.c, self.T, self.h)]
        if not any(given):
            return
        if not all(given):
            raise ConfigurationError("manual inversion config requires c, T and h")
        if not (0 < self.c < math.inf):
            raise ConfigurationError(f"contour abscissa c must be positive and finite, got {self.c!r}")
        if not (0 < self.h < self.T and self.T / self.h < math.inf):
            raise ConfigurationError(f"need 0 < h < T with T/h finite, got h={self.h!r}, T={self.T!r}")


@dataclass(frozen=True)
class InversionResult:
    value: float
    oscillation_estimate: float
    config_used: InversionConfig


def abscissa_estimate(s: Spectrum) -> float:
    """Estimate the abscissa of convergence from the stored tail, as a diagnostic.

    The maximum of (ln n_k)/lam_k over the top half of the spectrum, n_k
    the cumulative index at each distinct eigenvalue.  The contour of
    bromwich_invert no longer depends on it.
    """
    if s.total_count < 32:
        raise InsufficientDataError(
            f"abscissa estimate needs >= 32 eigenvalues (with multiplicity), got {s.total_count}"
        )
    k0 = s.values.size // 2
    lam = s.values[k0:]
    n_k = s.cumulative[k0 + 1 :].astype(np.float64)
    positive = lam > 0
    lam = lam[positive]
    n_k = n_k[positive]
    if lam.size == 0:
        raise InsufficientDataError("no positive eigenvalues in the spectrum tail")
    return float(np.max(np.log(n_k) / lam))


def _resolve_config(s: Spectrum, lam: float, cfg: InversionConfig):
    """The contour for N(lam), and the _terms state of the spectral terms it keeps.

    The auto c bounds the aliases (module docstring); only a manual c can overflow.
    """
    c = cfg.c
    if c is None:
        c = max(KAPPA, math.log(s.total_count / (1e-3 * AUTO_TRUNCATION_TOL)) / 16.0) / lam
    # checked before _auto_truncation, which evaluates e^(c lam) itself
    if c * lam > 700.0:
        raise ConfigurationError(
            f"e^(c*lam) overflows for c*lam = {c * lam:g}; choose a smaller contour abscissa"
        )
    h = math.pi / (8.0 * lam) if cfg.h is None else cfg.h
    terms = _terms(s, lam, c, h)
    if cfg.c is None:
        cfg = InversionConfig(c=c, T=_auto_truncation(terms, lam, c, h), h=h)
    return cfg, terms


def _terms(s: Spectrum, lam: float, c: float, h: float):
    """(coeffs, g_hi, g_lo, mu_eff) of the terms with c (lam_n - lam) <= TERM_DROP_EXPONENT.

    coeffs_n = mult_n e^(-c lam_n); g_hi + g_lo = (lam - lam_n) h / (2 pi),
    the phase per step in turns as a double-double; mu_eff = 2 |sin((lam -
    lam_n) h / 2)| / h, the frequency as the grid sees it, 0 in resonance.
    Terms further above lam are damped below resolution and dropped.
    """
    keep = c * (s.values - lam) <= TERM_DROP_EXPONENT
    values = s.values[keep]
    coeffs = s.multiplicities[keep] * np.exp(-values * c)
    mu_eff = np.abs(2.0 * np.sin(0.5 * (lam - values) * h)) / h
    return (coeffs, *_turns_per_step(lam, values, h), mu_eff)


def _auto_truncation(terms, lam: float, c: float, h: float) -> float:
    """The smallest T in [t_min, T_CAP_FACTOR c] whose predicted tail error is within budget.

    Per unit of a_n e^(c lam) / pi, a term of wrapped frequency mu_eff
    leaves 2 / (mu_eff T)^3 once its tail is expanded (mu_eff T >=
    TAIL_EXPANSION_MIN), 1 / (mu_eff T) before that, and c / T in
    resonance.  Past its breakpoint TAIL_EXPANSION_MIN / mu_eff a term
    moves from the second kind to the first, so the predicted error
    decreases with T; between breakpoints it is p / T^3 + q / T.  A term
    with mu_eff T < 1/2 even at the cap (mu_eff is rounding noise near an
    alias, or lam is within it of lam_n) leaves at most 2 instead: pi/2
    from the sine integral, plus c/T <= 1/20 and h/T <= 1/8 for T >=
    t_min.  These terms take a fixed share r of the budget, the cubic is
    solved in the 1 - r left, and T is the cap if r >= 1.
    """
    coeffs, _, _, mu_eff = terms
    t_cap = T_CAP_FACTOR * c
    a_n = coeffs * (math.exp(c * lam) / (math.pi * AUTO_TRUNCATION_TOL))  # budget 1
    resonant = mu_eff == 0.0
    bounded = ~resonant & (mu_eff * t_cap < 0.5)
    slack = 1.0 - 2.0 * float(np.sum(a_n[bounded]))
    if not slack > 0.0:
        return t_cap
    a_n /= slack  # the other terms' sizes in units of the budget they have left
    q_resonant = c * float(np.sum(a_n[resonant]))
    live = ~(resonant | bounded)
    order = np.argsort(-mu_eff[live], kind="stable")
    a, mu = a_n[live][order], mu_eff[live][order]
    breaks = TAIL_EXPANSION_MIN / mu  # ascending
    # p[k], q[k]: the coefficients once the first k terms are expanded
    p = np.concatenate(([0.0], np.cumsum(2.0 * a / mu**3)))
    q = q_resonant + np.concatenate((np.cumsum((a / mu)[::-1])[::-1], [0.0]))
    # the first breakpoint at which the budget is met; the root lies below it
    met = p[1:] / breaks**3 + q[1:] / breaks <= 1.0
    k = int(np.argmax(met)) if met.any() else breaks.size
    t_req = _cubic_root(float(p[k]), float(q[k]))
    if k < breaks.size:
        t_req = min(t_req, float(breaks[k]))
    t_min = max(20.0 * c, 4.0 * math.pi / lam, 8.0 * h)
    return float(min(max(t_req, t_min), t_cap))


def _cubic_root(p: float, q: float) -> float:
    """The positive root of T = q + p / T^2 (p, q >= 0, not both 0), by Newton from below.

    T - q - p / T^2 increases and is concave in T, so the iterates rise
    monotonically from max(q, p^(1/3)), which is at most the root.
    """
    if p == 0.0:
        return q
    t = max(q, p ** (1.0 / 3.0))
    while True:
        step = (q + p / (t * t) - t) / (1.0 + 2.0 * p / t**3)
        if not (step > 0.0 and t + step > t):
            return t
        t += step


def bromwich_invert(s: Spectrum, lam: float, cfg: InversionConfig | None = None) -> InversionResult:
    """Evaluate the contour integral for N(lam) by the tail-corrected trapezoidal rule.

    Away from eigenvalues the value converges to the counting function;
    at an eigenvalue it converges to the jump midpoint.  The oscillation
    estimate is the magnitude of the last contour segment's contribution
    to the uncorrected sum (one oscillation period), a loose upper proxy
    for the truncation error that remains.
    """
    if not (0 < lam < math.inf):
        raise DomainError(f"inversion point must be positive and finite, got {lam!r}")
    cfg, terms = _resolve_config(s, lam, cfg or InversionConfig())
    trapezoid, tail, oscillation = _contour_sums(terms, lam, cfg)
    return InversionResult(trapezoid + tail, oscillation, cfg)


def _contour_sums(terms, lam: float, cfg: InversionConfig):
    """(trapezoid, tail, oscillation) on a resolved contour, each scaled by e^(c lam) h / pi.

    trapezoid is the trapezoid sum of the _terms state over nodes 0 .. M =
    ceil(T/h), tail the terms' sums past M, and oscillation the sum over
    the last period of trapezoid, floored at 2^-40 (1 + |trapezoid|).
    """
    c, T, h = cfg.c, cfg.T, cfg.h
    m_steps = int(math.ceil(T / h))
    scale = math.exp(c * lam) / math.pi * h
    # the last full oscillation period of e^(i lam w): nodes j_tail .. m_steps
    n_tail = max(int(math.ceil(2.0 * math.pi / (lam * h))), 2)
    j_tail = max(m_steps + 1 - n_tail, 0)

    # one sweep: each node at weight 1, then half of each end node taken back
    total = last_period = 0.0
    for j, trace in _trace_on_grid(terms, m_steps + 1):
        f = np.real(trace / (c + 1j * (j * h)))
        if j[0] == 0:
            f_first = f[0]
        total += float(np.sum(f))
        last_period += float(np.sum(f[j >= j_tail]))
    f_last = f[-1]
    trapezoid = scale * (total - 0.5 * (f_first + f_last))
    osc_raw = abs(scale * (last_period - 0.5 * f_last))
    oscillation = max(osc_raw, 2.0**-40 * (1.0 + abs(trapezoid)))
    tail = scale * _tail_sum(terms, c, T, h, m_steps)
    return trapezoid, tail, oscillation


def _tail_sum(terms, c, T, h, m):
    """sum_n coeffs_n Re tau_n, tau_n the trapezoid tail of term n past node m, half end weight included.

    With z = e^(2 pi i g), g = g_hi + g_lo, and g_j = 1/(c + i j h),
    summation by parts gives, to second order,

        tau = z^m g_m (1/(1 - z) - 1/2) + z^(m+1) (g_(m+1) - g_m) / (1 - z)^2
            = z^m (g_m (i/2) cot(pi g) - (g_(m+1) - g_m) / (4 sin(pi g)^2)),

    for terms with mu_eff T >= TAIL_EXPANSION_MIN; e^(i pi g) and z^m come
    from one phasor table of those terms.  A resonant term (mu_eff = 0)
    has Re tau = atan(c/(m h)) / h by Euler-Maclaurin; the terms in
    between get no correction.
    """
    coeffs, g_hi, g_lo, mu_eff = terms
    expanded = mu_eff * T >= TAIL_EXPANSION_MIN
    half, z_m = _unit_phasors(g_hi[expanded], g_lo[expanded], np.array([0.5, float(m)]))
    sin, cos = half.imag, half.real
    g_m = 1.0 / (c + 1j * (m * h))
    dg = -1j * h * g_m / (c + 1j * ((m + 1) * h))  # g_(m+1) - g_m
    tau = coeffs[expanded] * z_m * ((0.5j * g_m) * (cos / sin) - dg / (4.0 * sin * sin))
    return float(np.sum(tau.real)) + math.atan(c / (m * h)) / h * float(np.sum(coeffs[mu_eff == 0.0]))


def _trace_on_grid(terms, count):
    """Yield (j, sum_n coeffs_n e^(2 pi i (g_hi + g_lo)_n j)) in blocks covering 0 .. count - 1.

    Node j = q B + r with B = ceil(sqrt(count)): the trace is the product
    of a row group of P[q, n] = coeffs_n e^(2 pi i g_n q B) with
    E[n, r] = e^(2 pi i g_n r), row groups sized by BLOCK_BYTES.
    """
    coeffs, g_hi, g_lo, _ = terms
    width = math.isqrt(count - 1) + 1
    rows = -(-count // width)
    table = _unit_phasors(g_hi, g_lo, np.arange(width, dtype=np.float64)).T
    # bytes per row of P: phase arithmetic, exponentials and P itself per
    # term; trace, node indices and integrand temporaries per column
    row_bytes = 96 * coeffs.size + 112 * width
    group = max(BLOCK_BYTES // row_bytes, 1)
    for q0 in range(0, rows, group):
        starts = width * np.arange(q0, min(q0 + group, rows))
        trace = (coeffs * _unit_phasors(g_hi, g_lo, starts.astype(np.float64))) @ table
        j = np.arange(starts[0], min(starts[-1] + width, count))
        yield j, trace.ravel()[: j.size]


def _split(a):
    """Dekker split: a = hi + lo exactly, each half with at most 26 significant bits."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _turns_per_step(lam, values, h):
    """(lam - values_n) h / (2 pi) as a double-double (hi, lo), relative error about 1e-31."""
    d = lam - values
    b = d - lam
    d_lo = (lam - (d - b)) + (-values - b)  # two-sum: lam - values_n = d + d_lo exactly
    d_hi_h, d_hi_l = _split(d)
    h_h, h_l = _split(h)
    p = d * h
    e = ((d_hi_h * h_h - p) + d_hi_h * h_l + d_hi_l * h_h) + d_hi_l * h_l + d_lo * h
    p_hi = p + e
    p_lo = e - (p_hi - p)
    p_h, p_l = _split(p_hi)
    c_h, c_l = _split(_INV_2PI_HI)
    q = p_hi * _INV_2PI_HI
    e = ((p_h * c_h - q) + p_h * c_l + p_l * c_h) + p_l * c_l
    e += p_hi * _INV_2PI_LO + p_lo * _INV_2PI_HI
    g_hi = q + e
    return g_hi, e - (g_hi - q)


def _unit_phasors(g_hi, g_lo, k):
    """e^(2 pi i (g_hi + g_lo) k) as a len(k) x len(g) array, for integer or half-integer k.

    The product g_hi k is split exactly into a double and its rounding
    error, and its whole turns are removed before the exponential.
    """
    g_h, g_l = _split(g_hi)
    k_h, k_l = _split(k)
    p = np.multiply.outer(k, g_hi)
    e = np.multiply.outer(k_h, g_h) - p
    e += np.multiply.outer(k_l, g_h)
    e += np.multiply.outer(k_h, g_l)
    e += np.multiply.outer(k_l, g_l)
    e += np.multiply.outer(k, g_lo)
    p -= np.round(p)
    p += e
    return np.exp((2j * math.pi) * p)


def invert_profile(s: Spectrum, grid, cfg: InversionConfig | None = None) -> EvalTable:
    """Batch inversion over a grid of evaluation points.

    One row per point, sorted by abscissa; rows whose rounded value
    disagrees with the counting oracle carry match="no".  Per-row errors
    are recorded as match="error" without aborting the batch; a nan point,
    whose count is undefined, raises DomainError.
    """
    grid = [float(x) for x in grid]
    if not grid:
        raise DomainError("inversion grid must not be empty")
    table = EvalTable(("lambda", "value", "oscillation_estimate", "rounded", "oracle", "match"))
    for lam in sorted(grid):
        oracle = counting(s, lam, CountingMode.STRICT)
        try:
            res = bromwich_invert(s, lam, cfg)
        except (DomainError, ConfigurationError) as exc:
            table.append(lam, math.nan, math.nan, None, oracle, f"error: {exc}")
            continue
        rounded = int(math.floor(res.value + 0.5))
        table.append(
            lam,
            res.value,
            res.oscillation_estimate,
            rounded,
            oracle,
            "yes" if rounded == oracle else "no",
        )
    return table
