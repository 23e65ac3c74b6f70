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
count.  T is the least height whose predicted error is within budget.

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
T ~ tol^(-1/3).  The model leaves rounding out.  Its sines, products,
quotients and ordered sums round alike at every numpy dispatch level.

Cost model: K(c + i w) e^(i lam w) is needed at every node w_j = j h,
j = 0 .. ceil(T/h), for the `terms` spectral values kept.  With j =
(q1 B2 + q2) B + r, B = ceil(sqrt(nodes)) and B2 = ceil(sqrt(nodes / B)),
the trace on the grid is the complex matrix product P @ E of a (nodes/B)
x terms table P[(q1, q2), n] = a_n U[q1, n] V[q2, n] with a terms x B
table E[n, r], where U, V and E hold e^(i (lam - lam_n) w) at w =
q1 B2 B h, q2 B h and r h.  That is sqrt(nodes) + 2 nodes^(1/4) cosines
and sines and a broadcast multiply of sqrt(nodes) entries a term, and
nodes * terms complex multiply-adds; a cube-root B would take fewer
phasors but page in a P of nodes^(2/3) rows.  Both factors are
tiled to the one budget BLOCK_BYTES: nodes are taken a group at a time,
at most BLOCK_BYTES / 16 of them, so that the group's trace is at most
BLOCK_BYTES; terms are taken a block at a time, whose E, V and U come
from one phasor table and whose P is formed from it, the two together at
most BLOCK_BYTES / 2; and each block's product, at most the size of the
trace, is added into it.  The transient memory of one call is thus under
3 BLOCK_BYTES plus a few arrays per kept term, whatever lam.  An auto
contour has at most 8 T_CAP_FACTOR c lam / pi + 2 <= 9.1e5 nodes, one
group, so each term's phasors are formed once.  One sweep gives both the
trapezoid sum and the last period's sum, each reduced by np.sum over
slices of BLOCK_BYTES / 128 nodes, so no result depends on the number of
BLAS threads.  The kept terms, their coefficients a_n, phases g_n and
frequencies mu_eff are derived once per call and shared by the choice of
T, the trace and the tail.  Choosing T sorts the terms once; the tail
takes e^(i pi g_n) and z_n^M from two more rows of the phasor table, so
a call whose terms fit one block makes one table.

Phases: (lam - lam_n) j h reaches thousands of radians, and rounding it
to a double moves it by about 1e-13 rad.  Near a resonance (lam_n close
to lam) the real part of the integrand is only c/w of its modulus, so
that error is amplified by up to T/c.  The phase is therefore carried in
turns as a double-double, (lam - lam_n) h / (2 pi) = g_hi + g_lo, and
reduced modulo one turn before its cosine and sine, which leaves an
absolute phase error of a few 1e-16 rad whatever j < 2^26, the limit
InversionConfig sets (an auto contour has at most 9.1e5 nodes).  numpy's
cos and sin there are libm's, as its complex exp was.
"""

from __future__ import annotations

import bisect
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
BLOCK_BYTES = 1 << 24       # bytes of the kernel's trace, of a block's product, twice its table and P
TAIL_EXPANSION_MIN = 4.0     # least mu_eff * T at which a term's tail is expanded

# 1/(2 pi) as the unevaluated sum of two doubles
_INV_2PI_HI = 0.15915494309189535
_INV_2PI_LO = -9.839338337591243e-18


@dataclass(frozen=True)
class InversionConfig:
    """Contour abscissa c, truncation height T, and trapezoid step h.

    Left all None (the default), the three are derived from the evaluation
    point and the spectrum; a manual configuration must supply them all,
    finite, with c > 0, 0 < h < T and ceil(T/h) < 2^26.
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
        if not (0 < self.h < self.T and self.T / self.h <= 2**26 - 1):  # ceil(T/h) < 2**26
            raise ConfigurationError(f"need 0 < h < T with ceil(T/h) < 2**26, got h={self.h!r}, T={self.T!r}")


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

    The auto c bounds the aliases (module docstring); only a manual c can
    overflow.  The auto T cubes each live term's mu_eff and 4 / mu_eff,
    where 1 / (2 T_CAP_FACTOR c) <= mu_eff <= 2 / h = 16 lam / pi; both
    cubes stay below 2^1023 for lam from 8 T_CAP_FACTOR c lam / 2^341 to
    pi 2^341 / 16, about 4e-97 to 9e101, and so do c, h and the cap.
    Outside that range only a manual contour is served.
    """
    c = cfg.c
    if c is None:
        kappa = max(KAPPA, math.log(s.total_count / (1e-3 * AUTO_TRUNCATION_TOL)) / 16.0)
        low, high = 8.0 * T_CAP_FACTOR * kappa / 2.0**341, math.pi / 16.0 * 2.0**341
        if not low <= lam <= high:
            raise DomainError(
                f"the auto contour serves {low!r} <= lam <= {high!r}, got lam={lam!r}; "
                "pass a manual InversionConfig"
            )
        c = kappa / lam
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
    Terms further above lam are damped below resolution and dropped; the
    rounded c (lam_n - lam) never decreases as lam_n grows, so the kept
    terms are a prefix of the sorted values.
    """
    kept = bisect.bisect_right(s.values, TERM_DROP_EXPONENT, key=lambda v: c * (v - lam))
    values = s.values[:kept]
    # numpy's complex exp is libm's at every SIMD level; its float exp is not
    coeffs = s.multiplicities[:kept] * np.exp(values * complex(-c)).real
    mu_eff = np.abs(2.0 * np.sin(0.5 * (lam - values) * h)) / h
    return (coeffs, *_turns_per_step(lam, values, h), mu_eff)


def _auto_truncation(terms, lam: float, c: float, h: float) -> float:
    """The smallest T in [t_min, T_CAP_FACTOR c] whose predicted tail error is within budget.

    Each term's size, per unit of a_n e^(c lam) / pi, is the module
    docstring's.  The terms with mu_eff T < 1/2 even at the cap take a
    fixed share r of the budget, 2 each; the cubic p / T^3 + q / T is
    solved in the 1 - r left, and T is the cap if r >= 1.
    """
    coeffs, _, _, mu_eff = terms
    t_cap = T_CAP_FACTOR * c
    a_n = coeffs * (math.exp(c * lam) / (math.pi * AUTO_TRUNCATION_TOL))  # budget 1
    live = mu_eff * t_cap >= 0.5
    mu, q_resonant = mu_eff, 0.0
    if not live.all():
        resonant = mu_eff == 0.0
        slack = 1.0 - 2.0 * float(np.sum(a_n[~(live | resonant)]))
        if not slack > 0.0:
            return t_cap
        a_n /= slack  # the other terms' sizes in units of the budget they have left
        q_resonant = c * float(np.sum(a_n[resonant]))
        a_n, mu = a_n[live], mu_eff[live]
    order = np.argsort(-mu, kind="stable")
    a, mu = a_n[order], mu[order]
    breaks = TAIL_EXPANSION_MIN / mu  # ascending
    # p[k], q[k]: the coefficients once the first k terms are expanded (cubes as products, not power)
    p, q = np.zeros((2, mu.size + 1))
    np.cumsum(2.0 * a / (mu * mu * mu), out=p[1:])
    np.cumsum((a / mu)[::-1], out=q[:-1][::-1])
    q += q_resonant
    # the first breakpoint at which the budget is met; the root lies below it
    met = p[1:] / (breaks * breaks * breaks) + q[1:] / breaks <= 1.0
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
    for the truncation error that remains.  The auto contour serves lam
    from about 4e-97 to 9e101 (``_resolve_config``); outside that range a
    DomainError names it.
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
    ends = np.empty((2, terms[0].size), dtype=complex)  # filled by the sweep
    for j, trace in _trace_on_grid(terms, m_steps + 1, ends):
        f = np.real(trace / (c + j * (1j * h)))
        if j[0] == 0:
            f_first = f[0]
        total += float(f.sum())
        last_period += float(f[max(j_tail - j[0], 0) :].sum())
    f_last = f[-1]
    trapezoid = scale * (total - 0.5 * (f_first + f_last))
    osc_raw = abs(scale * (last_period - 0.5 * f_last))
    oscillation = max(osc_raw, 2.0**-40 * (1.0 + abs(trapezoid)))
    tail = scale * _tail_sum(terms, c, T, h, m_steps, ends)
    return trapezoid, tail, oscillation


def _tail_sum(terms, c, T, h, m, ends):
    """sum_n coeffs_n Re tau_n, tau_n the trapezoid tail of term n past node m, half end weight included.

    With z = e^(2 pi i g), g = g_hi + g_lo, and g_j = 1/(c + i j h),
    summation by parts gives, to second order,

        tau = z^m g_m (1/(1 - z) - 1/2) + z^(m+1) (g_(m+1) - g_m) / (1 - z)^2
            = z^m (g_m (i/2) cot(pi g) - (g_(m+1) - g_m) / (4 sin(pi g)^2)),

    for terms with mu_eff T >= TAIL_EXPANSION_MIN, e^(i pi g) and z^m from
    ends.  A resonant term (mu_eff = 0) has Re tau = atan(c/(m h)) / h by
    Euler-Maclaurin; the terms in between get no correction.
    """
    coeffs, _, _, mu_eff = terms
    expanded = mu_eff * T >= TAIL_EXPANSION_MIN
    half, z_m = ends[:, expanded]
    sin, cos = half.imag, half.real
    g_m = 1.0 / (c + 1j * (m * h))
    dg = -1j * h * g_m / (c + 1j * ((m + 1) * h))  # g_(m+1) - g_m
    tau = coeffs[expanded] * z_m * ((0.5j * g_m) * (cos / sin) - dg / (4.0 * sin * sin))
    return float(np.sum(tau.real)) + math.atan(c / (m * h)) / h * float(np.sum(coeffs[mu_eff == 0.0]))


def _trace_on_grid(terms, count, ends):
    """Yield (j, sum_n coeffs_n e^(2 pi i (g_hi + g_lo)_n j)) in slices covering 0 .. count - 1.

    P @ E as in the module docstring; U is offset by the group's first node and
    B2 = ceil(sqrt(rows of a group)).  A block's table is one _unit_phasors call over
    k = (0 .. B - 1, B (0 .. B2 - 1), q1 starts, 1/2, count - 1), its last two rows to ends.
    """
    coeffs, g_hi, g_lo, _ = terms
    width = math.isqrt(count - 1) + 1
    group = min(max(BLOCK_BYTES // 16 // width, 1), -(-count // width)) * width  # 16 bytes a node
    width2 = math.isqrt(group // width - 1) + 1
    step = max(BLOCK_BYTES // 128, 1)

    def product(k, n_rows, n, size):
        phasors = _unit_phasors(g_hi[n : n + size], g_lo[n : n + size], k)
        ends[:, n : n + size] = phasors[-2:]
        top = coeffs[n : n + size] * phasors[width + width2 : -2]
        p = (top[:, None] * phasors[width : width + width2]).reshape(top.shape[0] * width2, -1)
        return (p[:n_rows] @ phasors[:width].T).ravel()

    for j0 in range(0, count, group):
        j1 = min(j0 + group, count)
        k = np.array([*range(width), *range(0, width * width2, width),
                      *range(j0, j1, width * width2), 0.5, count - 1])
        n_rows = -(-(j1 - j0) // width)
        # half the budget: _unit_phasors peaks at 32 bytes an entry, and the
        # table, coeffs U and P take under 16 (2 k.size + n_rows) bytes a term
        size = max(BLOCK_BYTES // (32 * (2 * k.size + n_rows)), 1)
        trace = product(k, n_rows, 0, size)  # an empty block where no term is kept
        for n in range(size, coeffs.size, size):
            trace += product(k, n_rows, n, size)
        for s in range(j0, j1, step):
            j = np.arange(s, min(s + step, j1))
            yield j, trace[s - j0 : s - j0 + j.size]


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
    """e^(2 pi i (g_hi + g_lo) k) as a len(k) x len(g) array, for k integers or 1/2, all below 2^26.

    Such k, like the halves of the split g_hi, have at most 26 significant
    bits, so g_hi k splits exactly into a double and its rounding error.
    Its whole turns are removed before the cosine and sine.
    """
    g_h, g_l = _split(g_hi)
    p = np.multiply.outer(k, g_hi)
    e = np.multiply.outer(k, g_h) - p
    e += np.multiply.outer(k, g_l)
    e += np.multiply.outer(k, g_lo)
    p -= np.round(p)
    p += e
    p *= 2.0 * math.pi
    z = np.empty(p.shape, dtype=complex)
    np.cos(p, out=z.real)
    np.sin(p, out=z.imag)
    return z


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
