"""Recovering the counting function from the heat trace.

The counting function is the inverse Laplace transform of K(t)/t,
evaluated along a vertical contour Re(t) = c:

    N(lam) = (1/2 pi i) * integral_{c-i inf}^{c+i inf} K(t) e^(lam t) / t dt,

with c above the abscissa of convergence of the Dirichlet series, here
estimated as the tail maximum of (ln n)/lam_n.  Conjugate symmetry folds
the contour onto [0, T]:

    N(lam) = (e^(c lam) / pi) * integral_0^T Re[K(c + i w) e^(i lam w) / (c + i w)] dw,

computed by the trapezoidal rule with step h.  At a jump the limit is
the midpoint N(lam-) + mult/2.

Contour selection: the trapezoid discretization with step h reproduces
the counting function plus aliased copies N(lam + 2 pi k / h) damped by
e^(-2 pi c k / h); with h = pi/(8 lam) and c = kappa/lam the damping is
e^(-16 kappa k).  kappa = 2 keeps aliases below 1e-12 while keeping the
e^(c lam) amplification of the truncated-tail error small, and T is
chosen from a per-term bound on that tail so the truncation error stays
below AUTO_TRUNCATION_TOL.

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
at most BLOCK_BYTES of working arrays, so the transient memory of one
call is BLOCK_BYTES plus the table E, whatever the height T.  One sweep
gives both the trapezoid sum and the last period's sum, each reduced by
np.sum, so no result depends on the number of BLAS threads.

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
    """Estimate the abscissa of convergence from the stored tail.

    Uses the cumulative index n_k at each distinct eigenvalue over the
    top half of the spectrum and returns the maximum of (ln n_k)/lam_k
    there.
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


def _resolve_config(s: Spectrum, lam: float, cfg: InversionConfig) -> InversionConfig:
    try:
        est = abscissa_estimate(s)
    except InsufficientDataError:
        est = 0.0  # small spectra: fall back to the pure damping target
    if cfg.c is None:
        c = max(2.0 * est, KAPPA / lam)
    elif cfg.c <= est:
        raise ConfigurationError(
            f"contour abscissa c={cfg.c!r} does not exceed the convergence abscissa estimate {est!r}"
        )
    else:
        c = cfg.c
    # checked before _auto_truncation, which evaluates e^(c lam) itself
    if c * lam > 700.0:
        raise ConfigurationError(
            f"e^(c*lam) overflows for c*lam = {c * lam:g}; choose a smaller contour abscissa"
        )
    if cfg.c is not None:
        return cfg
    h = math.pi / (8.0 * lam)
    return InversionConfig(c=c, T=_auto_truncation(s, lam, c, h), h=h)


def _auto_truncation(s: Spectrum, lam: float, c: float, h: float) -> float:
    """Pick T so the estimated contour-truncation error is below budget.

    The tail of the folded integral past T contributes, per spectral term,
    about a_n e^(c lam) / (pi mu T) with mu the term's oscillation
    frequency |lam - lam_n| as seen by the trapezoid grid (wrapped at the
    sampling frequency); a term in resonance (mu = 0) leaves a c/(pi T)
    tail instead.
    """
    a_n = s.multiplicities * np.exp(-np.minimum(c * s.values, 745.0))
    mu = lam - s.values
    mu_eff = np.abs(2.0 * np.sin(0.5 * mu * h)) / h
    weights = np.where(mu_eff < 1e-9 * lam, c, 1.0 / np.maximum(mu_eff, 1e-300))
    t_req = math.exp(c * lam) * float(np.sum(a_n * weights)) / (math.pi * AUTO_TRUNCATION_TOL)
    t_min = max(20.0 * c, 4.0 * math.pi / lam, 8.0 * h)
    return float(min(max(t_req, t_min), T_CAP_FACTOR * c))


def bromwich_invert(s: Spectrum, lam: float, cfg: InversionConfig | None = None) -> InversionResult:
    """Evaluate the contour integral for N(lam) by the trapezoidal rule.

    Away from eigenvalues the value converges to the counting function;
    at an eigenvalue it converges to the jump midpoint.  The oscillation
    estimate is the magnitude of the last contour segment's contribution
    (one oscillation period), a proxy for the truncated-tail size.
    """
    if not (0 < lam < math.inf):
        raise DomainError(f"inversion point must be positive and finite, got {lam!r}")
    cfg = _resolve_config(s, lam, cfg or InversionConfig())
    c, T, h = cfg.c, cfg.T, cfg.h

    # Terms too far above lam are damped below resolution; drop them.
    keep = c * (s.values - lam) <= TERM_DROP_EXPONENT
    values = s.values[keep]
    coeffs = s.multiplicities[keep] * np.exp(-values * c)

    m_steps = int(math.ceil(T / h))
    prefactor = math.exp(c * lam) / math.pi
    # the last full oscillation period of e^(i lam w): nodes j_tail .. m_steps
    n_tail = max(int(math.ceil(2.0 * math.pi / (lam * h))), 2)
    j_tail = max(m_steps + 1 - n_tail, 0)

    # one sweep: each node at weight 1, then half of each end node taken back
    total = tail = 0.0
    for j, trace in _trace_on_grid(values, coeffs, h, m_steps + 1, lam):
        f = np.real(trace / (c + 1j * (j * h)))
        if j[0] == 0:
            f_first = f[0]
        total += float(np.sum(f))
        tail += float(np.sum(f[j >= j_tail]))
    f_last = f[-1]
    value = prefactor * h * (total - 0.5 * (f_first + f_last))
    osc_raw = abs(prefactor * h * (tail - 0.5 * f_last))
    oscillation = max(osc_raw, 2.0**-40 * (1.0 + abs(value)))
    return InversionResult(value, oscillation, cfg)


def _trace_on_grid(values, coeffs, h, count, lam):
    """Yield (j, sum_n coeffs_n e^(i (lam - values_n) j h)) in blocks covering 0 .. count - 1.

    Node j = q B + r with B = ceil(sqrt(count)): the trace is the product
    of a row group of P[q, n] = coeffs_n e^(i (lam - values_n) q B h) with
    E[n, r] = e^(i (lam - values_n) r h), row groups sized by BLOCK_BYTES.
    """
    width = math.isqrt(count - 1) + 1
    rows = -(-count // width)
    g_hi, g_lo = _turns_per_step(lam, values, h)
    table = _unit_phasors(g_hi, g_lo, np.arange(width, dtype=np.float64)).T
    # bytes per row of P: phase arithmetic, exponentials and P itself per
    # term; trace, node indices and integrand temporaries per column
    row_bytes = 96 * values.size + 112 * width
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
    """e^(2 pi i (g_hi + g_lo) k) as a len(k) x len(g) array, for integer-valued k.

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
    are recorded as match="error" without aborting the batch.
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
