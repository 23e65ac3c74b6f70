"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (pure-python loops, math.fsum,
one exponential per term and node) and shares no code path with the
package.
"""

from __future__ import annotations

import base64
import cmath
import json
import math
import struct
from fractions import Fraction

import numpy as np


def torus_multiplicities(lam_max: float) -> dict[int, int]:
    """Lattice-point counts: mult[k] = #{(m, n) in Z^2 : m^2 + n^2 = k}."""
    side = int(math.isqrt(int(lam_max)))
    counts: dict[int, int] = {}
    for m in range(-side, side + 1):
        for n in range(-side, side + 1):
            k = m * m + n * n
            if k <= lam_max:
                counts[k] = counts.get(k, 0) + 1
    return counts


def rectangle_eigenvalues(a: float, b: float, lam_max: float) -> list[float]:
    """Every sum x_m + y_n <= lam_max over m, n >= 1, with multiplicity, sorted.

    x_m = (m pi/a) * (m pi/a) and y_n = (n pi/b) * (n pi/b): squares as
    products, the rounding numpy gives an array squared.  Rounding is
    monotone, so the sums grow with m and n and each loop ends at the
    first sum above lam_max.
    """
    ka, kb = math.pi / a, math.pi / b
    out = []
    m = 1
    while (m * ka) * (m * ka) + kb * kb <= lam_max:
        n = 1
        while (m * ka) * (m * ka) + (n * kb) * (n * kb) <= lam_max:
            out.append((m * ka) * (m * ka) + (n * kb) * (n * kb))
            n += 1
        m += 1
    return sorted(out)


def rectangle_key_multiplicities(a: int, b: int, key_max: int) -> dict[int, int]:
    """Exact multiplicities of the a x b rectangle for integer sides.

    lam_{m,n} = pi^2 (m^2 b^2 + n^2 a^2) / (a b)^2, so equal eigenvalues
    are equal integer keys m^2 b^2 + n^2 a^2, free of rounding.  Returns
    {key: count} over m, n >= 1 for the keys up to key_max.
    """
    counts: dict[int, int] = {}
    m = 1
    while m * m * b * b + a * a <= key_max:
        n = 1
        while (key := m * m * b * b + n * n * a * a) <= key_max:
            counts[key] = counts.get(key, 0) + 1
            n += 1
        m += 1
    return counts


def merge_runs(values, rtol: float) -> list[tuple[float, int]]:
    """(value, count) pairs of values merged the naive way, in sorted order.

    A value joins the run before it when its gap to the value before is at
    most rtol times itself; a run is named by its smallest value.
    """
    runs: list[list] = []
    previous = None
    for v in sorted(values):
        if runs and v - previous <= rtol * v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
        previous = v
    return [(v, m) for v, m in runs]


def count_below(eigenvalues, lam: float, strict: bool = True) -> int:
    """Linear-scan counting oracle over an explicit (value, mult) iterable."""
    total = 0
    for value, mult in eigenvalues:
        if (value < lam) if strict else (value <= lam):
            total += mult
    return total


def default_beta_by_scan(values, lam: float, sharpness: float) -> float:
    """sharpness / min |v - lam| over every stored v != lam; sharpness if there is none."""
    dist = np.abs(np.asarray(values) - lam)
    dist = dist[dist > 0]
    return sharpness if dist.size == 0 else sharpness / float(np.min(dist))


def heat_trace_direct(eigenvalues, t: float) -> float:
    """math.fsum of mult * exp(-value * t)."""
    return math.fsum(mult * math.exp(-value * t) for value, mult in eigenvalues)


def full_sum(terms) -> float:
    """math.fsum of every term, zeros included: the correctly rounded sum
    the package returns for a spectral sum of any size."""
    return math.fsum(np.asarray(terms, dtype=np.float64).tolist())


# -- the spectral transforms as first written: one expression per array -------


def exponential_terms(values, mults, t: float):
    """mults * e^(-values t) over every value, the terms of the heat trace,
    of the partial sums and of the quadrature's scale."""
    return mults * np.exp(-values * t)


def step_terms(values, mults, coverage: float, t: float):
    """mults * (e^(-values t) - e^(-coverage t)), the step-exact terms."""
    return mults * (np.exp(-values * t) - math.exp(-coverage * t))


def boole_quadrature(values, mults, t: float, drop_share: float = 1e-12) -> float:
    """t * integral_0^inf N(lam) e^(-lam t) dlam by Boole's rule on the
    package's panel plan, one part per panel, written out with every panel
    whose left-edge factor e^(-a t) is nonzero built.

    A panel runs from each value to the next, where N is the inclusive
    count; the domain is cut at 2 * 746 / t, where the integrand is 0.0.
    Past the last value N is the total count, and that piece is added
    exactly, N e^(-t lam_last).  A panel of scaled width x = w t is split
    into m = ceil(x / x_tau) subpanels of width y = x / m when x > x_tau,
    x_tau^6 = 193536 drop_share (the package's 1e-12 by default).  A part
    is N e^(-a t) y P(e^(-y/4)) / 90 with P by Horner's rule, times
    (1 - e^(-x)) / (1 - e^(-y)) on a split panel, the sum of its m
    subpanels' factors e^(-j y), as numpy rounds each expression; the
    ratio is left out on unsplit panels, whose x may underflow to 0.0.  The
    parts are added by math.fsum.
    """
    cumulative = np.cumsum(mults)
    factors = np.exp(-values * t)
    built = min(int(np.count_nonzero(factors)), values.size - 1)
    right = np.minimum(values[1 : built + 1], 2 * 746.0 / t)
    x_tau = (193536 * drop_share) ** (1 / 6)
    x = (right - values[:built]) * t
    split = x > x_tau
    whole = x[split]
    x[split] = whole / np.ceil(whole / x_tau)
    r = np.exp(-0.25 * x)
    parts = (((r * 7.0 + 32.0) * r + 12.0) * r + 32.0) * r + 7.0
    parts = parts * x * cumulative[:built].astype(np.float64) * factors[:built] / 90.0
    parts[split] *= np.expm1(-whole) / np.expm1(-x[split])
    past = int(cumulative[-1]) * math.exp(-t * values[-1])
    return math.fsum(parts.tolist() + [past])


def boole_quadrature_by_subpanels(values, mults, t: float, drop_share: float = 1e-12) -> float:
    """``boole_quadrature`` with every subpanel's part formed and added on
    its own: an independent reference for the closed form that sums a
    panel's subpanels, not for its bits.

    A panel runs from each value to the next, where N is the inclusive
    count; the domain is cut at 2 * 746 / t, where the integrand is 0.0.
    Past the last value N is the total count, and that piece is added
    exactly, N e^(-t lam_last).  A panel of scaled width x = w t is split
    into ceil(x / x_tau) subpanels when x > x_tau, x_tau^6 =
    193536 drop_share (the package's 1e-12 by default); subpanel j >= 1 is
    the first one's part times e^(-j x) and is dropped once j x reaches
    746, where that factor is 0.0.  A part is N e^(-a t) x P(e^(-x/4)) / 90
    with P by Horner's rule, as numpy rounds each expression; the parts
    are added by math.fsum.
    """
    cumulative = np.cumsum(mults)
    factors = np.exp(-values * t)
    built = min(int(np.count_nonzero(factors)), values.size - 1)
    right = np.minimum(values[1 : built + 1], 2 * 746.0 / t)
    x_tau = (193536 * drop_share) ** (1 / 6)
    x = (right - values[:built]) * t
    m = np.where(x > x_tau, np.ceil(x / x_tau), 1.0)
    x = x / m
    r = np.exp(-0.25 * x)
    first = (((r * 7.0 + 32.0) * r + 12.0) * r + 32.0) * r + 7.0
    first = first * x * cumulative[:built].astype(np.float64) * factors[:built] / 90.0
    parts = [first, [int(cumulative[-1]) * math.exp(-t * values[-1])]]
    for i in np.flatnonzero(m > 1):
        j = np.arange(1, min(m[i], math.ceil(746.0 / x[i])))
        parts.append(np.exp(-(j * x[i])) * first[i])
    return math.fsum(np.concatenate(parts).tolist())


def pairs(spectrum):
    """(value, mult) pairs of a package Spectrum, as plain python floats/ints."""
    return [(float(v), int(m)) for v, m in zip(spectrum.values, spectrum.multiplicities)]


def spectrum_to_dict(spectrum) -> dict:
    """The JSON object of a spectrum file in the entries layout, one object
    per eigenvalue, for the stdlib encoder to write."""
    return {
        "label": spectrum.label,
        "generator": spectrum.generator,
        "cutoff": spectrum.coverage,
        "entries": [{"value": v, "multiplicity": m} for v, m in pairs(spectrum)],
    }


def spectrum_to_decimal_columns(spectrum) -> dict:
    """The JSON object of a spectrum file with its values and multiplicities
    as decimal lists, as one writes by hand, for the stdlib encoder to write."""
    entries = pairs(spectrum)
    return {
        "label": spectrum.label,
        "generator": spectrum.generator,
        "cutoff": spectrum.coverage,
        "values": [v for v, _ in entries],
        "multiplicities": [m for _, m in entries],
    }


def base64_column(items, code: str) -> str:
    """The base64 text of the items packed little-endian by struct, code "d"
    (float64), "B", "H", "I" (unsigned 1, 2, 4 bytes) or "q" (int64)."""
    return base64.b64encode(struct.pack("<%d%s" % (len(items), code), *items)).decode("ascii")


def multiplicity_bytes(mults) -> int:
    """The narrowest of 1, 2, 4 and 8 bytes that holds the largest multiplicity."""
    top = max(mults)
    if top < 256:
        return 1
    if top < 65536:
        return 2
    if top < 4294967296:
        return 4
    return 8


def base64_columns(payload: dict, width: int | None = None) -> dict:
    """A payload with decimal-list columns, its values and multiplicities
    turned into base64 text, the multiplicities ``width`` bytes an item
    (by default the narrowest that holds them) and the width recorded as
    "multiplicity_bytes" before the columns, every other field kept in place."""
    if width is None:
        width = multiplicity_bytes(payload["multiplicities"])
    header = {k: v for k, v in payload.items() if k not in ("values", "multiplicities")}
    return {
        **header,
        "multiplicity_bytes": width,
        "values": base64_column(payload["values"], "d"),
        "multiplicities": base64_column(
            payload["multiplicities"], {1: "B", 2: "H", 4: "I", 8: "q"}[width]
        ),
    }


def spectrum_to_columns(spectrum) -> dict:
    """The JSON object of a spectrum file in the base64 column layout
    save_spectrum writes."""
    return base64_columns(spectrum_to_decimal_columns(spectrum))


def save_entries(spectrum, path) -> None:
    """Write a spectrum file as earlier versions of save_spectrum did: the
    entries layout, indented one space per level, and a newline."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(spectrum_to_dict(spectrum), indent=1) + "\n")


# round(2^160 / (2 pi)), from 120 significant digits of pi
_TURNS_2_160 = 232605209918111709774537830547806037080859518310
# 2 pi to 48 significant digits, read at the platform's long double precision
_TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900576839433879875")
# e^(i pi k / 2) for k = 0..3; multiplying by one of them is exact
_QUARTER_TURNS = np.array([1, 1j, -1, -1j], dtype=np.clongdouble)


def _fixed_point_turns(values, lam, h):
    """(lam - values_n) h / (2 pi) modulo one turn, as integers G_n in units of 2^-96 turn.

    Exact rational differences and products of the doubles, times
    2^160 / (2 pi) in integers, rounded to the nearest unit.
    """
    out = []
    for v in values:
        x = (Fraction(float(lam)) - Fraction(float(v))) * Fraction(float(h)) * _TURNS_2_160
        den = x.denominator << 64
        out.append(((2 * x.numerator + den) // (2 * den)) % 2**96)
    return out


def phases_on_nodes(values, lam, h, j):
    """e^(i (lam - values_n) j h) as a terms x nodes long double array, integer nodes 0 <= j < 2^21.

    G_n j is reduced modulo 2^96 in 32-bit limbs of G_n, so every product
    stays below 2^53.  The top two limbs give the turn modulo one exactly
    in units of 2^-64, by wrapping unsigned 64-bit sums, and its nearest
    quarter turn is split off exactly.  The low limb, the angle left (at
    most pi/4) and its cosine and sine are taken in long double, which on
    x86-64 carries 64 significant bits, so the phasors are within about
    half an ulp of a double.
    """
    j = np.asarray(j, dtype=np.uint64)
    assert j.size == 0 or j.max() < 2**21
    limbs = np.array(
        [[(g >> shift) & 0xFFFFFFFF for shift in (64, 32, 0)] for g in _fixed_point_turns(values, lam, h)],
        dtype=np.uint64,
    ).reshape(-1, 3)
    ld = np.longdouble
    turn = (np.multiply.outer(limbs[:, 0], j) << np.uint64(32)) + np.multiply.outer(limbs[:, 1], j)
    quarter = (turn + np.uint64(2**61)) >> np.uint64(62)
    rest = (turn - (quarter << np.uint64(62))).view(np.int64)
    low = np.multiply.outer(limbs[:, 2], j).astype(ld) * ld(2.0**-96)
    angle = _TWO_PI_LD * (rest.astype(ld) * ld(2.0**-64) + low)
    return _QUARTER_TURNS[quarter] * (np.cos(angle) + 1j * np.sin(angle))


def _exact_total(parts) -> float:
    """The sum of long double arrays, rounded once to a double.

    Each entry x splits exactly into the double nearest x and the double
    x minus it, and math.fsum adds all the halves exactly.
    """
    halves = []
    for x in parts:
        hi = x.astype(np.float64)
        halves += [hi, (x - hi).astype(np.float64)]
    return math.fsum(np.concatenate(halves))


def bromwich_trapezoid(values, mults, lam, c, T, h, drop_exponent):
    """Direct trapezoid sum for the contour inversion: (value, oscillation_estimate).

    One complex exponential per kept term per node, e^(i (lam - lam_n) w)
    from `phases_on_nodes`, nodes w = j h for j = 0..ceil(T/h) with half
    weight at both ends; the oscillation estimate is the same sum over the
    last period 2 pi/lam (half weight at its last node only), floored at
    2^-40 (1 + |value|).  The integrand is formed in long double and its
    sums are exact, so only the integrand's own rounding and the final
    products by e^(c lam) h / pi remain when the sum cancels.
    """
    values = np.asarray(values, dtype=np.float64)
    mults = np.asarray(mults, dtype=np.float64)
    keep = c * (values - lam) <= drop_exponent
    values = values[keep]
    coeffs = mults[keep] * np.exp(-values * c)
    prefactor = math.exp(c * lam) / math.pi
    c_ld = np.longdouble(c)

    def integrand(j):
        trace = coeffs @ phases_on_nodes(values, lam, h, j)
        w = (j * h).astype(np.longdouble)
        return (trace.real * c_ld + trace.imag * w) / (c_ld * c_ld + w * w)

    m_steps = int(math.ceil(T / h))
    f = np.concatenate(
        [integrand(np.arange(a, min(a + 4096, m_steps + 1))) for a in range(0, m_steps + 1, 4096)]
    )
    value = prefactor * h * _exact_total([f, -0.5 * f[:1], -0.5 * f[-1:]])
    n_tail = max(int(math.ceil(2.0 * math.pi / (lam * h))), 2)
    tail = f[max(m_steps + 1 - n_tail, 0) :]
    osc = abs(prefactor * h * _exact_total([tail, -0.5 * tail[-1:]]))
    return value, max(osc, 2.0**-40 * (1.0 + abs(value)))


def trace_on_nodes(values, coeffs, h, j0, count):
    """sum_n coeffs_n e^(-i values_n j h) for j = j0..j0+count-1, one cmath.exp per term."""
    out = []
    for j in range(j0, j0 + count):
        omega = j * h
        terms = [a * cmath.exp(-1j * v * omega) for v, a in zip(values, coeffs)]
        out.append(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)))
    return out


def trapezoid_tail(values, mults, lam, c, T, h, drop_exponent, expand_min):
    """The tail correction of the contour trapezoid from its defining formula: (tail, magnitude).

    For each kept term, z = e^(i (lam - lam_n) h) and g_j = 1/(c + i j h),
    past the last node M = ceil(T/h):

        tau = z^M g_M (1/(1 - z) - 1/2) + z^(M+1) (g_(M+1) - g_M) / (1 - z)^2

    where mu_eff T >= expand_min, mu_eff = |1 - z| / h; atan(c/(M h)) / h
    in resonance, z = 1; nothing in between.  z^M, z^(M+1)
    and z come from `phases_on_nodes` and everything is formed in long
    double.  Both results are scaled by e^(c lam) h / pi: the tail is the
    sum of coeffs_n Re tau_n, the magnitude the sum of coeffs_n times the
    sizes of the parts of tau_n, |g_M| (1/|1 - z| + 1/2) + |g_(M+1) - g_M| / |1 - z|^2,
    which may cancel to far less than their sum (for z near -1, 1/(1 - z)
    is near 1/2).
    """
    values = np.asarray(values, dtype=np.float64)
    mults = np.asarray(mults, dtype=np.float64)
    keep = c * (values - lam) <= drop_exponent
    values = values[keep]
    coeffs = (mults[keep] * np.exp(-values * c)).astype(np.longdouble)
    m = int(math.ceil(T / h))
    z, z_m, z_m1 = phases_on_nodes(values, lam, h, [1, m, m + 1]).T
    c_ld, h_ld = np.longdouble(c), np.longdouble(h)
    g_m = 1 / (c_ld + 1j * (m * h_ld))
    g_m1 = 1 / (c_ld + 1j * ((m + 1) * h_ld))
    mu_eff = np.abs(1 - z) / h_ld
    expanded = mu_eff * np.longdouble(T) >= expand_min
    resonant = mu_eff == 0
    one_minus_z = np.where(expanded, 1 - z, 1)
    first = z_m * g_m * (1 / one_minus_z - 0.5)
    second = z_m1 * (g_m1 - g_m) / one_minus_z**2
    size = np.abs(g_m) * (1 / np.abs(one_minus_z) + 0.5) + np.abs(second)
    tau = np.where(expanded, first + second, 0)
    size = np.where(expanded, size, 0)
    tau = np.where(resonant, np.arctan(c_ld / (m * h_ld)) / h_ld, tau)
    size = np.where(resonant, tau.real, size)
    scale = math.exp(c * lam) / math.pi * h
    return scale * _exact_total([coeffs * tau.real]), scale * float(np.sum(coeffs * size))


def trapezoid_limit(values, mults, lam, c, h, drop_exponent):
    """The limit T -> inf of the contour trapezoid with step h, by Poisson summation, as a Fraction.

    sum_{k >= 0} e^(-2 pi c k / h) N_mid(lam + 2 pi k / h) over the kept
    terms, N_mid counting half the multiplicity at a jump; k < 0 adds
    nothing, as no eigenvalue is negative.  The k = 0 term N_mid(lam) is
    the exact count; the aliases k >= 1 are summed in doubles, and past
    the largest kept value every alias counts all kept terms, a geometric
    series in closed form.
    """
    pairs = [
        (float(v), int(m)) for v, m in zip(values, mults) if c * (float(v) - lam) <= drop_exponent
    ]
    if not pairs:
        return Fraction(0)

    def twice_mid(x):
        return sum(2 * m if v < x else m for v, m in pairs if v <= x)

    period = 2.0 * math.pi / h
    damping = math.exp(-c * period)
    total = sum(m for _, m in pairs)
    aliases = []
    k = 1
    top = max(v for v, _ in pairs)
    while lam + k * period <= top:
        aliases.append(math.exp(-c * period * k) * 0.5 * twice_mid(lam + k * period))
        k += 1
    aliases.append(total * math.exp(-c * period * k) / (1.0 - damping))
    return Fraction(twice_mid(lam), 2) + Fraction(math.fsum(aliases))


def unit_phasors_split_k(g_hi, g_lo, k):
    """e^(2 pi i (g_hi + g_lo) k) as a len(k) x len(g) array, with both factors of g_hi k split.

    Dekker's exact product of k and g_hi, each split into halves of at
    most 26 significant bits, gives g_hi k as a double plus its rounding
    error for any k; the whole turns of the double are removed, and the
    turns left go through numpy's complex exp.
    """

    def split(a):
        t = 134217729.0 * a  # 2^27 + 1
        hi = t - (t - a)
        return hi, a - hi

    k = np.asarray(k, dtype=np.float64)
    g_h, g_l = split(g_hi)
    k_h, k_l = split(k)
    p = np.multiply.outer(k, g_hi)
    e = np.multiply.outer(k_h, g_h) - p
    e += np.multiply.outer(k_l, g_h)
    e += np.multiply.outer(k_h, g_l)
    e += np.multiply.outer(k_l, g_l)
    e += np.multiply.outer(k, g_lo)
    p -= np.round(p)
    p += e
    return np.exp((2j * math.pi) * p)


def predicted_tail_error(values, mults, lam, c, h, T, t_cap, tol, drop_exponent, expand_min):
    """The truncation error the auto-T rule predicts at height T, in units of the budget tol.

    Term by term over the values with c (v - lam) <= drop_exponent: with
    mu = 2 |sin((lam - v) h / 2)| / h, a term of weight
    mult e^(-c v) e^(c lam) / (pi tol) leaves c/T in resonance (mu = 0), 2
    where mu t_cap < 1/2, 2 / (mu T)^3 where mu T >= expand_min and
    1 / (mu T) otherwise; the sizes are added by math.fsum.
    """
    scale = math.exp(c * lam) / (math.pi * tol)
    sizes = []
    for v, m in zip(values, mults):
        v = float(v)
        if c * (v - lam) > drop_exponent:
            continue
        mu = abs(2.0 * math.sin(0.5 * (lam - v) * h)) / h
        if mu == 0.0:
            size = c / T
        elif mu * t_cap < 0.5:
            size = 2.0
        elif mu * T >= expand_min:
            size = 2.0 / (mu * T) ** 3
        else:
            size = 1.0 / (mu * T)
        sizes.append(float(m) * math.exp(-c * v) * scale * size)
    return math.fsum(sizes)
