"""Sums that skip the exponentials which round to 0.0, held bit for bit to
the sum of every term (``oracles.full_sum``), and the quadrature that skips
the panels past them, held to its panel plan with every panel built
(``oracles.boole_quadrature``)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from heatcount import (
    SmoothingConfig,
    Spectrum,
    generate_constant_density,
    generate_interval,
    generate_torus,
    heat_trace,
    laplace_of_counting,
    partial_exponential_sum,
    smoothed_counting,
    smoothing_error_bound,
)
from heatcount.transforms import EXP_ZERO, FSUM_THRESHOLD, _live

# spectra on both sides of FSUM_THRESHOLD, with and without multiplicities
LARGE = {
    "interval-10k": lambda: generate_interval(math.pi, 10_000),
    "const-at-threshold": lambda: generate_constant_density(1.0, FSUM_THRESHOLD),
    "const-past-threshold": lambda: generate_constant_density(0.37, FSUM_THRESHOLD + 1),
    "torus-1e5": lambda: generate_torus(1e5),
    "torus-1e6": lambda: generate_torus(1e6),
    "const-200k": lambda: generate_constant_density(1.0, 200_000),
}


@functools.cache
def large(name):
    return LARGE[name]()


file_spectra = st.lists(
    st.tuples(st.floats(0.0, 1e3), st.integers(1, 1000)), min_size=1, max_size=300
).map(lambda entries: Spectrum.from_entries([v for v, _ in entries], [m for _, m in entries]))
spectra = st.one_of(st.sampled_from(sorted(LARGE)).map(large), file_spectra)

# the largest exponent of the sum: e^(-x) is subnormal up to x = 745.1332191019411
# and 0.0 from the next double on
tops = st.one_of(
    st.floats(700.0, 1e5),
    st.sampled_from([745.1332191019411, 745.1332191019412, 745.2, EXP_ZERO,
                     math.nextafter(EXP_ZERO, math.inf)]),
)


@given(spectra, tops, st.floats(0.0, 1.5))
@example(large("const-past-threshold"), 745.1332191019412, 0.5)
@example(large("const-at-threshold"), 1e5, 0.01)
@settings(max_examples=60, deadline=None)
def test_exponential_sums_match_full_sums(s, top, where):
    values, mults = s.values, s.multiplicities
    t = top / float(values[-1]) if values[-1] > 0 else top
    # a largest value near 5e-324 puts t past the double range, where every
    # operation raises DomainError (test_transforms holds that)
    assume(t < math.inf)
    terms = np.exp(-values * t)
    assert heat_trace(s, t).value.hex() == oracles.full_sum(mults * terms).hex()
    steps = mults * (terms - math.exp(-s.coverage * t))
    assert laplace_of_counting(s, t, "step_exact").hex() == oracles.full_sum(steps).hex()
    u = where * float(values[-1])
    below = values <= u
    for tt in (t, 0.0):
        expected = oracles.full_sum(mults[below] * np.exp(-values[below] * tt))
        assert partial_exponential_sum(s, u, tt).hex() == expected.hex()


@given(spectra, tops, st.floats(0.0, 1.0))
@example(large("torus-1e6"), 1e5, 0.0)
@example(large("const-past-threshold"), EXP_ZERO, 0.999)
@settings(max_examples=60, deadline=None)
def test_smoothing_sums_match_full_sums(s, top, where):
    values, mults = s.values, s.multiplicities
    k = int(where * (values.size - 1))
    gap = float(values[k + 1] - values[k]) if k + 1 < values.size else 1.0
    lam = float(values[k]) + 0.5 * gap
    assume(lam not in values)
    # top is the exponent of the largest value, beta (lam_max - lam)
    beta = top / (float(values[-1]) - lam) if values[-1] > lam else top
    x = beta * (values - lam)
    e = np.exp(-np.abs(x))
    occupation = np.where(x > 0, e, 1.0) / (1.0 + e)
    smoothed = smoothed_counting(s, lam, SmoothingConfig(beta=beta))
    assert smoothed.hex() == oracles.full_sum(mults * occupation).hex()
    d = np.exp(-beta * np.abs(values - lam))
    assert smoothing_error_bound(s, lam, beta).hex() == oracles.full_sum(mults * (d / (1.0 + d))).hex()


sorted_values = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50, unique=True).map(
    lambda xs: np.array(sorted(xs))
)


@given(sorted_values, st.floats(1e-6, 1e16), st.floats(-1e6, 1e6))
# the rounded threshold 109.44713715567023 lets through 109.44713715567025,
# whose exponent rounds to exactly EXP_ZERO
@example(np.array([1.0, 109.44713715567025, 200.0]), 6.998168401651041, 2.847816135615888)
def test_live_drops_only_exponents_past_exp_zero(values, rate, origin):
    k = _live(values, rate, origin)
    with np.errstate(over="ignore"):
        exponents = rate * (values - origin)
    assert 0 <= k <= values.size
    assert np.all(exponents[k:] > EXP_ZERO)


def test_live_keeps_every_value_at_zero_and_tiny_rate():
    values = np.array([0.0, 1.0, 1e300])
    assert _live(values, 0.0) == 3
    assert _live(values, 5e-324) == 3  # EXP_ZERO / rate passes the double range


# const-200k and torus-1e6 hold more than FSUM_THRESHOLD values, torus-1e5
# holds 24,029
QUADRATURE_CASES = [(name, t) for name in ("const-200k", "torus-1e5", "torus-1e6")
                    for t in (1e-3, 1e-2, 0.1)]


@pytest.mark.parametrize("name, t", QUADRATURE_CASES)
def test_quadrature_bits_are_pinned(name, t):
    # the oracle builds every panel up to the domain end, those past the zero cut too
    s = large(name)
    quad = oracles.boole_quadrature(s.values, s.multiplicities, s.coverage, t)
    assert laplace_of_counting(s, t, "quadrature").hex() == quad.hex()
