"""The exact summation behind large sums, held to math.fsum bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heatcount import (
    SmoothingConfig,
    generate_constant_density,
    heat_trace,
    laplace_of_counting,
    smoothed_counting,
    smoothing_error_bound,
)
from heatcount.transforms import FSUM_THRESHOLD, SUM_CHUNK, _exact_sum

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 1e300, 1e308, -1e308)

term = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # every finite double
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and their neighbours
    st.sampled_from(SPECIAL),
)
term_arrays = st.one_of(
    st.lists(term, max_size=300).map(lambda xs: np.array(xs, dtype=np.float64)),
    hnp.arrays(np.float64, st.integers(0, 3000), elements=term),
)


def outcome(summer, x):
    """The hex of the sum, or the name of the exception it raised."""
    try:
        return summer(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def fsum_list(x):
    return math.fsum(x.tolist())


@given(term_arrays)
@example(np.array([]))
@example(np.array([-0.0, -0.0]))
@example(np.array([1e308, 1e308]))
@example(np.array([1e308, 1e308, -1e308]))  # math.fsum overflows on the way
@example(np.array([5e-324, 2.0**-1022, -5e-324]))
@example(np.array([1.0, 2.0**-53, 2.0**-105]))  # just past a halfway case
@example(np.array([1.0, 2.0**-53]))  # exactly halfway, ties to even
def test_exact_sum_is_fsum(x):
    assert outcome(_exact_sum, x) == outcome(fsum_list, x)


@given(term_arrays, term_arrays)
def test_exact_sum_is_fsum_under_cancellation(x, y):
    z = np.concatenate((x, y, -x[::-1]))
    assert outcome(_exact_sum, z) == outcome(fsum_list, z)


def random_terms(rng, n):
    """Mixed signs and magnitudes from subnormal to 1e300, with cancellation."""
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    x[::7] = rng.integers(-(2**20), 2**20, x[::7].size) * 5e-324
    x[::11] = 0.0
    x[1::13] = -x[: x[1::13].size]
    return x


@pytest.mark.parametrize("n", [1, 2, 1000, 3000, SUM_CHUNK - 1, SUM_CHUNK, 2 * SUM_CHUNK + 7])
def test_exact_sum_is_fsum_on_random_terms(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = random_terms(rng, n)
        assert _exact_sum(x).hex() == fsum_list(x).hex()


def test_exact_sum_of_tiny_terms():
    # multiples of 2**-1074 from subnormal up to 2**-1034, with subnormal partial sums
    rng = np.random.default_rng(3)
    x = rng.integers(-(2**40), 2**40, 5000) * 5e-324
    assert _exact_sum(x).hex() == fsum_list(x).hex()


def test_overflowing_sum_raises_like_fsum():
    x = np.full(SUM_CHUNK + 1, 1e305)
    with pytest.raises(OverflowError):
        math.fsum(x)
    with pytest.raises(OverflowError):
        _exact_sum(x)


@pytest.mark.parametrize(
    "special, expected",
    [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")],
    ids=["inf", "-inf", "nan"],
)
def test_non_finite_terms_follow_fsum(special, expected):
    x = np.ones(2 * SUM_CHUNK)
    x[SUM_CHUNK + 5] = special  # after a whole chunk has been summed
    assert _exact_sum(x).hex() == fsum_list(x).hex() == expected


def test_opposite_infinities_raise_like_fsum():
    x = np.array([1.0, math.inf, -math.inf])
    with pytest.raises(ValueError):
        math.fsum(x)
    with pytest.raises(ValueError):
        _exact_sum(x)


# -- the library's large sums against a math.fsum oracle ---------------------


@pytest.fixture(scope="module")
def const_above_threshold():
    return generate_constant_density(1.0, FSUM_THRESHOLD + 1)


@pytest.mark.parametrize("t", [1e-5, 1e-4, 1e-3, 0.01])
def test_large_transforms_equal_fsum_oracle(const_above_threshold, t):
    s = const_above_threshold
    values, mults = s.values, s.multiplicities
    assert heat_trace(s, t).value.hex() == fsum_list(mults * np.exp(-values * t)).hex()
    steps = mults * (np.exp(-values * t) - math.exp(-s.coverage * t))
    assert laplace_of_counting(s, t, "step_exact").hex() == fsum_list(steps).hex()


@pytest.mark.parametrize("beta", [1e-3, 0.01, 0.1])
def test_large_smoothing_equals_fsum_oracle(const_above_threshold, beta):
    s = const_above_threshold
    values, mults = s.values, s.multiplicities
    lam = 50_000.5
    x = beta * (values - lam)
    e = np.exp(-np.abs(x))
    occupation = np.where(x > 0, e, 1.0) / (1.0 + e)
    smoothed = smoothed_counting(s, lam, SmoothingConfig(beta=beta))
    assert smoothed.hex() == fsum_list(mults * occupation).hex()
    d = np.exp(-beta * np.abs(values - lam))
    assert smoothing_error_bound(s, lam, beta).hex() == fsum_list(mults * (d / (1.0 + d))).hex()
