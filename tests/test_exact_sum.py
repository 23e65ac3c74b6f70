"""The exact summation behind large sums, held to math.fsum bit for bit."""

import itertools
import math
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from heatcount import transforms
from heatcount.transforms import FSUM_THRESHOLD, _exact_sum

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


@pytest.mark.parametrize("n", [1, 2, 1000, 3000, (1 << 16) - 1, 1 << 16, 2 * (1 << 16) + 7])
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
    x = np.full((1 << 16) + 1, 1e305)
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
    x = np.ones(2 * (1 << 16))
    x[(1 << 16) + 5] = special  # far from the first term
    assert _exact_sum(x).hex() == fsum_list(x).hex() == expected


def test_opposite_infinities_raise_like_fsum():
    x = np.array([1.0, math.inf, -math.inf])
    with pytest.raises(ValueError):
        math.fsum(x)
    with pytest.raises(ValueError):
        _exact_sum(x)


@given(term_arrays)
def test_exact_sum_leaves_its_input_alone(x):
    before = x.copy()
    outcome(_exact_sum, x)
    assert x.tobytes() == before.tobytes()


@contextmanager
def stop_tests():
    """The outcome of each stop test _exact_sum makes, one per level it
    decides at (a level that reaches the 2**-1074 floor makes none), and
    its list of level sums, which holds one sum per level once it returns."""
    record = SimpleNamespace(outcomes=[], parts=[])
    decide = transforms._rounds_to

    def recorded(s, parts, bound):
        record.parts = parts
        record.outcomes.append(decide(s, parts, bound))
        return record.outcomes[-1]

    with mock.patch.object(transforms, "_rounds_to", recorded):
        yield record


@st.composite
def near_ties(draw):
    """A large term plus 2**j equal small terms that add up to half its
    ulp, exactly or off by a far smaller 2**-k of it, among cancelling
    pairs, in a drawn order and sign."""
    big = draw(st.floats(1.0, 2.0, exclude_max=True)) * 2.0 ** draw(st.integers(-900, 900))
    half = math.ulp(big) / 2
    j = draw(st.integers(1, 11))
    k = draw(st.one_of(st.none(), st.integers(50, 120)))
    off = [] if k is None else [draw(st.sampled_from([1.0, -1.0])) * half * 2.0**-k]
    noise = big * np.array(draw(st.lists(st.floats(-1.0, 1.0), max_size=50)))
    x = np.concatenate(([big], np.full(2**j, half / 2**j), off, noise, -noise))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(x.size)
    return draw(st.sampled_from([1.0, -1.0])) * x[order]


@settings(deadline=None)
@given(near_ties())
@example(np.array([1.0] + [2.0**-64] * 2**11))  # exactly halfway, ties to even
@example(np.array([1.0] + [2.0**-64] * 2**11 + [2.0**-170]))
def test_exact_sum_is_fsum_at_rounding_boundaries(x):
    with stop_tests() as record:
        got = outcome(_exact_sum, x)
    assert got == outcome(fsum_list, x)
    # the level bound n * 2**(m - 53) must fall below the distance to the tie,
    # which it does not in the first two levels
    assert record.outcomes[:2] == [False, False]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tiny", [0, 1, -3, 2**52 + 1], ids=["zero", "1", "-3", "normal"])
def test_exact_sum_down_to_the_subnormal_floor(seed, tiny):
    # terms from 1e300 down to subnormals that cancel to a total of tiny * 2**-1074:
    # no level bound, at least 2**-1074, separates it from its rounding boundaries
    rng = np.random.default_rng(seed)
    big = rng.standard_normal(500) * 10.0 ** rng.uniform(-300, 300, 500)
    small = rng.integers(-(2**40), 2**40, 500) * 5e-324
    x = np.concatenate((big, small, -big[::-1], -small, [tiny * 5e-324]))
    x = x[rng.permutation(x.size)]
    with stop_tests() as record:
        got = _exact_sum(x)
    assert got.hex() == fsum_list(x).hex() == (tiny * 5e-324).hex()
    assert record.outcomes and not any(record.outcomes)


@pytest.mark.parametrize(
    "x, most",
    [
        # 1.0 and 2**17 terms of 1e-20, with their negatives: a total of 0
        (np.concatenate(([1.0], np.full(2**17, 1e-20), np.full(2**17, -1e-20), [-1.0])), 4),
        # 1.0 and 2**17 terms of 2**-70, which add up to half its ulp: a tie
        (np.concatenate(([1.0], np.full(2**17, 2.0**-70))), 3),
    ],
    ids=["zero-total", "tie"],
)
def test_exact_sum_ends_once_its_parts_are_exact(x, most):
    # no level bound decides these; the levels end when no residual is left,
    # not at the 2**-1074 floor 31 levels down
    with stop_tests() as record:
        got = _exact_sum(x)
    assert got.hex() == fsum_list(x).hex()
    assert len(record.parts) <= most


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("k", [0, 1, 2, 10, 16, 17])
def test_exact_sum_at_powers_of_two(k, d):
    n = 2**k + d
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = random_terms(rng, n)
        assert _exact_sum(x).hex() == fsum_list(x).hex()
    # n terms one step of 2**(k - 53) below 2**-3, one of them nudged by
    # 2**-55 either way: were the first level's sigma below n * 2**-3, their
    # parts would sum past 2**53 of those steps and round
    top = (1.0 - 2.0 ** (k - 53)) * 2.0**-3
    for sign, nudge in itertools.product((1.0, -1.0), (2.0**-55, -(2.0**-55))):
        x = np.full(n, sign * top)
        x[0] = sign * (top + nudge)
        assert _exact_sum(x).hex() == fsum_list(x).hex()


def test_exact_sum_memory_stays_within_two_copies():
    x = random_terms(np.random.default_rng(7), 200_000)
    tracemalloc.start()
    try:
        _exact_sum(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.nbytes + 64 * 1024


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
