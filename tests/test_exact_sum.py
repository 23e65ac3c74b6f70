"""The exact summation behind every spectral sum, held to math.fsum bit for bit."""

import functools
import itertools
import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heatcount import (
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    heat_trace,
    laplace_of_counting,
    partial_exponential_sum,
    smoothed_counting,
    smoothing_error_bound,
)
from heatcount import transforms
from heatcount.transforms import _exact_sum

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


@given(term_arrays, st.sampled_from([1, 7, 64]))
def test_exact_sum_is_fsum_in_small_blocks(x, block):
    # every block takes its own sigma and adds its own share of the bound
    with mock.patch.object(transforms, "BLOCK", block):
        got = outcome(_exact_sum, x)
    assert got == outcome(fsum_list, x)


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
    """The outcomes of the stop tests _exact_sum makes: one, after the
    second level, unless a block leaves the sum open first (a non-finite
    term or one near overflow).  Where it is False, or the total is 0,
    the sum falls back to math.fsum."""
    outcomes, decide = [], transforms._rounds_to

    def recorded(s, parts, bound):
        outcomes.append(decide(s, parts, bound))
        return outcomes[-1]

    with mock.patch.object(transforms, "_rounds_to", recorded):
        yield outcomes


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
    # the second level's bound, sum n * b * 2**(m - 105) over the blocks, is
    # above 2**-47 of the large term's ulp here, and the total lies within
    # 2**-51 of it of the tie: these sums fall back to math.fsum
    assert record == [False]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tiny", [0, 1, -3, 2**52 + 1], ids=["zero", "1", "-3", "normal"])
def test_exact_sum_down_to_the_subnormal_floor(seed, tiny):
    # terms from 1e300 down to subnormals that cancel to a total of tiny * 2**-1074:
    # the second level's bound, at least 2**-1074, does not separate it from
    # its rounding boundaries, so it falls back to math.fsum
    rng = np.random.default_rng(seed)
    big = rng.standard_normal(500) * 10.0 ** rng.uniform(-300, 300, 500)
    small = rng.integers(-(2**40), 2**40, 500) * 5e-324
    x = np.concatenate((big, small, -big[::-1], -small, [tiny * 5e-324]))
    x = x[rng.permutation(x.size)]
    with stop_tests() as record:
        got = _exact_sum(x)
    assert got.hex() == fsum_list(x).hex() == (tiny * 5e-324).hex()
    assert record == [False]


@pytest.mark.parametrize(
    "x",
    [
        # 1.0 and 2**17 terms of 1e-20, with their negatives: a total of 0
        np.concatenate(([1.0], np.full(2**17, 1e-20), np.full(2**17, -1e-20), [-1.0])),
        # 1.0 and 2**17 terms of 2**-70, which add up to half its ulp: a tie
        np.concatenate(([1.0], np.full(2**17, 2.0**-70))),
    ],
    ids=["zero-total", "tie"],
)
def test_exact_sum_ends_once_its_parts_are_exact(x):
    # no bound decides these, over several blocks: a total of 0, whose sign
    # math.fsum decides, and a tie; after the one stop test of the two
    # levels, math.fsum ends them
    with stop_tests() as record:
        got = _exact_sum(x)
    assert got.hex() == fsum_list(x).hex()
    assert len(record) == 1


def deep_tie(w, seed, big, k_class):
    """big (2.0 or -1.0) and 2**w - 1 negative terms with full mantissas at
    the top of the binade below 2**(w - 53), whose total is a rounding tie
    big - K * 2**-53, K odd and K % 4 == k_class."""
    ulp = math.ldexp(1.0, w - 106)  # the spacing of that binade
    small = math.ldexp(1.0, w - 54) * np.random.default_rng(seed).uniform(2 - 2**-10, 2, 2**w - 2)
    units = int(np.sum((small / ulp).astype(np.int64), dtype=object))
    step = 2 ** (53 - w)  # 2**-53 in units of ulp
    k = -(-(units + 2**53 - 2**42) // step)  # the last term at least (2 - 2**-10) 2**(w - 54)
    k += (k_class - k) % 4
    last = k * step - units
    assert last < 2**53  # below 2**(w - 53), in the same binade
    return np.concatenate(([big], -small, [-last * ulp]))


@pytest.mark.parametrize("k_class", [1, 3])
@pytest.mark.parametrize("big", [2.0, -1.0])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("w", [14, 17])
def test_exact_sum_of_same_sign_residuals_at_the_top_of_their_binade(w, seed, big, k_class):
    # The first level leaves the small terms whole, and no bound decides a
    # tie, so the sum of 2**w - 1 residuals of one sign and nearly 2**e falls
    # back to math.fsum, which must round to the even neighbour in both tie
    # classes.
    x = deep_tie(w, seed, big, k_class)
    with stop_tests() as record:
        got = _exact_sum(x)
    assert got.hex() == fsum_list(x).hex()
    assert record == [False]


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


@st.composite
def residual_blocks(draw):
    """[(r, m), ...]: one to four blocks of b values of at most 2**(m - 53)
    in magnitude each, as _exact_sum's first level leaves them, with m
    falling from block to block and down to -1022, where the bound is
    subnormal; up to 2**15 values a block, mixed signs, same-sign full
    mantissas at the top of the bound, or equal values just below it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.one_of(st.integers(-1022, -970), st.integers(-969, 1020)))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        b = draw(st.integers(1, 2 ** draw(st.integers(0, 15))))
        kind = draw(st.sampled_from(["mixed", "top", "equal"]))
        cap = math.ldexp(1.0, m - 53)
        sign = draw(st.sampled_from([1.0, -1.0]))
        if kind == "mixed":
            r = cap * rng.uniform(-1.0, 1.0, b)
        elif kind == "top":
            r = sign * cap * rng.uniform(1 - 2**-10, 1.0, b)
        else:
            r = np.full(b, sign * math.nextafter(cap, 0.0))
        blocks.append((r, m))
        m = max(m - draw(st.integers(0, 60)), -1022)
    return blocks


@settings(max_examples=40, deadline=None)
@given(residual_blocks())
@example([(np.full(2**17, math.nextafter(1.0, 0.0)), 53)])
@example([(np.random.default_rng(5).uniform(-(2.0**-53), 2.0**-53, 2**17), 0)])
@example([(np.full(2**15, math.nextafter(1.0, 0.0)), 53), (np.full(2**15, -(2.0**-60)), 0)])
def test_pairwise_level_errs_within_its_bound(blocks):
    # each block summed pairwise, and the block sums in turn: with n values
    # in all, |error| <= gamma_(n-1) sum |r| <= sum n * b * 2**(m - 105) over
    # the blocks, in units of 2**-1074, the bound _exact_sum's second level
    # stops on
    n = sum(r.size for r, _ in blocks)
    low = 0.0
    for r, _ in blocks:
        low += float(np.sum(r))
    exact = sum(transforms._units(x) for r, _ in blocks for x in r.tolist())
    error = abs(transforms._units(low) - exact)
    shares = [Fraction(n * r.size) * Fraction(2) ** (m - 105 + 1074) for r, m in blocks]
    assert error <= sum(shares)
    for (r, m), share in zip(blocks, shares):
        assert transforms._pairwise_bound(n, r.size, m) == math.ceil(share)


def test_heat_trace_memory_stays_within_two_copies():
    # the terms are formed and scaled in one array and the exact sum adds one
    # more: at t = 1e-4 every one of the 200,000 values is live
    s = generate_constant_density(1.0, 200_000)
    heat_trace(s, 1e-4)
    tracemalloc.start()
    try:
        heat_trace(s, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * s.values.size + 64 * 1024


def test_heat_trace_memory_stays_within_one_copy_and_a_block():
    # the terms are formed and summed a block at a time: what is allocated
    # is a few blocks, far below one copy of the 200,000 live values
    s = generate_constant_density(1.0, 200_000)
    heat_trace(s, 1e-4)
    tracemalloc.start()
    try:
        heat_trace(s, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * s.values.size + 8 * transforms.BLOCK + 64 * 1024


def test_exact_sum_memory_stays_within_two_copies():
    x = random_terms(np.random.default_rng(7), 200_000)
    tracemalloc.start()
    try:
        _exact_sum(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.nbytes + 64 * 1024


# -- the library's sums against a math.fsum oracle, at every size -----------

# 200 to 150,001 distinct values; every spectrum is run at each parameter, so
# that each case holds small and large sums alike
ORACLE_SPECTRA = {
    "interval-200": lambda: generate_interval(math.pi, 200),
    "const-10k": lambda: generate_constant_density(1.0, 10_000),
    "rectangle-3e5": lambda: generate_rectangle(math.pi, math.pi, 3e5),
    "const-100001": lambda: generate_constant_density(1.0, 100_001),
    "const-150001": lambda: generate_constant_density(0.37, 150_001),
}


@functools.cache
def oracle_spectrum(name):
    return ORACLE_SPECTRA[name]()


@pytest.mark.parametrize("t", [1e-5, 1e-4, 1e-3, 0.01])
def test_large_transforms_equal_fsum_oracle(t):
    for name in ORACLE_SPECTRA:
        s = oracle_spectrum(name)
        values, mults = s.values, s.multiplicities
        terms = mults * np.exp(-values * t)
        assert heat_trace(s, t).value.hex() == fsum_list(terms).hex(), name
        steps = mults * (np.exp(-values * t) - math.exp(-s.coverage * t))
        assert laplace_of_counting(s, t, "step_exact").hex() == fsum_list(steps).hex(), name
        # the prefix up to the middle value: 75,001 of const-150001's values
        half = values.size // 2
        assert partial_exponential_sum(s, float(values[half]), t).hex() == fsum_list(terms[: half + 1]).hex(), name


@pytest.mark.parametrize("beta", [1e-3, 0.01, 0.1])
def test_large_smoothing_equals_fsum_oracle(beta):
    for name in ORACLE_SPECTRA:
        s = oracle_spectrum(name)
        values, mults = s.values, s.multiplicities
        # halfway between the two middle values (50,000.5 on const-100001)
        k = values.size // 2 - 1
        lam = 0.5 * (float(values[k]) + float(values[k + 1]))
        x = beta * (values - lam)
        e = np.exp(-np.abs(x))
        occupation = np.where(x > 0, e, 1.0) / (1.0 + e)
        smoothed = smoothed_counting(s, lam, beta)
        assert smoothed.hex() == fsum_list(mults * occupation).hex(), name
        d = np.exp(-beta * np.abs(values - lam))
        assert smoothing_error_bound(s, lam, beta).hex() == fsum_list(mults * (d / (1.0 + d))).hex(), name
