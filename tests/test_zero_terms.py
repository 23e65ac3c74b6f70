"""Sums that skip the exponentials which round to 0.0, held bit for bit to
the sum of every term (``oracles.full_sum``), correctly rounded sums that
bound the subnormal band and stop once the terms not formed cannot change
the last bit, held to math.fsum of every term, and the quadrature that
skips the panels past them, held to its panel plan with every panel built
(``oracles.boole_quadrature``)."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from heatcount import (
    Spectrum,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    heat_trace,
    laplace_of_counting,
    partial_exponential_sum,
    smoothed_counting,
    smoothing_error_bound,
)
from heatcount import transforms
from heatcount.transforms import BLOCK, EXP_NORMAL, EXP_ZERO, _live

# spectra of 10k to 216k distinct values, with and without multiplicities
LARGE = {
    "interval-10k": lambda: generate_interval(math.pi, 10_000),
    "const-100k": lambda: generate_constant_density(1.0, 100_000),
    "const-100001": lambda: generate_constant_density(0.37, 100_001),
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
@example(large("const-100001"), 745.1332191019412, 0.5)
@example(large("const-100k"), 1e5, 0.01)
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
@example(large("const-100001"), EXP_ZERO, 0.999)
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
    smoothed = smoothed_counting(s, lam, beta)
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


@given(sorted_values, st.floats(1e-6, 1e16), st.floats(-1e6, 1e6))
def test_normal_cut_drops_only_exponents_past_exp_normal(values, rate, origin):
    k = _live(values, rate, origin, EXP_NORMAL)
    with np.errstate(over="ignore"):
        exponents = rate * (values - origin)
    assert 0 <= k <= _live(values, rate, origin)
    assert np.all(exponents[k:] > EXP_NORMAL)


# -- the subnormal band of correctly rounded sums ---------------------------
#
# The terms whose exponent passes EXP_NORMAL (the band) are bounded, not
# evaluated, unless that bound leaves the sum open.  The block length is
# lowered here so that small spectra cross many block boundaries; every sum
# is held to math.fsum of every term, the band's included.

SMALL = {
    "interval-3000": lambda: generate_interval(math.pi, 3000),
    "const-2000": lambda: generate_constant_density(0.37, 2000),
    "rectangle-4e3": lambda: generate_rectangle(math.pi, 2.0, 4e3),
    "torus-5e3": lambda: generate_torus(5e3),
}


@functools.cache
def small(name):
    return SMALL[name]()


# values 700 to 745 at t = 1: a total near 2**-1010, within the band's bound
# of rounding boundaries, so the band must be evaluated
NEAR_SUBNORMAL = Spectrum.from_entries(np.linspace(700.0, 745.0, 2000), [3] * 2000)
# at t = 1 the normal cut lies at EXP_NORMAL (1 + 2**-30), widened by one
# rounding step; these values run 40 ulps either side of it, and either side
# of 1022 ln 2, where e^-v crosses 2**-1022 (``from_entries`` would merge them)
AT_THE_CUT = Spectrum(
    np.array(
        [1.0, 700.0]
        + [1022 * math.log(2) + i * 2.0**-43 for i in range(-10, 11)]
        + [EXP_NORMAL * (1 + 2**-30) + i * 2.0**-43 for i in range(-40, 41)]
        + [720.0, 745.0]
    ),
    np.arange(1, 107),
)


# values within 50 of an offset up to 1e4: at an offset near 1000 they span
# about the band's ratio 746 / 708.4, so one t can put most of them in it
clustered_spectra = st.builds(
    lambda entries, offset: Spectrum.from_entries([offset + v for v, _ in entries], [m for _, m in entries]),
    st.lists(st.tuples(st.floats(0.0, 50.0), st.integers(1, 1000)), min_size=1, max_size=300),
    st.floats(0.0, 1e4),
)


def fsum(x):
    return math.fsum(x.tolist())


def every_term_sum(s, t, lam, beta):
    """The four sums over every term, by math.fsum, as hex."""
    values, mults = s.values, s.multiplicities
    with np.errstate(over="ignore"):  # an exponent past the double range gives a term of 0.0
        terms = np.exp(-values * t)
        x = beta * (values - lam)
        e = np.exp(-np.abs(x))
        d = np.exp(-beta * np.abs(values - lam))
    return (
        fsum(mults * terms).hex(),
        fsum(mults * (terms - math.exp(-s.coverage * t))).hex(),
        fsum(mults * (np.where(x > 0, e, 1.0) / (1.0 + e))).hex(),
        fsum(mults * (d / (1.0 + d))).hex(),
    )


def band_sums(s, t, lam, beta):
    return (
        heat_trace(s, t).value.hex(),
        laplace_of_counting(s, t, "step_exact").hex(),
        smoothed_counting(s, lam, beta).hex(),
        smoothing_error_bound(s, lam, beta).hex(),
    )


@given(
    st.one_of(st.sampled_from(sorted(SMALL)).map(small), file_spectra, clustered_spectra),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.one_of(st.floats(600.0, EXP_ZERO), st.floats(700.0, 712.0)),
    st.sampled_from([5, 64, BLOCK]),
)
@example(NEAR_SUBNORMAL, 0.0, 0.0, 700.0, BLOCK)
@example(AT_THE_CUT, 0.0, 0.5, 1.0, 7)
@example(AT_THE_CUT, 0.0, 0.01, 1.0, BLOCK)
@example(small("torus-5e3"), 0.02, 0.5, 709.0, 64)
@settings(max_examples=80, deadline=None)
def test_band_sums_equal_fsum_of_every_term(s, where, above, x, block):
    # t puts the value at quantile ``where`` at exponent x, so for small
    # ``where`` and x near EXP_NORMAL the band holds most live values; beta
    # does the same for the values above lam, at quantile ``above`` of them
    values = s.values
    i = int(where * (values.size - 1))
    t = x / float(values[i]) if values[i] > 0 else x
    assume(t < math.inf)
    k = int(above * (values.size - 1))
    lam = float(values[k]) + 0.5 * (float(values[k + 1] - values[k]) if k + 1 < values.size else 1.0)
    assume(lam not in values)
    j = min(k + 1 + int(above * (values.size - k - 1)), values.size - 1)
    beta = x / (float(values[j]) - lam) if values[j] > lam else x
    assume(0 < beta < math.inf)
    with mock.patch.object(transforms, "BLOCK", block):
        got = band_sums(s, t, lam, beta)
    assert got == every_term_sum(s, t, lam, beta)


def recorded(monkeypatch, name):
    """Replace transforms.<name> by a wrapper; returns the list of
    (arguments, result) of its calls."""
    calls, real = [], getattr(transforms, name)

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(transforms, name, wrapper)
    return calls


def stop_prefix(s, t, total, bits):
    """The first index j at which (sum_(n >= j) mult_n) e^(-t lam_j), the
    bound on the terms from j on, is at most 2**-bits of the total."""
    tail = (s.cumulative[-1] - s.cumulative[:-1]) * np.exp(-s.values * t)
    return int(np.argmax(tail <= 2.0**-bits * total))


def test_band_is_bounded_not_evaluated(monkeypatch):
    # torus-1e6 at t = 1e-3: 7,903 values between exponents 708.4 and 746,
    # and the rest below 2**-60 of the total from about the 12,100th value on
    s = large("torus-1e6")
    t = 1e-3
    live, cut = _live(s.values, t), _live(s.values, t, 0.0, EXP_NORMAL)
    assert live - cut > 7000
    expected = fsum(s.multiplicities * np.exp(-s.values * t))
    enough = stop_prefix(s, t, expected, 60)
    assert enough < 12_500
    formed = recorded(monkeypatch, "_terms")
    exact = recorded(monkeypatch, "_exact_sum")
    value = heat_trace(s, t).value
    # the band's terms are not formed
    assert sum(args[1].size for args, _ in formed) <= enough + BLOCK < cut
    assert not exact
    assert value.hex() == expected.hex()


def test_quadrature_builds_no_panel_past_its_stop(monkeypatch):
    # from the stop on the panels add at most N e^(-t a) of the total
    s = large("torus-1e6")
    t = 1e-3
    parts = recorded(monkeypatch, "_boole_parts")
    formed = recorded(monkeypatch, "_terms")
    exact = recorded(monkeypatch, "_exact_sum")
    value = laplace_of_counting(s, t, "quadrature")
    total = fsum(s.multiplicities * np.exp(-s.values * t))
    # no heat trace is summed beside the parts, and no whole plan is built
    assert not formed and not exact
    # the panels start at each value below the stop, each with its left-edge
    # factor, and end within a block of it; 2**-64 leaves room for the
    # stop's margin
    assert all(factors.size == x.size for (x, _, factors), _ in parts)
    built = sum(args[0].size for args, _ in parts)
    assert built <= stop_prefix(s, t, total, 64) + BLOCK
    assert value.hex() == oracles.boole_quadrature(s.values, s.multiplicities, t).hex()


def test_band_is_evaluated_where_its_bound_leaves_the_sum_open(monkeypatch):
    s = NEAR_SUBNORMAL
    exact = recorded(monkeypatch, "_exact_sum")
    value = heat_trace(s, 1.0).value
    # every live term, the band's included, went to the exact sum
    assert [args[0].size for args, _ in exact] == [_live(s.values, 1.0)]
    assert value.hex() == fsum(s.multiplicities * np.exp(-s.values)).hex()


def test_sum_decided_on_the_per_block_bound(monkeypatch):
    # const-200k at this t has no band and a total close to a rounding
    # boundary: a bound of n**2 * 2**(m - 105) for every block left it open
    # to the end, the per-block n * b * 2**(m - 105) decides it in the blocks
    s = large("const-200k")
    t = 0.0008209421999999999
    exact = recorded(monkeypatch, "_exact_sum")
    value = heat_trace(s, t).value
    assert _live(s.values, t) == s.values.size
    assert not exact
    assert value.hex() == fsum(s.multiplicities * np.exp(-s.values * t)).hex()


def test_sum_that_two_levels_leave_open_is_still_fsum(monkeypatch):
    # the step-exact terms of a one-value spectrum at its coverage are
    # mult * (e^(-L t) - e^(-L t)) = 0.0: a total of 0, whose sign math.fsum
    # decides, so two levels leave it open and it falls back to math.fsum
    s = Spectrum(np.array([3.5]), np.array([7]))
    exact = recorded(monkeypatch, "_exact_sum")
    fallback = mock.Mock(wraps=math.fsum)
    with mock.patch.object(transforms.math, "fsum", fallback):
        value = laplace_of_counting(s, 0.3, "step_exact")
    assert [(args[0].size, result) for args, result in exact] == [(1, 0.0)]
    # math.fsum over the terms' array itself, not the lists of block sums
    arrays = [args[0] for args, _ in fallback.call_args_list if isinstance(args[0], np.ndarray)]
    assert [x.tolist() for x in arrays] == [[0.0]]
    steps = s.multiplicities * (np.exp(-s.values * 0.3) - math.exp(-s.coverage * 0.3))
    assert value.hex() == fsum(steps).hex() == "0x0.0p+0"


# -- sums that stop once the terms not formed cannot change the last bit -----
#
# Each stopped sum is held to math.fsum of every term, and the quadrature to
# its plan with every panel built, bit for bit.  The block length is
# lowered so that small spectra stop across block boundaries.


@st.composite
def spectra_and_t(draw):
    """A spectrum and a t that puts its largest value at exponent 0.5 to
    5,000, so that the sums stop anywhere from the first block to the end."""
    s = draw(st.one_of(st.sampled_from(sorted(SMALL)).map(small), file_spectra, clustered_spectra))
    top = draw(st.floats(0.5, 5000.0))
    largest = float(s.values[-1])
    return s, top / largest if largest > 0 else top


@given(spectra_and_t(), st.floats(0.0, 1.0), st.sampled_from([5, 64, 1000, BLOCK]))
# every term is needed
@example((large("const-200k"), 1e-4), 0.5, 1000)
# the sum stops inside the first block
@example((large("torus-1e6"), 1e-3), 0.01, BLOCK)
@example((NEAR_SUBNORMAL, 1.0), 0.0, 64)
# a total near a rounding boundary, decided a block past the stop
@example((large("const-200k"), 0.0008209421999999999), 0.9, BLOCK)
@settings(max_examples=60, deadline=None)
def test_stopped_sums_equal_fsum_of_every_term(s_t, where, block):
    s, t = s_t
    assume(t < math.inf)
    values, mults = s.values, s.multiplicities
    k = int(where * (values.size - 1))
    lam = float(values[k]) + 0.5 * (float(values[k + 1] - values[k]) if k + 1 < values.size else 1.0)
    assume(lam not in values)
    # beta puts the largest value at the exponent t puts it at
    beta = t * float(values[-1]) / (float(values[-1]) - lam) if values[-1] > lam else t
    assume(0 < beta < math.inf)
    u = float(values[k])
    with mock.patch.object(transforms, "BLOCK", block):
        got = band_sums(s, t, lam, beta) + (
            partial_exponential_sum(s, u, t).hex(),
            laplace_of_counting(s, t, "quadrature").hex(),
        )
    with np.errstate(over="ignore"):
        below = mults[: k + 1] * np.exp(-values[: k + 1] * t)
    quad = oracles.boole_quadrature(values, mults, t)
    assert got == every_term_sum(s, t, lam, beta) + (fsum(below).hex(), quad.hex())


def test_stop_waits_for_a_tail_that_moves_the_last_bit(monkeypatch):
    # at t = 1 the first two terms sum to 2**-58 below the midpoint between
    # 1 and the next double, and the third, 2**-56, carries the total past
    # it: the tail bound after two terms is below 2**-52 of the total, so
    # the float test lets the exact one run, but that must not stop there
    monkeypatch.setattr(transforms, "BLOCK", 1)
    s = Spectrum(np.array([0.0, -math.log(2.0**-53 - 2.0**-58), 56 * math.log(2)]), np.ones(3, np.int64))
    terms = np.exp(-s.values)
    assert math.fsum(terms[:2]) == 1.0 < math.fsum(terms)
    assert heat_trace(s, 1.0).value.hex() == fsum(terms).hex() == math.nextafter(1.0, 2.0).hex()


def test_quadrature_stop_waits_for_panels_that_move_the_last_bit(monkeypatch):
    # a random spectrum at t = 0.8 whose panels past the stop carry the sum
    # of the parts built across a rounding boundary (found by a search over
    # seeds with the quadrature's slack dropped): the stop test must leave
    # that sum open and build the whole plan
    rng = np.random.default_rng(456)
    s = Spectrum.from_entries(rng.uniform(0.0, 100.0, 400), rng.integers(1, 5, 400))
    expected = oracles.boole_quadrature(s.values, s.multiplicities, 0.8)
    assert laplace_of_counting(s, 0.8, "quadrature").hex() == expected.hex()


# const-200k holds 200,000 values, torus-1e6 216,342 and torus-1e5 24,029
QUADRATURE_CASES = [(name, t) for name in ("const-200k", "torus-1e5", "torus-1e6")
                    for t in (1e-3, 1e-2, 0.1)]


@pytest.mark.parametrize("name, t", QUADRATURE_CASES)
def test_quadrature_bits_are_pinned(name, t):
    # the oracle builds every panel with a nonzero left-edge factor
    s = large(name)
    quad = oracles.boole_quadrature(s.values, s.multiplicities, t)
    assert laplace_of_counting(s, t, "quadrature").hex() == quad.hex()
