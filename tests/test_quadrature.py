"""The quadrature of theorem 1 held to its a-priori bound against the
independent closed form, the step-exact transform plus its truncation
correction, to its independence of the recorded cutoff, and its memory.

The bound is computed from the module's constants.  Boole's rule errs
upwards by at most tau / (1 - x_tau/2) of the integral, tau =
BOUNDARY_DROP / 10 and x_tau^6 = 1935360 tau; the piece past the last
value is exact, so nothing is dropped.  The rounding term covers exponents
lam t of up to EXP_ZERO, rounded once in each reference term and at most
four times in a part (its left edge, its scaled width and a subpanel's
offset), plus a few dozen roundings of each part and of the two sums:
(5 EXP_ZERO + 64) units of 2^-53, relative.  Below the normal range each
part and term may also round by 2^-1074 times a count, absolutely.
"""

import dataclasses
import functools
import math
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heatcount import (
    Spectrum,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    heat_trace,
    laplace_of_counting,
    truncation_correction,
)
from heatcount.transforms import BLOCK, BOUNDARY_DROP, EXP_ZERO

TAU = BOUNDARY_DROP / 10
X_TAU = (1_935_360 * TAU) ** (1 / 6)
RELATIVE = TAU / (1 - X_TAU / 2) + (5 * EXP_ZERO + 64) * 2.0**-53

NAMED = {
    "interval-10k": lambda: generate_interval(math.pi, 10_000),
    "const-150001": lambda: generate_constant_density(0.37, 150_001),
    "torus-1e4": lambda: generate_torus(1e4),
    "rectangle-3e4": lambda: generate_rectangle(math.pi, math.pi, 3e4),
    "rectangle-1x3": lambda: generate_rectangle(1.0, 3.0, 2000.0),
}


@functools.cache
def named(name):
    return NAMED[name]()


def assert_within_bound(s, t):
    k_val = heat_trace(s, t).value
    reference = laplace_of_counting(s, t, "step_exact") + truncation_correction(s, t)
    quad = laplace_of_counting(s, t, "quadrature")
    # at most the live panels, the exact part, two subpanels per x_tau of the
    # live domain and as many for the last live panel, which ends by
    # 2 EXP_ZERO / t
    parts = s.values.size + 1 + 4 * EXP_ZERO / X_TAU
    floor = s.total_count * (s.values.size + parts) * 2.0**-1074
    assert abs(quad - reference) <= RELATIVE * k_val + floor


file_spectra = st.lists(
    st.tuples(st.floats(0.0, 1e3), st.integers(1, 1000)), min_size=1, max_size=300
).map(lambda entries: Spectrum.from_entries([v for v, _ in entries], [m for _, m in entries]))
spectra = st.one_of(st.sampled_from(sorted(NAMED)).map(named), file_spectra)


@st.composite
def split_panels(draw):
    """A spectrum and a t at which the panel ending at one of its values is
    split into between 2 and 1000 subpanels."""
    s = draw(spectra)
    i = draw(st.integers(0, s.values.size - 1))
    width = float(s.values[i] - (s.values[i - 1] if i else 0.0))
    assume(width > 0)
    t = draw(st.floats(1.5, 1000.0)) * X_TAU / width
    assume(t < math.inf)
    return s, t


@given(split_panels())
@example((named("const-150001"), 0.5))
@example((named("torus-1e4"), 0.1))
@example((Spectrum.from_entries([700.0], [1]), 1.0))  # the trace near e^-700
@settings(max_examples=80, deadline=None)
def test_quadrature_meets_its_bound(case):
    assert_within_bound(*case)


@pytest.mark.parametrize("t", [1e-3, 0.05, 2.0])
@pytest.mark.parametrize("name", sorted(NAMED))
def test_quadrature_meets_its_bound_without_a_cap(name, t):
    # a subdivision cap once raised at these t on torus-1e4, rectangle-1x3
    # and const-150001: the plan is fixed and bounded, so no cap remains
    assert_within_bound(named(name), t)


@pytest.mark.parametrize("scale", [1.0, 2.0, 1e3])
@pytest.mark.parametrize("name", ["rectangle-1x3", "rectangle-3e4", "torus-1e4"])
def test_quadrature_does_not_read_the_cutoff(name, scale):
    # the plan is read from the values alone: a cutoff recorded further past
    # the last value changes no bit
    s = named(name)
    moved = dataclasses.replace(s, cutoff=float(s.values[-1]) * scale)
    expected = laplace_of_counting(s, 1e-3, "quadrature")
    assert laplace_of_counting(moved, 1e-3, "quadrature").hex() == expected.hex()


def test_quadrature_memory_stays_within_eight_blocks():
    # the panels are formed and summed a block of left edges at a time, so
    # the peak does not grow with the spectrum: the block's widths,
    # e^(-x/4), left-edge factors, parts and the sum's buffer, with room to
    # spare.  At t = 1e-4 every one of the 200,000 values is live, and a
    # plan built whole, several arrays of their 1.6 MB, would not fit
    s = generate_constant_density(1.0, 200_000)
    laplace_of_counting(s, 1e-4, "quadrature")
    tracemalloc.start()
    try:
        laplace_of_counting(s, 1e-4, "quadrature")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * BLOCK * 8 + 64 * 1024
