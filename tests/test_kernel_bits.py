"""The heat trace, step-exact and quadrature transforms, whose kernels work
in place, held bit for bit to the naive expressions they compute
(``oracles.exponential_terms``, ``step_terms`` and ``boole_quadrature``),
and the quadrature's closed-form panels held to the sum of every subpanel
(``oracles.boole_quadrature_by_subpanels``)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
)
from heatcount import transforms


def random_file_spectrum(size, seed):
    rng = np.random.default_rng(seed)
    return Spectrum.from_entries(rng.uniform(0.0, 1e4, size), rng.integers(1, 1000, size))


# the four generator families and a file spectrum, two of them past 100k values
NAMED = {
    "interval-10k": lambda: generate_interval(math.pi, 10_000),
    "const-150001": lambda: generate_constant_density(0.37, 150_001),
    "torus-1e4": lambda: generate_torus(1e4),
    "rectangle-3e4": lambda: generate_rectangle(math.pi, math.pi, 3e4),
    "rectangle-1x3": lambda: generate_rectangle(1.0, 3.0, 2000.0),
    "file-120k": lambda: random_file_spectrum(120_000, 20),
}


@functools.cache
def named(name):
    return NAMED[name]()


file_spectra = st.lists(
    st.tuples(st.floats(0.0, 1e3), st.integers(1, 1000)), min_size=1, max_size=300
).map(lambda entries: Spectrum.from_entries([v for v, _ in entries], [m for _, m in entries]))
spectra = st.one_of(st.sampled_from(sorted(NAMED)).map(named), file_spectra)
log_uniform_t = st.floats(math.log(1e-6), math.log(10.0)).map(math.exp)


@given(spectra, log_uniform_t)
@example(named("const-150001"), 1e-6)
@example(named("file-120k"), 10.0)
@example(named("torus-1e4"), 0.1)  # every panel split, into up to 25 subpanels
# panels past the zero cut, which the oracle builds and the package does not
@example(named("const-150001"), 0.0018679135990207828)
@example(named("interval-10k"), 7.5752502587719205e-06)
@settings(max_examples=60, deadline=None)
def test_transforms_equal_naive_expressions(s, t):
    values, mults = s.values, s.multiplicities
    expected = oracles.full_sum(oracles.exponential_terms(values, mults, t))
    assert heat_trace(s, t).value.hex() == expected.hex()
    steps = oracles.step_terms(values, mults, s.coverage, t)
    assert laplace_of_counting(s, t, "step_exact").hex() == oracles.full_sum(steps).hex()
    quad = oracles.boole_quadrature(values, mults, t)
    assert laplace_of_counting(s, t, "quadrature").hex() == quad.hex()


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("t", [1e-3, 0.05, 2.0])
@pytest.mark.parametrize("name", ["torus-1e4", "rectangle-1x3", "const-150001"])
def test_split_depths_match_the_naive_kernel(name, t, depth, monkeypatch):
    # The plan has no subdivision cap: a panel is split down to x_tau however
    # many subpanels that takes.  Dividing BOUNDARY_DROP by 64 halves x_tau,
    # one depth finer; at each depth the kernel returns the naive
    # expression's bits.
    drop_share = transforms.BOUNDARY_DROP / 64**depth
    monkeypatch.setattr(transforms, "BOUNDARY_DROP", drop_share)
    s = named(name)
    expected = oracles.boole_quadrature(s.values, s.multiplicities, t, drop_share)
    assert laplace_of_counting(s, t, "quadrature").hex() == expected.hex()


@given(spectra, log_uniform_t)
@example(named("torus-1e4"), 0.1)  # every panel split, into up to 25 subpanels
@example(named("const-150001"), 10.0)  # panels of 27 scaled widths, 356 subpanels each
@example(Spectrum.from_entries([700.0, 745.0], [1, 3]), 1.0)  # a trace near e^-700
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_every_subpanel_summed(s, t):
    # a split panel's part sums its subpanels in closed form; the reference
    # forms every subpanel's part and adds them all by math.fsum.  Each part
    # may round differently by some units of 2**-1074 where it is subnormal.
    values, mults = s.values, s.multiplicities
    expected = oracles.boole_quadrature_by_subpanels(values, mults, t)
    got = laplace_of_counting(s, t, "quadrature")
    floor = s.total_count * (values.size + 1) * 2.0**-1074
    assert abs(got - expected) <= 2.0**-48 * expected + floor


def test_a_term_returning_its_input_cannot_overwrite_the_spectrum():
    # the multiplicities scale the term array in place; a Spectrum's arrays
    # are read-only, so a term that returned a view of them would raise
    s = named("interval-10k")
    before = s.values.copy()
    with pytest.raises(ValueError, match="read-only"):
        transforms._spectral_sum(s, lambda v: v, 1.0)
    assert s.values.tobytes() == before.tobytes()
