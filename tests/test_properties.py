"""Property tests for the structural invariants."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatcount import (
    ConfigurationError,
    CountingMode,
    InversionConfig,
    SmoothingConfig,
    Spectrum,
    ValidationError,
    counting,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    heat_trace,
    partial_exponential_sum,
    smoothed_counting,
)
from heatcount.inversion import TERM_DROP_EXPONENT, _resolve_config
from heatcount.spectrum import FILE_MERGE_RTOL, spectrum_from_dict, spectrum_to_dict

# eigenvalues are 0 or >= 1e-3: below ~1e-16, e^(-lam t) rounds to exactly 1.0
# and strict monotonicity statements stop being float-meaningful
eigenvalue = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=100.0, allow_nan=False, allow_infinity=False),
)
entry_lists = st.lists(
    st.tuples(eigenvalue, st.integers(min_value=1, max_value=5)),
    min_size=1,
    max_size=40,
)


def build(entries):
    values = [v for v, _ in entries]
    mults = [m for _, m in entries]
    return Spectrum.from_entries(values, mults)


@given(entry_lists)
def test_construction_invariants(entries):
    s = build(entries)
    assert np.all(s.values >= 0)
    assert np.all(np.diff(s.values) > 0)
    assert np.all(s.multiplicities >= 1)
    assert s.total_count == sum(m for _, m in entries)


@given(entry_lists, st.floats(min_value=-10.0, max_value=110.0, allow_nan=False))
def test_counting_monotone_and_mode_gap(entries, lam):
    s = build(entries)
    strict = counting(s, lam, CountingMode.STRICT)
    inclusive = counting(s, lam, CountingMode.INCLUSIVE)
    assert 0 <= strict <= inclusive <= s.total_count
    where = np.nonzero(s.values == lam)[0]
    expected_gap = int(s.multiplicities[where[0]]) if where.size else 0
    assert inclusive - strict == expected_gap
    # monotone in lam
    assert counting(s, lam - 1.0) <= strict
    assert inclusive <= counting(s, lam + 1.0, CountingMode.INCLUSIVE)


@given(entry_lists, st.floats(min_value=-10.0, max_value=110.0, allow_nan=False))
def test_partial_sum_at_zero_matches_inclusive_count(entries, u):
    s = build(entries)
    assert partial_exponential_sum(s, u, 0.0) == float(
        counting(s, u, CountingMode.INCLUSIVE)
    )


@given(
    entry_lists,
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=1.01, max_value=3.0),
)
def test_heat_trace_strictly_decreasing(entries, t, factor):
    s = build(entries)
    first, second = heat_trace(s, t).value, heat_trace(s, t * factor).value
    assert first >= second
    positive = s.values[s.values > 0]
    if positive.size == 0:
        assert first == second == s.total_count  # zero mode only: constant trace
        return
    # strict once the smallest positive term's change clears the roundoff floor
    lam_p = float(positive[0])
    resolvable = math.exp(-lam_p * t) - math.exp(-lam_p * t * factor)
    if resolvable > 8e-16 * first:
        assert first > second


@given(entry_lists, st.floats(min_value=1e-3, max_value=5.0))
def test_partial_sum_full_prefix_equals_heat_trace(entries, t):
    s = build(entries)
    assert partial_exponential_sum(s, float(s.values[-1]), t) == heat_trace(s, t).value


@given(
    entry_lists,
    st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=200.0),
)
def test_smoothed_counting_range(entries, lam, beta):
    s = build(entries)
    v = smoothed_counting(s, lam, SmoothingConfig(beta=beta))
    assert 0.0 <= v <= s.total_count


@given(
    entry_lists,
    st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_smoothed_counting_monotone_in_lambda(entries, lam, step, beta):
    s = build(entries)
    cfg = SmoothingConfig(beta=beta)
    assert smoothed_counting(s, lam, cfg) <= smoothed_counting(s, lam + step, cfg)


@given(entry_lists)
@example([(0.001, 1), (0.0010000000000000002, 1)])
@settings(max_examples=50)
def test_json_dict_round_trip_exact(entries):
    """Exact and silent, unless two values sit within FILE_MERGE_RTOL of each other:
    file loading merges those, with a warning."""
    s = build(entries)
    payload = spectrum_to_dict(s)
    v = s.values
    separated = np.all(np.diff(v) > FILE_MERGE_RTOL * np.maximum(v[:-1], v[1:]))
    if separated:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone = spectrum_from_dict(payload)
        assert clone == s
        assert clone.values.tolist() == s.values.tolist()
        assert clone.multiplicities.tolist() == s.multiplicities.tolist()
    else:
        with pytest.warns(UserWarning, match="near-duplicate"):
            clone = spectrum_from_dict(payload)
        merged = Spectrum.from_entries(
            v, s.multiplicities, cutoff=s.coverage, merge_rtol=FILE_MERGE_RTOL
        )
        assert clone == merged


bad_entries = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]).map(lambda v: {"value": v}),
    st.floats(max_value=0.0, exclude_max=True).map(lambda v: {"value": v, "multiplicity": 1}),
    st.integers(max_value=0).map(lambda m: {"value": 1.0, "multiplicity": m}),
)


@given(entry_lists, bad_entries, st.data())
def test_bad_entry_rejected_by_index(entries, bad, data):
    """One bad entry anywhere in an otherwise valid file, sorted or not, is named
    by its index, and no sorting or merging warning comes first."""
    payload = {"entries": [{"value": v, "multiplicity": m} for v, m in entries]}
    i = data.draw(st.integers(min_value=0, max_value=len(entries) - 1), label="i")
    payload["entries"][i] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"^entries\[{i}\]\.(value|multiplicity): "):
            spectrum_from_dict(payload)


FAMILIES = {
    "interval": lambda: generate_interval(math.pi, 200),
    "constant": lambda: generate_constant_density(1.0, 200),
    "rectangle": lambda: generate_rectangle(math.pi, math.pi, 400.0),
    "torus": lambda: generate_torus(400.0),
}


def assert_conjugate_symmetry(s, lam, height_fraction):
    """K(c - i w) = conj K(c + i w) on the contour bromwich_invert uses.

    Folding the contour onto [0, T] rests on this: at one symmetric node
    pair the imaginary parts of the integrand must cancel.
    """
    try:
        cfg = _resolve_config(s, lam, InversionConfig())
    except ConfigurationError as exc:
        # the one refusal of an auto contour: e^(c lam) above e^700
        assert "overflows" in str(exc)
        return
    assert cfg.c * lam <= 700.0
    c, omega = cfg.c, height_fraction * cfg.T
    keep = c * (s.values - lam) <= TERM_DROP_EXPONENT
    values, mults = s.values[keep], s.multiplicities[keep]
    up = complex(mults @ np.exp(-values * complex(c, omega))) * cmath.exp(
        1j * lam * omega
    ) / complex(c, omega)
    down = complex(mults @ np.exp(-values * complex(c, -omega))) * cmath.exp(
        -1j * lam * omega
    ) / complex(c, -omega)
    scale = max(float(counting(s, lam)), abs(up + down), 1e-30)
    assert abs((up + down).imag) <= 1e-10 * scale


@given(
    st.sampled_from(sorted(FAMILIES)),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=50, deadline=None)
def test_contour_conjugate_symmetry_generators(family, lam_fraction, height_fraction):
    s = FAMILIES[family]()
    assert_conjugate_symmetry(s, lam_fraction * float(s.values[-1]), height_fraction)


@given(
    entry_lists,
    st.floats(min_value=0.01, max_value=110.0),
    st.floats(min_value=1e-6, max_value=1.0),
)
@example([(0.0, 27), (0.0078125, 5)], 1.0, 0.5)
def test_contour_conjugate_symmetry_file_spectra(entries, lam, height_fraction):
    assert_conjugate_symmetry(build(entries), lam, height_fraction)
