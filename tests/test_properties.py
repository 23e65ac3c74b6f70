"""Property tests for the structural invariants."""

import cmath
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
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
    save_spectrum,
    smoothed_counting,
)
from heatcount.inversion import TERM_DROP_EXPONENT, _resolve_config
from heatcount.spectrum import FILE_MERGE_RTOL, SAVE_CHUNK, _entry_arrays, spectrum_from_dict

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
    payload = oracles.spectrum_to_dict(s)
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


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
)
# nested generator parameters; text covers quotes, backslashes, control
# characters and non-ASCII, which the encoder escapes
generator_dicts = st.dictionaries(
    st.text(),
    st.recursive(
        json_scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)
extreme_values = [0.0, 5e-324, 1e-07, 1e16, 1.7976931348623157e308]
saved_entries = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(extreme_values),
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        ),
        st.one_of(st.just(2**63 - 1), st.integers(min_value=1, max_value=2**63 - 1)),
    ),
    min_size=1,
    max_size=30,
    unique_by=lambda entry: entry[0],  # merging could overflow the summed multiplicity
).map(
    # a spectrum's total multiplicity must fit int64: share the range among the entries
    lambda entries: entries
    if sum(m for _, m in entries) < 2**63
    else [(v, max(m // len(entries), 1)) for v, m in entries]
)


def assert_saves_oracle_bytes(s, path):
    save_spectrum(s, path)
    expected = json.dumps(oracles.spectrum_to_dict(s), indent=1) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


@given(st.text(), generator_dicts, saved_entries)
@example('"\\\x00\x1f\x7f é ☃ \U0001f600', {"kind": "x", "nested": {"a": [1, None]}}, [(5e-324, 1)])
@example("", {}, [(v, (2**63 - 1) // 5) for v in extreme_values])
@example("", {}, [(1.7976931348623157e308, 2**63 - 1)])
@settings(max_examples=60, deadline=None)
def test_save_writes_json_dump_bytes(tmp_path_factory, label, generator, entries):
    s = Spectrum.from_entries(
        [v for v, _ in entries], [m for _, m in entries], label=label, generator=generator
    )
    assert_saves_oracle_bytes(s, tmp_path_factory.mktemp("save") / "s.json")


def test_save_writes_json_dump_bytes_across_chunks(tmp_path):
    s = Spectrum.from_entries(
        np.arange(1, 2 * SAVE_CHUNK + 2) / 7.0, np.arange(2 * SAVE_CHUNK + 1) % 5 + 1
    )
    assert_saves_oracle_bytes(s, tmp_path / "s.json")


def load_outcome(payload):
    """The spectrum and warnings spectrum_from_dict gives, or the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = spectrum_from_dict(payload)
        except Exception as exc:  # compared between the two paths
            return type(exc), str(exc)
    return s, s.values.tolist(), s.multiplicities.tolist(), [
        (w.category, str(w.message)) for w in caught
    ]


file_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=2**80),
)


# entries only the per-entry checks accept or name, each with whether the
# column types still fit the fast path (a NaN does; from_entries rejects it)
odd_entries = [
    (None, False),
    ({}, False),
    ([1.0], False),
    ({"value": True}, False),
    ({"value": "1"}, False),
    ({"value": 10**400}, False),
    ({"value": 1.0, "multiplicity": 2.0}, False),
    ({"value": 1.0, "multiplicity": False}, False),
    ({"value": 1.0, "multiplicity": 2**63}, False),
    ({"value": math.nan}, True),
]


@st.composite
def file_payloads(draw):
    """Sorted or unsorted values, ints and floats mixed, some near-duplicates,
    sometimes one odd entry; returns the payload and whether the fast path fits."""
    values = draw(st.lists(file_values, min_size=1, max_size=30))
    if draw(st.booleans()):
        values.sort()
    for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=3)):
        values.insert(i + 1, float(values[i]) * (1 + draw(st.sampled_from([1e-13, 5e-13, 1e-11]))))
    entries = []
    for v in values:
        entry = {"value": v}
        if draw(st.booleans()):
            entry["multiplicity"] = draw(st.integers(min_value=1, max_value=9))
        entries.append(entry)
    fits = True
    if draw(st.booleans()):
        odd, fits = draw(st.sampled_from(odd_entries))
        entries.insert(draw(st.integers(0, len(entries))), odd)
    return {"label": "p", "entries": entries}, fits


@given(file_payloads())
@example(({"entries": [{"value": 3}, {"value": 1.5, "multiplicity": 2}, {"value": 3.0}]}, True))
@settings(max_examples=200, deadline=None)
def test_fast_load_matches_per_entry_loop(case):
    payload, fits = case
    assert (_entry_arrays(payload["entries"]) is not None) == fits
    fast = load_outcome(payload)
    with mock.patch("heatcount.spectrum._entry_arrays", return_value=None):
        checked = load_outcome(payload)
    assert fast == checked


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
        cfg, _ = _resolve_config(s, lam, InversionConfig())
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
