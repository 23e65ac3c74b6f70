"""Property tests for the structural invariants."""

import cmath
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from heatcount import (
    CountingMode,
    InversionConfig,
    Spectrum,
    ValidationError,
    counting,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    heat_trace,
    load_spectrum,
    partial_exponential_sum,
    save_spectrum,
    smoothed_counting,
)
from heatcount.inversion import TERM_DROP_EXPONENT, _resolve_config
from heatcount.spectrum import SAVE_CHUNK, _entry_arrays

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
    v = smoothed_counting(s, lam, beta)
    assert 0.0 <= v <= s.total_count


@given(
    entry_lists,
    st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_smoothed_counting_monotone_in_lambda(entries, lam, step, beta):
    s = build(entries)
    assert smoothed_counting(s, lam, beta) <= smoothed_counting(s, lam + step, beta)


def load_payload(tmp_path_factory, payload):
    """load_spectrum of a file json.dumps wrote."""
    path = tmp_path_factory.mktemp("payload") / "s.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_spectrum(path)


@given(entry_lists)
@example([(0.001, 1), (0.0010000000000000002, 1)])
@settings(max_examples=50, deadline=None)
def test_json_dict_round_trip_exact(tmp_path_factory, entries):
    """Exact and silent: from_entries has merged what file loading would."""
    s = build(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clone = load_payload(tmp_path_factory, oracles.spectrum_to_dict(s))
    assert clone == s
    assert clone.values.tolist() == s.values.tolist()
    assert clone.multiplicities.tolist() == s.multiplicities.tolist()


bad_entries = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]).map(lambda v: {"value": v}),
    st.floats(max_value=0.0, exclude_max=True).map(lambda v: {"value": v, "multiplicity": 1}),
    st.integers(max_value=0).map(lambda m: {"value": 1.0, "multiplicity": m}),
)


@given(entry_lists, bad_entries, st.data())
@settings(deadline=None)
def test_bad_entry_rejected_by_index(tmp_path_factory, entries, bad, data):
    """One bad entry anywhere in an otherwise valid file, sorted or not, is named
    by its index, and no sorting or merging warning comes first."""
    payload = {"entries": [{"value": v, "multiplicity": m} for v, m in entries]}
    i = data.draw(st.integers(min_value=0, max_value=len(entries) - 1), label="i")
    payload["entries"][i] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"^entries\[{i}\]\.(value|multiplicity): "):
            load_payload(tmp_path_factory, payload)


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
    expected = json.dumps(oracles.spectrum_to_columns(s)) + "\n"
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


def load_outcome(tmp_path_factory, payload):
    """The spectrum and warnings loading the payload gives, or the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = load_payload(tmp_path_factory, payload)
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
def test_fast_load_matches_per_entry_loop(tmp_path_factory, case):
    payload, fits = case
    assert (_entry_arrays(payload["entries"]) is not None) == fits
    fast = load_outcome(tmp_path_factory, payload)
    with mock.patch("heatcount.spectrum._entry_arrays", return_value=None):
        checked = load_outcome(tmp_path_factory, payload)
    assert fast == checked


@given(st.text(), generator_dicts, saved_entries)
@settings(max_examples=60, deadline=None)
def test_saved_file_loads_back_exactly(tmp_path_factory, label, generator, entries):
    s = Spectrum.from_entries(
        [v for v, _ in entries], [m for _, m in entries], label=label, generator=generator
    )
    path = tmp_path_factory.mktemp("round") / "s.json"
    save_spectrum(s, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_spectrum(path)
    assert loaded == s
    assert [v.hex() for v in loaded.values.tolist()] == [v.hex() for v in s.values.tolist()]


@given(saved_entries, st.booleans())
@example([(0.0, 1), (5e-324, 2), (1.7976931348623157e308, 2**62)], True)
@settings(max_examples=60, deadline=None)
def test_saved_file_keeps_every_bit(tmp_path_factory, entries, negative_zero):
    """Base64 columns carry each item's eight bytes: -0.0, the smallest
    subnormal and the largest double load back as they were saved."""
    if negative_zero:
        entries = [(-0.0 if v == 0.0 else v, m) for v, m in entries]
    s = Spectrum.from_entries([v for v, _ in entries], [m for _, m in entries])
    path = tmp_path_factory.mktemp("bits") / "s.json"
    save_spectrum(s, path)
    loaded = load_spectrum(path)
    assert loaded.values.tobytes() == s.values.tobytes()
    assert loaded.multiplicities.tobytes() == s.multiplicities.tobytes()


sides = st.one_of(st.integers(min_value=1, max_value=4).map(float), st.floats(0.8, 3.0))
generated_spectra = st.one_of(
    st.builds(generate_interval, st.floats(0.5, 5.0), st.integers(1, 500)),
    st.builds(generate_constant_density, st.floats(0.1, 10.0), st.integers(1, 500)),
    st.builds(generate_torus, st.floats(0.0, 2000.0)),
    # integer sides make (a/b)^2 rational: degenerate eigenvalues whose sums round apart
    st.builds(generate_rectangle, sides, sides, st.floats(50.0, 2000.0)),
)


@given(generated_spectra)
@example(generate_rectangle(1.0, 3.0, 2000.0))
@example(generate_rectangle(1.0, 3.0, 224.8076558025909))
@settings(max_examples=60, deadline=None)
def test_generated_spectrum_loads_back_silently(tmp_path_factory, s):
    """Generators and load_spectrum merge by one rule, so a saved spectrum
    loads back as itself, with no merge warning."""
    path = tmp_path_factory.mktemp("generated") / "s.json"
    save_spectrum(s, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_spectrum(path) == s


def file_outcome(path):
    """The spectrum, its exact values and the warnings load_spectrum gives, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = load_spectrum(path)
        except Exception as exc:  # compared between the two layouts
            return type(exc), str(exc)
    return s, [v.hex() for v in s.values.tolist()], s.multiplicities.tolist(), [
        (w.category, str(w.message)) for w in caught
    ]


saved_spectra = st.builds(
    lambda label, generator, entries: Spectrum.from_entries(
        [v for v, _ in entries], [m for _, m in entries], label=label, generator=generator
    ),
    st.text(),
    generator_dicts,
    saved_entries,
)


@given(st.one_of(generated_spectra, saved_spectra))
@example(generate_rectangle(1.0, 3.0, 2000.0))
@example(Spectrum.from_entries(extreme_values, [1, 2, 3, 4, 5], label="extreme"))
@settings(max_examples=100, deadline=None)
def test_entries_file_loads_as_saved(tmp_path_factory, s):
    """A file in the entries layout earlier versions wrote loads back as the
    spectrum it holds, with the warnings of the column file save_spectrum
    writes for it: none."""
    folder = tmp_path_factory.mktemp("layouts")
    oracles.save_entries(s, folder / "entries.json")
    save_spectrum(s, folder / "columns.json")
    loaded = file_outcome(folder / "entries.json")
    assert loaded == file_outcome(folder / "columns.json")
    assert loaded == (s, [v.hex() for v in s.values.tolist()], s.multiplicities.tolist(), [])


def entry_names_as_columns(outcome):
    """A load outcome with each entries[i].value named values[i] and each
    entries[i].multiplicity named multiplicities[i]."""
    if len(outcome) != 2:  # a spectrum, not an error
        return outcome
    message = re.sub(r"entries\[(\d+)\]\.value", r"values[\1]", outcome[1])
    return outcome[0], re.sub(r"entries\[(\d+)\]\.multiplicity", r"multiplicities[\1]", message)


@given(file_payloads())
@example(({"entries": [{"value": 2.0}, {"value": -1.0, "multiplicity": 2.5}]}, False))
@settings(max_examples=200, deadline=None)
def test_column_file_matches_entries_file(tmp_path_factory, case):
    """The entries of a file, odd ones too, written as two columns give the
    same spectrum and warnings, or the same error naming the same item."""
    payload, _ = case
    entries = payload["entries"]
    assume(all(isinstance(entry, dict) and "value" in entry for entry in entries))
    columns = {
        "label": payload.get("label", ""),
        "values": [entry["value"] for entry in entries],
        "multiplicities": [entry.get("multiplicity", 1) for entry in entries],
    }
    folder = tmp_path_factory.mktemp("columns")
    (folder / "entries.json").write_text(json.dumps(payload), encoding="utf-8")
    (folder / "columns.json").write_text(json.dumps(columns), encoding="utf-8")
    expected = entry_names_as_columns(file_outcome(folder / "entries.json"))
    assert file_outcome(folder / "columns.json") == expected


@st.composite
def column_entries(draw):
    """Values and multiplicities of a column file: sorted or not, some
    near-duplicates, multiplicities of 2**62 that add up past 2**63 - 1 with
    or without a merge, and sometimes a nan, infinite or negative value or a
    multiplicity of 0; and a width of base64 multiplicities that holds them,
    or None for 8 bytes with no multiplicity_bytes field, as files were
    written before it."""
    values = draw(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
    if draw(st.booleans()):
        values.sort()
    for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=3)):
        values.insert(i + 1, values[i] * (1 + draw(st.sampled_from([1e-13, 5e-13, 1e-11]))))
    mults = draw(st.lists(
        st.one_of(st.integers(min_value=1, max_value=9), st.just(2**62)),
        min_size=len(values), max_size=len(values),
    ))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        column, bad = draw(st.sampled_from(
            [(values, math.nan), (values, math.inf), (values, -1.0), (values, -5e-324), (mults, 0)]
        ))
        column[i] = bad
    top = max(mults)
    width = draw(st.sampled_from([w for w in (1, 2, 4, 8) if top < 1 << 8 * w] + [None]))
    return values, mults, width


@given(column_entries())
@example(([3.0, 1.0, 1.0 + 1e-13], [1, 2, 3], 1))
@example(([1.0, 2.0], [1, 0], 2))
@example(([1.0, 1.0 + 1e-13, 2.0], [2**62, 2**62, 1], None))
@example(([1.0, 2.0, math.nan], [2**62, 2**62, 1], 8))
@settings(max_examples=200, deadline=None)
def test_base64_file_matches_decimal_file(tmp_path_factory, columns):
    """The same entries as base64 and as decimal columns give the same
    spectrum and warnings, or the same error naming the same item."""
    values, mults, width = columns
    decimal = {"label": "p", "values": values, "multiplicities": mults}
    encoded = oracles.base64_columns(decimal, width or 8)
    if width is None:
        del encoded["multiplicity_bytes"]
    folder = tmp_path_factory.mktemp("encodings")
    (folder / "decimal.json").write_text(json.dumps(decimal), encoding="utf-8")
    (folder / "base64.json").write_text(json.dumps(encoded), encoding="utf-8")
    assert file_outcome(folder / "base64.json") == file_outcome(folder / "decimal.json")


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
    cfg, _ = _resolve_config(s, lam, InversionConfig())
    assert cfg.c * lam <= 3.6
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
