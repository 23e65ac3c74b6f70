import base64
import bisect
import json
import logging
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from heatcount import (
    EmptySpectrumError,
    InvalidParameterError,
    Spectrum,
    SpectrumFormatError,
    ValidationError,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    load_spectrum,
    save_spectrum,
)
from heatcount.spectrum import _MERGE_BLOCK, MERGE_RTOL, SAVE_CHUNK

GOLDEN = Path(__file__).parent / "golden"


class TestIntervalGenerator:
    def test_unit_length_pi_gives_squares(self):
        s = generate_interval(math.pi, 3)
        assert s.values.tolist() == [1.0, 4.0, 9.0]
        assert s.multiplicities.tolist() == [1, 1, 1]

    def test_single_mode(self):
        s = generate_interval(1.0, 1)
        assert s.values.tolist() == [math.pi**2]

    def test_length_two(self):
        s = generate_interval(2.0, 4)
        expected = [(n * math.pi / 2.0) ** 2 for n in (1, 2, 3, 4)]
        assert s.values.tolist() == pytest.approx(expected, rel=1e-15)

    def test_cutoff_is_last_eigenvalue(self):
        s = generate_interval(math.pi, 50)
        assert s.coverage == s.values[-1] == 2500.0

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_nonpositive_length(self, length):
        with pytest.raises(InvalidParameterError, match="length"):
            generate_interval(length, 3)

    def test_zero_count(self):
        with pytest.raises(InvalidParameterError, match="count"):
            generate_interval(1.0, 0)


class TestRectangleGenerator:
    def test_smallest_mode_only(self):
        s = generate_rectangle(math.pi, math.pi, 2.0)
        assert s.values.tolist() == [2.0]
        assert s.multiplicities.tolist() == [1]

    def test_degenerate_pair_merges(self):
        s = generate_rectangle(math.pi, math.pi, 5.0)
        assert s.values.tolist() == [2.0, 5.0]
        assert s.multiplicities.tolist() == [1, 2]

    def test_total_count_200(self):
        # brute double loop gives 144 eigenvalues below or at 200
        s = generate_rectangle(math.pi, math.pi, 200.0)
        assert s.total_count == 144

    @pytest.mark.parametrize("lam_max", [50.0, 100.0, 200.0])
    def test_totals_match_brute_loop(self, lam_max):
        s = generate_rectangle(math.pi, math.pi, lam_max)
        assert s.total_count == len(oracles.rectangle_eigenvalues(math.pi, math.pi, lam_max))

    def test_asymmetric_sides_match_brute_loop(self):
        s = generate_rectangle(1.0, 2.0, 500.0)
        brute = oracles.rectangle_eigenvalues(1.0, 2.0, 500.0)
        assert s.total_count == len(brute)
        flat = np.repeat(s.values, s.multiplicities)
        assert flat == pytest.approx(brute, rel=1e-13)

    @pytest.mark.parametrize("a, b", [(1.3, 0.7), (2.2, 1.9), (0.9, 3.1)])
    def test_keeps_eigenvalue_equal_to_lambda_max(self, a, b):
        # a cutoff at any sum keeps its eigenvalue, named by the smallest sum it merges
        brute = oracles.rectangle_eigenvalues(a, b, 5000.0)
        merged = [v for v, _ in oracles.merge_runs(brute, MERGE_RTOL)]
        for lam in sorted(set(brute))[-50:]:
            expected = merged[bisect.bisect_right(merged, lam) - 1]
            assert generate_rectangle(a, b, lam).values[-1] == expected

    @given(
        st.floats(min_value=0.8, max_value=3.0),
        st.floats(min_value=0.8, max_value=3.0),
        st.floats(min_value=50.0, max_value=2000.0),
    )
    @settings(max_examples=50)
    def test_random_sides_match_brute_loop(self, a, b, lam_max):
        # every sum up to lam_max (1 + MERGE_RTOL), merged by the one rule, then cut at lam_max
        brute = oracles.rectangle_eigenvalues(a, b, lam_max * (1 + MERGE_RTOL))
        expected = [(v, m) for v, m in oracles.merge_runs(brute, MERGE_RTOL) if v <= lam_max]
        assert oracles.pairs(generate_rectangle(a, b, lam_max)) == expected

    @pytest.mark.parametrize("a, b, lam_max", [(1, 2, 500.0), (1, 3, 2000.0), (2, 3, 2000.0)])
    def test_integer_sides_match_exact_keys(self, a, b, lam_max):
        # one eigenvalue's sums round apart where (a/b)^2 is rational; they must merge
        s = generate_rectangle(a, b, lam_max)
        keys = oracles.rectangle_key_multiplicities(a, b, int(lam_max * (a * b / math.pi) ** 2))
        assert s.multiplicities.tolist() == [keys[k] for k in sorted(keys)]
        expected = [math.pi**2 * k / (a * b) ** 2 for k in sorted(keys)]
        assert s.values.tolist() == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("lam_max", [224.8076558025909, 224.80765580259092])
    def test_degenerate_eigenvalue_at_lambda_max_keeps_its_multiplicity(self, lam_max):
        # key 9 m^2 + n^2 = 205 at (1, 14) and (2, 13): its two sums are these two
        # roundings, and the upper one lies above the lower cutoff
        s = generate_rectangle(1.0, 3.0, lam_max)
        keys = oracles.rectangle_key_multiplicities(1, 3, 205)
        assert s.multiplicities.tolist() == [keys[k] for k in sorted(keys)]
        assert s.multiplicities[-1] == 2
        assert s.values[-1] == 224.8076558025909
        assert s.coverage == lam_max

    def test_cutoff_below_ground_state(self):
        with pytest.raises(EmptySpectrumError):
            generate_rectangle(math.pi, math.pi, 1.5)

    def test_bad_sides(self):
        with pytest.raises(InvalidParameterError, match="a"):
            generate_rectangle(-1.0, 1.0, 10.0)
        with pytest.raises(InvalidParameterError, match="b"):
            generate_rectangle(1.0, 0.0, 10.0)


class TestTorusGenerator:
    def test_zero_cutoff_keeps_zero_mode(self):
        s = generate_torus(0.0)
        assert s.values.tolist() == [0.0]
        assert s.multiplicities.tolist() == [1]

    def test_first_shell(self):
        s = generate_torus(1.0)
        assert s.values.tolist() == [0.0, 1.0]
        assert s.multiplicities.tolist() == [1, 4]

    def test_twenty_five_has_twelve_representations(self):
        # (+-5,0),(0,+-5),(+-3,+-4),(+-4,+-3)
        s = generate_torus(25.0)
        mult = dict(zip(s.values.tolist(), s.multiplicities.tolist()))
        assert mult[25.0] == 12

    def test_multiplicities_match_lattice_oracle(self):
        s = generate_torus(200.0)
        oracle = oracles.torus_multiplicities(200.0)
        got = dict(zip(s.values.tolist(), s.multiplicities.tolist()))
        assert got == {float(k): m for k, m in oracle.items()}

    def test_negative_cutoff(self):
        with pytest.raises(InvalidParameterError, match="lambda_max"):
            generate_torus(-1.0)

    @staticmethod
    def assert_counts_lattice(lam_max):
        s = generate_torus(lam_max)
        expected = sorted(oracles.torus_multiplicities(lam_max).items())
        assert s.values.tolist() == [float(k) for k, _ in expected]
        assert s.multiplicities.tolist() == [m for _, m in expected]
        assert s.values.dtype == np.float64 and s.multiplicities.dtype == np.int64
        assert np.array_equal(s.values, np.round(s.values))  # exact integers
        assert s.label == "flat torus"
        assert s.generator == {"kind": "torus", "lambda_max": float(lam_max)}
        assert s.cutoff == float(lam_max)

    @pytest.mark.parametrize("lam_max", [0, 0.5, 1, 2, 24.999999, 25, 25.5, 1e4])
    def test_counts_at_the_edges_match_lattice_oracle(self, lam_max):
        self.assert_counts_lattice(lam_max)

    @given(st.floats(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_random_cutoffs_match_lattice_oracle(self, lam_max):
        self.assert_counts_lattice(lam_max)

    @pytest.mark.parametrize("block", [1, 1000])
    def test_narrow_windows_match_lattice_oracle(self, monkeypatch, block):
        # three windows of 1000 integers, or windows widened from 1 to the largest
        # gap between squares, 109 integers
        monkeypatch.setattr("heatcount.spectrum._MERGE_BLOCK", block)
        self.assert_counts_lattice(3000.5)

    @pytest.mark.parametrize("lam_max", [1e5, 1e6])
    def test_memory_stays_near_the_result(self, lam_max):
        tracemalloc.start()
        try:
            s = generate_torus(lam_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = s.values.nbytes + s.multiplicities.nbytes
        # the arrays are reserved at about lam_max / 2 entries, 2.1 and 2.3 times the
        # result here, plus one window of bincount and sums: about 24 B per integer
        assert peak <= 3 * output + 64 * _MERGE_BLOCK

    def test_spectrum_that_cannot_be_held_fails_before_counting(self, monkeypatch):
        def count(start, stop):
            raise AssertionError("counted a window")

        monkeypatch.setattr("heatcount.spectrum._quadrant_sums", count)
        # 5e14 values reserved, 3.6 PiB, past any address space
        with pytest.raises(MemoryError):
            generate_torus(1e15)


class TestConstantDensityGenerator:
    def test_unit_density(self):
        s = generate_constant_density(1.0, 3)
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_density_two(self):
        s = generate_constant_density(2.0, 4)
        assert s.values.tolist() == [0.5, 1.0, 1.5, 2.0]

    def test_density_half(self):
        s = generate_constant_density(0.5, 2)
        assert s.values.tolist() == [2.0, 4.0]

    def test_bad_density(self):
        with pytest.raises(InvalidParameterError, match="density"):
            generate_constant_density(0.0, 5)


class TestConstructionInvariants:
    @pytest.mark.parametrize(
        "generate",
        [
            lambda: generate_interval(math.pi, 64),
            lambda: generate_rectangle(math.pi, math.pi, 300.0),
            lambda: generate_torus(300.0),
            lambda: generate_constant_density(2.5, 64),
        ],
    )
    def test_generator_output_is_clean(self, generate):
        s = generate()
        assert np.all(s.values >= 0)
        assert np.all(np.diff(s.values) > 0)
        assert np.all(s.multiplicities >= 1)
        assert s.total_count >= 1

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValidationError):
            Spectrum(np.array([2.0, 1.0]), np.array([1, 1]))

    def test_rejects_negative_value(self):
        with pytest.raises(ValidationError):
            Spectrum(np.array([-1.0, 1.0]), np.array([1, 1]))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValidationError):
            Spectrum(np.array([1.0]), np.array([0]))

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf])
    def test_rejects_non_finite_cutoff(self, cutoff):
        with pytest.raises(ValidationError, match="cutoff"):
            Spectrum(np.array([1.0]), np.array([1]), cutoff=cutoff)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Spectrum(np.array([]), np.array([]))

    def test_immutable_arrays(self):
        s = generate_interval(math.pi, 4)
        with pytest.raises(ValueError):
            s.values[0] = -5.0

    def test_from_entries_merges_duplicates(self):
        s = Spectrum.from_entries([4.0, 1.0, 1.0])
        assert s.values.tolist() == [1.0, 4.0]
        assert s.multiplicities.tolist() == [2, 1]

    def test_from_entries_rejects_zero_multiplicity_before_merging(self):
        with pytest.raises(ValidationError, match=r"^entries\[0\].multiplicity"):
            Spectrum.from_entries([1.0, 1.0], [0, 1])

    @pytest.mark.parametrize(
        "values, mults", [([1.0, 2.0], [1]), ([1.0, 2.0, 3.0], [1, 1])], ids=["2-1", "3-2"]
    )
    def test_from_entries_rejects_mismatched_lengths(self, values, mults):
        expected = rf"^{len(values)} values but {len(mults)} multiplicities"
        with pytest.raises(ValidationError, match=expected):
            Spectrum.from_entries(values, mults)

    @pytest.mark.parametrize(
        "values", [[[1.0, 2.0]], [[1.0], [2.0]], 5.0], ids=["row", "column", "scalar"]
    )
    def test_from_entries_rejects_values_not_1d(self, values):
        with pytest.raises(ValidationError, match=r"^values must be a 1-d array"):
            Spectrum.from_entries(values)

    def test_from_entries_rejects_merged_multiplicity_overflow(self):
        with pytest.raises(ValidationError, match=r"past 2\*\*63 - 1 at value 1\.0$"):
            Spectrum.from_entries([1.0, 1.0, 1.0], [2**63 - 1] * 3)

    def test_from_entries_rejects_total_count_overflow(self):
        with pytest.raises(ValidationError, match=r"past 2\*\*63 - 1 at value 2\.0$"):
            Spectrum.from_entries([1.0, 2.0], [2**63 - 1] * 2)

    def test_constructor_rejects_total_count_overflow(self):
        with pytest.raises(ValidationError, match=r"past 2\*\*63 - 1 at value 3\.0$"):
            Spectrum([1.0, 2.0, 3.0], [2**62, 2**62 - 1, 1])

    def test_total_count_at_int64_max_is_kept(self):
        s = Spectrum.from_entries([2.0, 1.0, 1.0], [1, 2**62, 2**62 - 2])
        assert s.multiplicities.tolist() == [2**63 - 2, 1]
        assert s.total_count == 2**63 - 1

    def test_from_entries_merge_tolerance(self):
        v = 100.0
        s = Spectrum.from_entries([v * (1 + 5e-13), v], [2, 1])
        # the merged value is the smallest of those it merges
        assert s.values.tolist() == [v]
        assert s.multiplicities.tolist() == [3]
        assert Spectrum.from_entries([v * (1 + 5e-13), v]) == Spectrum([v], [2])
        # beyond the tolerance the values stay distinct
        s2 = Spectrum.from_entries([v, v * (1 + 5e-12)])
        assert s2.values.size == 2


# generator headers a file may not carry, and the field each is refused for
BAD_GENERATORS = [
    ('{"kind": "interval"}', "generator.length"),
    ('{"kind": "rectangle", "a": 1}', "generator.b"),
    ('{"kind": "constant_density", "density": 0, "count": 2}', "generator.density"),
    ('{"kind": "interval", "length": "x"}', "generator.length"),
    ('{"kind": "interval", "length": true}', "generator.length"),
    ('{"kind": "rectangle", "a": 1%s, "b": 1}' % ("0" * 400), "generator.a"),
    ('"abc"', "generator"),
    ('[["kind", "interval"], ["length", 1.0]]', "generator"),
]
BAD_GENERATOR_IDS = ["no-length", "no-b", "zero-density", "string-length", "bool-length",
                     "a-10**400", "string", "list-of-pairs"]


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path, interval_pi_100):
        path = tmp_path / "spec.json"
        save_spectrum(interval_pi_100, path)
        loaded = load_spectrum(path)
        assert loaded == interval_pi_100
        assert loaded.values.tolist() == interval_pi_100.values.tolist()

    def test_round_trip_awkward_floats(self, tmp_path):
        values = [1e-308, 0.1, 1 / 3, math.pi * 1e17]
        s = Spectrum.from_entries(values, [3, 1, 4, 1], label="awkward")
        path = tmp_path / "s.json"
        save_spectrum(s, path)
        assert load_spectrum(path) == s

    def test_unsorted_file_sorts_and_warns(self, tmp_path):
        path = tmp_path / "u.json"
        payload = {"label": "x", "entries": [{"value": v, "multiplicity": 1} for v in (4.0, 1.0, 1.0)]}
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="sorting and merging"):
            s = load_spectrum(path)
        assert s.values.tolist() == [1.0, 4.0]
        assert s.multiplicities.tolist() == [2, 1]
        assert s.generator == {"kind": "file"}

    def test_negative_eigenvalue_rejected(self, tmp_path):
        path = tmp_path / "n.json"
        payload = {"entries": [{"value": 1.0, "multiplicity": 1}, {"value": -1.0, "multiplicity": 1}]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=r"entries\[1\].value"):
            load_spectrum(path)

    def test_bad_multiplicity_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        payload = {"entries": [{"value": 1.0, "multiplicity": 0}]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=r"entries\[0\].multiplicity"):
            load_spectrum(path)

    @pytest.mark.parametrize("cutoff", ["NaN", "Infinity"])
    def test_non_finite_cutoff_rejected(self, tmp_path, cutoff):
        path = tmp_path / "c.json"
        path.write_text('{"cutoff": %s, "entries": [{"value": 1.0, "multiplicity": 1}]}' % cutoff)
        with pytest.raises(ValidationError, match="cutoff"):
            load_spectrum(path)

    @pytest.mark.parametrize(
        "entry, where",
        [
            ('{"value": 1%s}' % ("0" * 400), r"entries\[0\]\.value"),
            ('{"value": 1.0, "multiplicity": %d}' % 2**63, r"entries\[0\]\.multiplicity"),
            ('{"value": 1.0, "multiplicity": %d}' % -(2**63 + 1), r"entries\[0\]\.multiplicity"),
        ],
        ids=["value-10**400", "multiplicity-2**63", "multiplicity-below-int64"],
    )
    def test_integer_beyond_storage_range_rejected(self, tmp_path, entry, where):
        path = tmp_path / "big.json"
        path.write_text('{"entries": [%s]}' % entry)
        with pytest.raises(ValidationError, match="^" + where):
            load_spectrum(path)

    def test_cutoff_beyond_double_range_rejected(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"cutoff": 1%s, "entries": [{"value": 1.0}]}' % ("0" * 400))
        with pytest.raises(ValidationError, match="^cutoff"):
            load_spectrum(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": [\n  {"value": }\n]}')
        with pytest.raises(SpectrumFormatError, match="line 2"):
            load_spectrum(path)

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('[{"value": 1.0, "multiplicity": 1}]')
        with pytest.raises(SpectrumFormatError, match="top-level JSON value must be an object"):
            load_spectrum(path)

    def test_string_cutoff_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"cutoff": "10", "entries": [{"value": 1.0, "multiplicity": 1}]}')
        with pytest.raises(SpectrumFormatError, match=r"^cutoff: expected a number, got '10'"):
            load_spectrum(path)

    @pytest.mark.parametrize("generator, field", BAD_GENERATORS, ids=BAD_GENERATOR_IDS)
    def test_bad_generator_named(self, tmp_path, generator, field):
        # refused at the load; unchecked, most fail later in the heat
        # trace's tail bound with an error of no package type
        path = tmp_path / "g.json"
        path.write_text('{"generator": %s, "values": [1.0, 4.0], "multiplicities": [1, 1]}' % generator)
        with pytest.raises(SpectrumFormatError, match=f"^{field}: "):
            load_spectrum(path)

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text("{}")
        with pytest.raises(SpectrumFormatError, match="entries"):
            load_spectrum(path)

    @pytest.mark.parametrize(
        "values, mults, error, message",
        [
            ("[1.0, true]", "[1, 1]", SpectrumFormatError, r"values\[1\]: expected a number, got True"),
            ('[1.0, "2"]', "[1, 1]", SpectrumFormatError, r"values\[1\]: expected a number, got '2'"),
            ("[1.0, null]", "[1, 1]", SpectrumFormatError, r"values\[1\]: expected a number, got None"),
            ("[1.0, 2.0]", "[1, false]", SpectrumFormatError,
             r"multiplicities\[1\]: expected an integer, got False"),
            ("[1.0, 2.0]", '[1, "2"]', SpectrumFormatError,
             r"multiplicities\[1\]: expected an integer, got '2'"),
            ("[1.0, 2.0]", "[1, null]", SpectrumFormatError,
             r"multiplicities\[1\]: expected an integer, got None"),
            ("[1.0, 2.0]", "[1, 2.0]", SpectrumFormatError,
             r"multiplicities\[1\]: expected an integer, got 2\.0"),
            ("[1.0, 2.0]", "[1, %d]" % 2**63, ValidationError,
             r"multiplicities\[1\]: must be >= 1 and < 2\*\*63, got 9223372036854775808"),
            ("[1.0, 1%s]" % ("0" * 400), "[1, 1]", ValidationError, r"values\[1\]: must be finite, got 10+$"),
            ("[1.0, NaN]", "[1, 1]", ValidationError, r"values\[1\]: must be finite, got nan"),
            ("[1.0, Infinity]", "[1, 1]", ValidationError, r"values\[1\]: must be finite, got inf"),
            ("[1.0, -2.0]", "[1, 1]", ValidationError, r"values\[1\]: negative eigenvalue -2\.0"),
            ("[1.0, 2.0]", "[1, 0]", ValidationError, r"multiplicities\[1\]: must be >= 1, got 0"),
        ],
        ids=[
            "value-bool", "value-string", "value-null", "multiplicity-bool",
            "multiplicity-string", "multiplicity-null", "multiplicity-float",
            "multiplicity-2**63", "value-10**400", "value-NaN", "value-Infinity",
            "value-negative", "multiplicity-0",
        ],
    )
    def test_bad_column_item_named(self, tmp_path, values, mults, error, message):
        path = tmp_path / "c.json"
        path.write_text('{"values": %s, "multiplicities": %s}' % (values, mults))
        with pytest.raises(error, match="^" + message):
            load_spectrum(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"values": [1.0, 2.0]}', r"multiplicities: must be a list as long as values$"),
            ('{"multiplicities": [1]}', r"values: must be a non-empty list"),
            ('{"values": [1.0, 2.0], "multiplicities": [1]}',
             r"multiplicities: must be a list as long as values$"),
            ('{"values": [1.0], "multiplicities": [1, 1]}',
             r"multiplicities: must be a list as long as values$"),
            ('{"values": [], "multiplicities": []}', r"values: must be a non-empty list"),
            ('{"values": 1.0, "multiplicities": [1]}', r"values: must be a non-empty list"),
        ],
        ids=["no-multiplicities", "no-values", "short-multiplicities", "long-multiplicities",
             "empty", "values-not-a-list"],
    )
    def test_bad_columns_named(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(SpectrumFormatError, match="^" + message):
            load_spectrum(path)

    @pytest.mark.parametrize(
        "values, mults, message",
        [
            ("AAAAAAAA*PA/", "AQAAAAAAAAA=", r"values: invalid base64: "),
            ("AAAAAAAA8D8=", "AQAAAAAAAA\u00e9", r"multiplicities: invalid base64: "),
            ("AAAAAAAA8A==", "AQAAAAAAAAA=",
             r"values: must decode to a positive whole number of 8-byte items, got 7 bytes$"),
            ("AAAAAAAA8D8=", "AQAAAAAAAAAB",
             r"multiplicities: must decode to a positive whole number of 8-byte items, got 9 bytes$"),
            ("", "", r"values: must decode to a positive whole number of 8-byte items, got 0 bytes$"),
            ("AAAAAAAA8D8AAAAAAAAAQA==", "AQAAAAAAAAA=",
             r"multiplicities: 2 values but 1 multiplicities; the lengths must match$"),
            ("AAAAAAAA8D8=", [1], r"multiplicities: must be a base64 string, as values is$"),
            ([1.0], "AQAAAAAAAAA=", r"multiplicities: must be a list as long as values$"),
        ],
        ids=["non-alphabet", "non-ascii", "values-7-bytes", "multiplicities-9-bytes", "empty",
             "unequal-lengths", "string-beside-list", "list-beside-string"],
    )
    def test_bad_base64_columns_named(self, tmp_path, values, mults, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"values": values, "multiplicities": mults}))
        with pytest.raises(SpectrumFormatError, match="^" + message):
            load_spectrum(path)

    @pytest.mark.parametrize(
        "top, width",
        [(1, 1), (255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8),
         (2**62, 8)],
    )
    def test_multiplicities_saved_at_the_narrowest_width(self, tmp_path, top, width):
        s = Spectrum.from_entries([0.5, 1.0, 2.0], [1, top, 1], label="w")
        path = tmp_path / "s.json"
        save_spectrum(s, path)
        assert json.loads(path.read_text())["multiplicity_bytes"] == width
        loaded = load_spectrum(path)
        assert loaded == s
        assert loaded.values.tobytes() == s.values.tobytes()
        assert loaded.multiplicities.tobytes() == s.multiplicities.tobytes()

    @pytest.mark.parametrize("width", ["0", "3", "16", "true", "1.0", '"1"', "null"])
    def test_bad_multiplicity_bytes_named(self, tmp_path, width):
        path = tmp_path / "c.json"
        path.write_text(
            '{"multiplicity_bytes": %s, "values": "AAAAAAAA8D8=", "multiplicities": "AQ=="}' % width
        )
        message = r"^multiplicity_bytes: must be 1, 2, 4 or 8, got "
        with pytest.raises(SpectrumFormatError, match=message):
            load_spectrum(path)

    def test_lists_and_entries_ignore_multiplicity_bytes(self, tmp_path):
        columns = tmp_path / "columns.json"
        columns.write_text(json.dumps(
            {"multiplicity_bytes": 3, "values": [1.0, 4.0], "multiplicities": [2, 1]}
        ))
        entries = tmp_path / "entries.json"
        entries.write_text(json.dumps(
            {"multiplicity_bytes": "x", "entries": [{"value": 1.0, "multiplicity": 2}]}
        ))
        assert load_spectrum(columns).multiplicities.tolist() == [2, 1]
        assert load_spectrum(entries).multiplicities.tolist() == [2]

    @staticmethod
    def short_multiplicities(path, width, cut):
        """Write three values and their multiplicities at ``width`` bytes,
        less the column's last ``cut`` bytes."""
        payload = oracles.base64_columns({"values": [1.0, 2.0, 3.0], "multiplicities": [1, 2, 3]}, width)
        items = base64.b64decode(payload["multiplicities"])
        payload["multiplicities"] = base64.b64encode(items[:-cut]).decode()
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_multiplicities_one_item_short_named(self, tmp_path, width):
        self.short_multiplicities(tmp_path / "c.json", width, width)
        message = r"^multiplicities: 3 values but 2 multiplicities; the lengths must match$"
        with pytest.raises(SpectrumFormatError, match=message):
            load_spectrum(tmp_path / "c.json")

    @pytest.mark.parametrize("width", [2, 4, 8])  # at width 1 a byte short is an item short
    def test_multiplicities_one_byte_short_named(self, tmp_path, width):
        self.short_multiplicities(tmp_path / "c.json", width, 1)
        message = (
            rf"^multiplicities: must decode to a positive whole number of {width}-byte items, "
            rf"got {3 * width - 1} bytes$"
        )
        with pytest.raises(SpectrumFormatError, match=message):
            load_spectrum(tmp_path / "c.json")

    def test_file_written_before_multiplicity_bytes_loads(self, tmp_path):
        # saved by save_spectrum before the field: int64 multiplicities, no width
        old = GOLDEN / "torus-100-int64.json"
        assert "multiplicity_bytes" not in json.loads(old.read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = load_spectrum(old)
        assert s == generate_torus(100.0)
        path = tmp_path / "s.json"
        save_spectrum(s, path)
        assert json.loads(path.read_text())["multiplicity_bytes"] == 1
        assert load_spectrum(path) == s

    def test_overflow_message_is_the_same_with_and_without_a_merge(self, tmp_path):
        # 2**62 + 2**62 passes 2**63 - 1 at 2.0, merged with a near-duplicate or not
        merged = tmp_path / "merged.json"
        merged.write_text(json.dumps(oracles.base64_columns(
            {"values": [1.0, 2.0, 2.0 * (1 + 1e-13)], "multiplicities": [2**62, 2**62, 1]}
        )))
        distinct = tmp_path / "distinct.json"
        distinct.write_text(json.dumps(oracles.base64_columns(
            {"values": [1.0, 2.0, 3.0], "multiplicities": [2**62, 2**62, 1]}
        )))
        messages = []
        for path in (merged, distinct):
            with pytest.raises(ValidationError) as info:
                load_spectrum(path)
            messages.append(str(info.value))
        assert messages == ["multiplicities add up past 2**63 - 1 at value 2.0"] * 2

    def test_file_merge_uses_relative_tolerance(self, tmp_path):
        path = tmp_path / "t.json"
        v = 50.0
        payload = {"entries": [{"value": v, "multiplicity": 1}, {"value": v * (1 + 2e-13), "multiplicity": 2}]}
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            s = load_spectrum(path)
        assert s.values.size == 1
        assert s.multiplicities.tolist() == [3]

    def test_warnings_name_the_caller(self, tmp_path):
        entries = tmp_path / "entries.json"
        entries.write_text(json.dumps({"entries": [{"value": 3.0}, {"value": 2.0}]}))
        columns = tmp_path / "columns.json"
        columns.write_text(json.dumps({"values": [3.0, 1.0], "multiplicities": [1, 1]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_spectrum(entries)
            load_spectrum(columns)
        message = "spectrum entries not strictly increasing; sorting and merging"
        assert [str(w.message) for w in caught] == [message] * 2
        assert [w.filename for w in caught] == [__file__] * 2

    def test_undecodable_saved_file_fails_as_json_load_does(self, tmp_path):
        path = tmp_path / "s.json"
        save_spectrum(generate_interval(math.pi, 3000), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
        with pytest.raises(UnicodeDecodeError) as expected:
            with path.open(encoding="utf-8") as handle:
                json.load(handle)
        with pytest.raises(UnicodeDecodeError) as info:
            load_spectrum(path)
        assert str(info.value) == str(expected.value)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_load_from_a_pipe(self):
        loaded = []
        for text in (
            b'{"entries": [{"value": 1.0, "multiplicity": 2}]}',
            b'{"values": [1.0, 3.0], "multiplicities": [2, 5]}',
        ):
            read_end, write_end = os.pipe()
            try:
                os.write(write_end, text)
                os.close(write_end)
                loaded.append(load_spectrum(f"/dev/fd/{read_end}"))
            finally:
                os.close(read_end)
        assert [s.multiplicities.tolist() for s in loaded] == [[2], [2, 5]]
        assert loaded[1].values.tolist() == [1.0, 3.0]

    def test_load_logs_the_path_taken(self, tmp_path, caplog):
        s = generate_interval(math.pi, 3)
        columns = tmp_path / "columns.json"
        save_spectrum(s, columns)
        entries = tmp_path / "entries.json"
        oracles.save_entries(s, entries)
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps({"entries": [{"value": 1.0, "multiplicity": 1}]}))
        load_spectrum(columns)
        assert not caplog.records  # silent by default
        with caplog.at_level(logging.DEBUG, logger="heatcount.spectrum"):
            assert load_spectrum(columns) == s
            assert load_spectrum(entries) == s
            load_spectrum(compact)
        assert [r.getMessage() for r in caplog.records] == [
            f"{columns}: read the column layout",
            f"{entries}: read the entries layout",
            f"{compact}: read the entries layout",
        ]

    def test_load_memory_stays_near_the_result(self, tmp_path):
        # multiplicities of 1: a 1-byte column, copied to int64 on load
        count = 100_000
        path = tmp_path / "const.json"
        save_spectrum(generate_constant_density(1.0, count), path)
        tracemalloc.start()
        try:
            load_spectrum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result alone holds 16 B per entry; parsing the whole file held 290
        assert peak <= 128 * count

    def test_int64_column_load_memory_stays_near_the_result(self, tmp_path):
        # one multiplicity of 2**40: an 8-byte column, viewed where it was decoded
        count = 100_000
        path = tmp_path / "wide.json"
        mults = np.ones(count, dtype=np.int64)
        mults[0] = 2**40
        save_spectrum(Spectrum(np.arange(1.0, count + 1), mults), path)
        assert b'"multiplicity_bytes": 8' in path.read_bytes()[:200]
        tracemalloc.start()
        try:
            load_spectrum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * count

    def test_decimal_column_load_memory_stays_near_the_result(self, tmp_path):
        count = 100_000
        path = tmp_path / "const.json"
        s = generate_constant_density(1.0, count)
        path.write_text(json.dumps(oracles.spectrum_to_decimal_columns(s)))
        tracemalloc.start()
        try:
            load_spectrum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * count

    @pytest.mark.parametrize("count", [SAVE_CHUNK, 16 * SAVE_CHUNK + 1])
    def test_save_memory_does_not_grow_with_the_spectrum(self, tmp_path, count):
        s = generate_constant_density(1.0, count)
        tracemalloc.start()
        try:
            save_spectrum(s, tmp_path / "const.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk's base64 is 32/3 B per item, with room for the encoder's buffers
        assert peak <= 24 * SAVE_CHUNK
