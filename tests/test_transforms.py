import itertools
import math
import types

import numpy as np
import pytest

import oracles
from heatcount import (
    CountingMode,
    CoverageError,
    DomainError,
    InvalidParameterError,
    Spectrum,
    counting,
    density_estimate,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    heat_trace,
    laplace_of_counting,
    partial_exponential_sum,
    transforms,
    truncation_correction,
)

T_GRID = (0.01, 0.1, 1.0, 10.0)


class TestCounting:
    def test_interval_examples(self, interval_pi_100):
        assert counting(interval_pi_100, 10.0) == 3
        assert counting(interval_pi_100, 9.0, CountingMode.STRICT) == 2
        assert counting(interval_pi_100, 9.0, CountingMode.INCLUSIVE) == 3

    def test_torus_against_lattice_oracle(self):
        s = generate_torus(100.0)
        oracle = oracles.torus_multiplicities(100.0)
        strict = sum(m for k, m in oracle.items() if k < 100)
        inclusive = sum(oracle.values())
        assert counting(s, 100.0, CountingMode.STRICT) == strict
        assert counting(s, 100.0, CountingMode.INCLUSIVE) == inclusive

    def test_below_and_above_range(self, interval_pi_100):
        assert counting(interval_pi_100, 0.5) == 0
        assert counting(interval_pi_100, 1e12) == 100

    def test_infinite_limits_and_nan(self, interval_pi_100):
        for mode in CountingMode:
            assert counting(interval_pi_100, -math.inf, mode) == 0
            assert counting(interval_pi_100, math.inf, mode) == 100
            with pytest.raises(DomainError, match="nan"):
                counting(interval_pi_100, math.nan, mode)

    def test_nondecreasing(self, torus_400):
        probes = np.linspace(-1.0, 450.0, 400)
        counts = [counting(torus_400, lam) for lam in probes]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_strict_inclusive_differ_by_multiplicity(self, torus_400):
        for value, mult in zip(torus_400.values, torus_400.multiplicities):
            delta = counting(torus_400, value, CountingMode.INCLUSIVE) - counting(
                torus_400, value, CountingMode.STRICT
            )
            assert delta == mult
        # off the spectrum the two modes agree
        assert counting(torus_400, 2.5, CountingMode.STRICT) == counting(
            torus_400, 2.5, CountingMode.INCLUSIVE
        )

    def test_accepts_mode_strings(self, interval_pi_100):
        assert counting(interval_pi_100, 9.0, "inclusive") == 3


class TestHeatTrace:
    def test_interval_frozen_value(self, interval_pi_100):
        value, tail = heat_trace(interval_pi_100, 1.0)
        direct = oracles.heat_trace_direct(oracles.pairs(interval_pi_100), 1.0)
        assert value == pytest.approx(direct, rel=1e-15)
        assert value == pytest.approx(0.38631860241332605, rel=1e-15)
        assert tail.valid

    def test_constant_density_geometric_form(self, const_density_10k):
        value, tail = heat_trace(const_density_10k, 1.0)
        assert value == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
        assert tail.valid
        assert tail.bound_value < 1e-300  # true tail ~ e^-10001 underflows

    def test_dominant_term_limit(self, interval_pi_100):
        value, _ = heat_trace(interval_pi_100, 700.0)
        assert value == pytest.approx(math.exp(-700.0), rel=1e-12)

    def test_torus_large_t_tends_to_zero_mode(self, torus_400):
        value, _ = heat_trace(torus_400, 50.0)
        assert value == pytest.approx(1.0, rel=1e-15)

    def test_strictly_decreasing_in_t(self, const_density_200):
        ts = np.geomspace(1e-3, 5.0, 25)
        values = [heat_trace(const_density_200, t).value for t in ts]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_small_t_approaches_total_count(self, const_density_200):
        value, tail = heat_trace(const_density_200, 1e-10)
        assert tail.valid
        assert abs(value - const_density_200.total_count) < 1e-5

    def test_nonpositive_t_rejected(self, interval_pi_100):
        with pytest.raises(DomainError):
            heat_trace(interval_pi_100, 0.0)
        with pytest.raises(DomainError):
            heat_trace(interval_pi_100, -1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    @pytest.mark.parametrize("op", [
        heat_trace, truncation_correction, laplace_of_counting,
        lambda s, t: partial_exponential_sum(s, 10.0, t),
    ])
    def test_nonfinite_t_rejected(self, torus_400, op, t):
        # the zero mode would give 0 * inf = nan at t = inf
        with pytest.raises(DomainError):
            op(torus_400, t)


class TestTailBounds:
    def test_interval_bound_dominates_true_tail(self):
        small = generate_interval(math.pi, 100)
        big = generate_interval(math.pi, 400)
        for t in T_GRID:
            true_tail = heat_trace(big, t).value - heat_trace(small, t).value
            bound = heat_trace(small, t).tail
            assert bound.valid
            assert true_tail <= bound.bound_value * (1 + 1e-12)

    def test_constant_density_bound_is_geometric_remainder(self):
        small = generate_constant_density(2.0, 100)
        big = generate_constant_density(2.0, 3000)
        for t in T_GRID:
            true_tail = heat_trace(big, t).value - heat_trace(small, t).value
            bound = heat_trace(small, t).tail
            exact = math.exp(-101.0 / 2.0 * t) / -math.expm1(-t / 2.0)
            assert bound.bound_value == pytest.approx(exact, rel=1e-12)
            assert true_tail <= bound.bound_value * (1 + 1e-12)

    def test_rectangle_bound_dominates_true_tail(self):
        small = generate_rectangle(math.pi, math.pi, 500.0)
        big = generate_rectangle(math.pi, math.pi, 8000.0)
        for t in (0.01, 0.1, 1.0):
            true_tail = heat_trace(big, t).value - heat_trace(small, t).value
            bound = heat_trace(small, t).tail
            assert bound.valid
            assert true_tail <= bound.bound_value * (1 + 1e-12)

    def test_torus_bound_dominates_true_tail(self):
        small = generate_torus(300.0)
        big = generate_torus(5000.0)
        for t in (0.01, 0.1, 1.0):
            true_tail = heat_trace(big, t).value - heat_trace(small, t).value
            bound = heat_trace(small, t).tail
            assert bound.valid
            assert true_tail <= bound.bound_value * (1 + 1e-12)

    def test_file_spectrum_has_no_bound(self):
        s = Spectrum.from_entries([1.0, 2.0, 3.0], generator={"kind": "file"})
        _, tail = heat_trace(s, 1.0)
        assert not tail.valid
        assert tail.bound_value == 0.0


class TestPartialExponentialSum:
    def test_reduces_to_inclusive_counting(self, interval_pi_100):
        assert partial_exponential_sum(interval_pi_100, 10.0, 0.0) == 3.0
        assert partial_exponential_sum(interval_pi_100, 9.0, 0.0) == 3.0

    def test_full_prefix_equals_heat_trace_bitwise(self, interval_pi_100):
        for t in T_GRID:
            expected = heat_trace(interval_pi_100, t).value
            assert partial_exponential_sum(interval_pi_100, 1e4, t) == expected

    def test_three_term_value(self, interval_pi_100):
        expected = math.exp(-0.5) + math.exp(-2.0) + math.exp(-4.5)
        got = partial_exponential_sum(interval_pi_100, 10.0, 0.5)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.7529749394874884, rel=1e-15)

    def test_below_spectrum_is_zero(self, interval_pi_100):
        assert partial_exponential_sum(interval_pi_100, 0.5, 1.0) == 0.0

    def test_random_probes_match_counting(self, torus_400):
        rng = np.random.default_rng(7)
        for u in rng.uniform(-5.0, 450.0, size=100):
            expected = counting(torus_400, u, CountingMode.INCLUSIVE)
            assert partial_exponential_sum(torus_400, float(u), 0.0) == float(expected)

    def test_negative_t_rejected(self, interval_pi_100):
        with pytest.raises(DomainError):
            partial_exponential_sum(interval_pi_100, 10.0, -0.5)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_infinite_limits_and_nan(self, interval_pi_100, t):
        s = interval_pi_100
        assert partial_exponential_sum(s, -math.inf, t) == 0.0
        assert partial_exponential_sum(s, math.inf, t) == partial_exponential_sum(s, 1e4, t)
        with pytest.raises(DomainError, match="nan"):
            partial_exponential_sum(s, math.nan, t)


class TestLaplaceOfCounting:
    @pytest.fixture()
    def families(self, interval_pi_100, const_density_200, rectangle_pi_2000, torus_400):
        return [interval_pi_100, const_density_200, rectangle_pi_2000, torus_400]

    def test_step_exact_identity(self, families):
        for s in families:
            for t in T_GRID:
                k_val = heat_trace(s, t).value
                step = laplace_of_counting(s, t, "step_exact")
                corr = truncation_correction(s, t)
                assert abs(step + corr - k_val) <= 1e-12 * k_val

    def test_quadrature_matches_heat_trace(self, families):
        for s in families:
            for t in T_GRID:
                k_val = heat_trace(s, t).value
                quad = laplace_of_counting(s, t, "quadrature")
                assert abs(quad - k_val) <= 1e-8 * k_val

    def test_quadrature_consistent_with_step_exact(self, families):
        for s in families:
            for t in T_GRID:
                step = laplace_of_counting(s, t, "step_exact") + truncation_correction(s, t)
                quad = laplace_of_counting(s, t, "quadrature")
                assert abs(quad - step) <= 1e-8 * abs(step)

    def test_constant_density_closed_form(self, const_density_10k):
        got = laplace_of_counting(const_density_10k, 1.0, "step_exact")
        assert got == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    def test_quadrature_interval_frozen(self, interval_pi_100):
        got = laplace_of_counting(interval_pi_100, 1.0, "quadrature")
        assert got == pytest.approx(0.38631860241332605, rel=1e-8)

    def test_bad_method(self, interval_pi_100):
        with pytest.raises(InvalidParameterError, match="method"):
            laplace_of_counting(interval_pi_100, 1.0, "montecarlo")

    def test_nonpositive_t(self, interval_pi_100):
        with pytest.raises(DomainError):
            laplace_of_counting(interval_pi_100, 0.0)

    def test_quadrature_of_an_underflowing_trace(self, interval_pi_200):
        # K(1000) rounds to 0, and no panel of the quadrature is live
        assert heat_trace(interval_pi_200, 1000.0).value == 0.0
        assert laplace_of_counting(interval_pi_200, 1000.0, "quadrature") == 0.0

    @pytest.mark.parametrize("t", [1.0, 1e-3, 1e-6])
    def test_quadrature_converges_above_ten_thousand_values(self, t):
        # panels stay aligned with the eigenvalue jumps at any spectrum size
        s = generate_interval(math.pi, 10_001)
        k_val = heat_trace(s, t).value
        assert abs(laplace_of_counting(s, t, "quadrature") - k_val) <= 1e-8 * k_val

    @pytest.mark.parametrize("t", [1e-30, 1e-200, 1e-300, 1e-305, 1e-306, 1e-307, 5e-324])
    @pytest.mark.filterwarnings("error")
    def test_quadrature_at_tiny_t_is_right_or_raises(self, interval_pi_200, t):
        # no t > 0 raises any more, so every t is held to the bound.  The
        # scaled widths underflow and, below t ~ 1e-306, 2 EXP_ZERO / t
        # and a domain end of (log N + 28) / t would overflow; the piece past
        # the last value is exact, so the quadrature stays within the rule's
        # tau / (1 - x_tau/2) of the trace, plus rounding, with no numpy
        # warning on the way
        tau = transforms.BOUNDARY_DROP / 10
        x_tau = transforms._split_width()
        k_val = heat_trace(interval_pi_200, t).value
        quad = laplace_of_counting(interval_pi_200, t, "quadrature")
        assert abs(quad - k_val) <= (tau / (1 - x_tau / 2) + 64 * 2.0**-53) * k_val

    def test_wide_panels_are_split_not_capped(self, interval_pi_200):
        # at t = 1 the live panels (k^2, (k+1)^2) are up to 55 scaled widths
        # wide; each is split, with no cap to hit.  N e^(-L t) is 0.0, and
        # Boole's rule errs upwards by at most tau / (1 - x_tau/2) of the
        # integral, about 1.04e-13
        assert truncation_correction(interval_pi_200, 1.0) == 0.0
        step = laplace_of_counting(interval_pi_200, 1.0, "step_exact")
        quad = laplace_of_counting(interval_pi_200, 1.0, "quadrature")
        assert 9e-14 * step < quad - step <= 1.1e-13 * step


class TestDensityEstimate:
    def test_range_without_eigenvalues_has_zero_constancy(self):
        s = generate_constant_density(1.0, 20)  # 1, 2, ..., 20
        result = density_estimate(s, 0.25, (2.0, 2.75))  # bins (2, 2.25] .. (2.5, 2.75]
        assert result.table.column("value") == [0.0, 0.0, 0.0]
        assert result.mean_density == 0.0
        assert result.constancy_deviation == 0.0

    def test_constant_density_is_flat(self):
        s = generate_constant_density(2.0, 20)
        result = density_estimate(s, 1.0, (0.0, 10.0))
        assert result.table.column("value") == [2.0] * 10
        assert result.constancy_deviation == 0.0
        assert result.mean_density == 2.0

    def test_interval_bins_match_explicit_counts(self, interval_pi_100):
        result = density_estimate(interval_pi_100, 10.0, (0.0, 100.0))
        # n^2 in (10(k-1), 10k]
        expected = []
        for k in range(1, 11):
            count = sum(1 for n in range(1, 101) if 10.0 * (k - 1) < n * n <= 10.0 * k)
            expected.append(count / 10.0)
        assert result.table.column("value") == expected

    def test_torus_bins_match_lattice_oracle(self):
        s = generate_torus(400.0)
        oracle = oracles.torus_multiplicities(400.0)
        result = density_estimate(s, 20.0, (0.0, 400.0))
        expected = []
        for k in range(20):
            count = sum(m for v, m in oracle.items() if 20.0 * k < v <= 20.0 * (k + 1))
            expected.append(count / 20.0)
        assert result.table.column("value") == expected
        # annulus lattice density is ~1 per unit area, pi per unit of lam
        assert result.mean_density == pytest.approx(math.pi, rel=0.02)

    def test_error_column_is_deviation_from_mean(self):
        s = generate_constant_density(1.0, 100)
        result = density_estimate(s, 25.0, (0.0, 100.0))
        mean = result.mean_density
        for rho, dev in zip(result.table.column("value"), result.table.column("error_estimate")):
            assert dev == abs(rho - mean)

    def test_range_validation(self, interval_pi_100):
        with pytest.raises(DomainError):
            density_estimate(interval_pi_100, 0.0, (0.0, 10.0))
        with pytest.raises(DomainError):
            density_estimate(interval_pi_100, 1.0, (10.0, 10.0))
        with pytest.raises(DomainError):
            density_estimate(interval_pi_100, 1.0, (-5.0, 10.0))
        with pytest.raises(CoverageError):
            density_estimate(interval_pi_100, 1.0, (0.0, 1e9))
        with pytest.raises(DomainError, match="shorter than one bin"):
            density_estimate(interval_pi_100, 50.0, (0.0, 10.0))

    @pytest.mark.parametrize("width", [1e-300, 5e-324, 100 / 1_000_001],
                             ids=["1e-300", "5e-324", "limit+1"])
    def test_more_than_a_million_bins_refused(self, interval_pi_100, width):
        # unchecked, 1e-300 passes numpy's array size limit and 5e-324 makes
        # the bin count infinite; the limit is that of the CLI's grids
        with pytest.raises(DomainError, match="more than 1000000 bins"):
            density_estimate(interval_pi_100, width, (0.0, 100.0))

    def test_a_million_bins_are_allowed(self, interval_pi_100, monkeypatch):
        # a table that only counts its rows keeps the test small
        rows = itertools.count()
        table = types.SimpleNamespace(append=lambda *row: next(rows))
        monkeypatch.setattr(transforms, "EvalTable", lambda columns: table)
        result = density_estimate(interval_pi_100, 1e-4, (0.0, 100.0))
        assert next(rows) == 1_000_000
        # 1, 4, ..., 100 in (0, 100]
        assert result.mean_density == pytest.approx(0.1, rel=1e-12)
