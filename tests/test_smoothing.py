import math

import numpy as np
import pytest

import oracles
from heatcount import (
    DomainError,
    Spectrum,
    beta_sweep,
    counting,
    default_beta,
    generate_constant_density,
    smoothed_counting,
    smoothing_error_bound,
)


def occupation_direct(spectrum, lam, beta):
    """Term-by-term fsum oracle, no saturation shortcuts."""
    total = 0.0
    for value, mult in oracles.pairs(spectrum):
        x = beta * (value - lam)
        if x > 745:
            term = 0.0
        else:
            term = mult / (math.exp(x) + 1.0)
        total += term
    return total


class TestSmoothedCounting:
    def test_interval_at_twelve(self, interval_pi_100):
        got = smoothed_counting(interval_pi_100, 12.0, 10.0)
        assert got == pytest.approx(occupation_direct(interval_pi_100, 12.0, 10.0), rel=1e-14)
        assert abs(got - 3.0) <= 1e-8

    def test_constant_density_at_eigenvalue(self, const_density_200):
        # the resonant term contributes exactly 1/2
        got = smoothed_counting(const_density_200, 5.0, 100.0)
        assert got == pytest.approx(4.5, abs=1e-12)

    def test_far_below_spectrum_is_exactly_zero(self, interval_pi_100):
        got = smoothed_counting(interval_pi_100, -100.0, 10.0)
        assert got == 0.0

    def test_far_above_spectrum_is_exactly_total(self):
        s = generate_constant_density(1.0, 50)
        got = smoothed_counting(s, 1e6, 10.0)
        assert got == 50.0

    def test_single_eigenvalue_closed_form(self):
        s = Spectrum.from_entries([1.0])
        assert smoothed_counting(s, 2.0, 1.0) == pytest.approx(
            1.0 / (math.exp(-1.0) + 1.0), rel=1e-15
        )
        assert smoothed_counting(s, 2.0, 10.0) == pytest.approx(
            1.0 / (math.exp(-10.0) + 1.0), rel=1e-15
        )

    def test_range_invariant(self, torus_400):
        total = torus_400.total_count
        for lam in (-10.0, 0.0, 3.7, 200.0, 1e4):
            for beta in (0.1, 1.0, 100.0):
                v = smoothed_counting(torus_400, lam, beta)
                assert 0.0 <= v <= total

    def test_monotone_in_lambda(self, interval_pi_100):
        probes = np.linspace(0.0, 30.0, 50)
        values = [smoothed_counting(interval_pi_100, lam, 3.0) for lam in probes]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_symmetric_pair_cancels(self):
        # dyadic offsets: both terms share one exp() evaluation
        s = Spectrum.from_entries([4.5, 5.5])
        v = smoothed_counting(s, 5.0, 7.0)
        assert v == 1.0

    def test_symmetric_pair_generic_offsets(self):
        s = Spectrum.from_entries([5.0 - 0.3, 5.0 + 0.3])
        v = smoothed_counting(s, 5.0, 2.0)
        assert v == pytest.approx(1.0, abs=5e-16)

    def test_invalid_beta(self, interval_pi_100):
        with pytest.raises(DomainError):
            smoothed_counting(interval_pi_100, 1.0, 0.0)


class TestErrorBound:
    def test_interval_bound_tiny_at_beta_ten(self, interval_pi_100):
        bound = smoothing_error_bound(interval_pi_100, 12.0, 10.0)
        assert bound < 1e-12
        deviation = abs(smoothed_counting(interval_pi_100, 12.0, 10.0) - 3.0)
        assert deviation <= bound

    def test_constant_density_termwise_value(self, const_density_200):
        # gaps 0.5, 1.5, 2.5, ... on both sides
        bound = smoothing_error_bound(const_density_200, 2.5, 2.0)
        direct = math.fsum(
            1.0 / (math.exp(2.0 * abs(v - 2.5)) + 1.0) for v in const_density_200.values
        )
        assert bound == pytest.approx(direct, rel=1e-14)

    def test_bound_dominates_deviation(self, torus_400):
        # slack: the measured deviation carries ~eps per summed term that the
        # analytic bound does not account for
        slack = 64 * 2.3e-16 * torus_400.total_count
        for lam in (2.5, 7.3, 101.5):
            for beta in (0.5, 2.0, 20.0):
                v = smoothed_counting(torus_400, lam, beta)
                dev = abs(v - counting(torus_400, lam))
                assert dev <= smoothing_error_bound(torus_400, lam, beta) + slack

    def test_worst_case_saturation(self):
        s = generate_constant_density(1.0, 100)
        cap = 700.0
        gap = 0.5  # lam = 5.5 sits half a unit from both neighbours
        bound = smoothing_error_bound(s, 5.5, cap / gap)
        assert bound <= s.total_count * math.exp(-cap)

    def test_eigenvalue_rejected(self, const_density_200):
        with pytest.raises(DomainError, match="midpoint"):
            smoothing_error_bound(const_density_200, 5.0, 10.0)

    # the spectrum holds 1, 2, ..., 200: at an eigenvalue (the first, an
    # inner and the last), between two, below the first and above the last
    @pytest.mark.parametrize("lam", [1.0, 5.0, 200.0, 5.5, 0.5, -3.0, 200.5, 1e300])
    def test_eigenvalue_rejected_exactly_where_it_is_stored(self, const_density_200, lam):
        s = const_density_200
        assert (lam in s.values.tolist()) == (lam in (1.0, 5.0, 200.0))
        if lam in s.values.tolist():
            with pytest.raises(DomainError, match="midpoint"):
                smoothing_error_bound(s, lam, 10.0)
        else:
            assert smoothing_error_bound(s, lam, 10.0) >= 0.0

    def test_negative_zero_is_the_eigenvalue_zero(self):
        s = Spectrum.from_entries([0.0, 1.0], [1, 1])
        with pytest.raises(DomainError, match="midpoint"):
            smoothing_error_bound(s, -0.0, 10.0)


class TestBetaSweep:
    def test_deviations_strictly_decreasing(self, interval_pi_100):
        table = beta_sweep(interval_pi_100, 12.0, [1.0, 2.0, 5.0, 10.0])
        devs = table.column("deviation")
        assert all(a > b for a, b in zip(devs, devs[1:]))
        for dev, bound in zip(devs, table.column("bound")):
            assert dev <= bound * (1 + 1e-12)

    def test_midgap_bound_leading_order(self, const_density_200):
        # two nearest terms dominate the bound: ~ 2/(e^(beta g/2) + 1) at gap 1;
        # the signed deviation itself cancels at an exactly symmetric midpoint
        table = beta_sweep(const_density_200, 5.5, [20.0])
        bound = table.column("bound")[0]
        assert bound == pytest.approx(2.0 / (math.exp(10.0) + 1.0), rel=1e-6)
        assert table.column("deviation")[0] < 1e-12

    def test_asymmetric_point_deviation_from_nearest_term(self, const_density_200):
        table = beta_sweep(const_density_200, 5.25, [20.0])
        dev = table.column("deviation")[0]
        assert dev == pytest.approx(1.0 / (math.exp(5.0) + 1.0), rel=1e-3)

    def test_columns_and_metadata(self, interval_pi_100):
        table = beta_sweep(interval_pi_100, 12.0, [1.0])
        assert table.columns == ("beta", "value", "deviation", "bound")
        assert table.metadata["oracle"] == 3

    def test_empty_betas(self, interval_pi_100):
        with pytest.raises(DomainError):
            beta_sweep(interval_pi_100, 12.0, [])

    def test_bound_nan_at_eigenvalue(self, const_density_200):
        table = beta_sweep(const_density_200, 5.0, [10.0])
        assert math.isnan(table.column("bound")[0])


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_rejected(interval_pi_100, lam):
    s = interval_pi_100
    calls = [
        lambda: default_beta(s, lam),
        lambda: smoothed_counting(s, lam, 1.0),
        lambda: smoothing_error_bound(s, lam, 1.0),
        lambda: beta_sweep(s, lam, [1.0]),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="finite lambda"):
            call()


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_non_positive_beta_rejected(interval_pi_100, beta):
    s = interval_pi_100
    calls = [
        lambda: smoothed_counting(s, 12.0, beta),
        lambda: smoothing_error_bound(s, 12.0, beta),
        lambda: beta_sweep(s, 12.0, [1.0, beta]),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="beta must be positive"):
            call()


class TestDefaultBeta:
    def test_uses_nearest_gap(self, const_density_200):
        assert default_beta(const_density_200, 5.25) == pytest.approx(50.0 / 0.25)

    def test_at_eigenvalue_uses_neighbour(self, const_density_200):
        assert default_beta(const_density_200, 5.0) == pytest.approx(50.0)

    def test_single_point_spectrum(self):
        s = Spectrum.from_entries([2.0])
        assert default_beta(s, 2.0) == 50.0
