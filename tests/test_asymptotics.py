import math

import numpy as np
import pytest

import oracles
from heatcount import (
    CoverageError,
    DomainError,
    InvalidParameterError,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    tauberian_first_term,
    weyl_check,
)


def geometric_trace(count, t):
    """Closed form of sum_{n=1..count} e^(-n t)."""
    return -math.expm1(-count * t) / math.expm1(t)


class TestWeylCheck:
    def test_constant_density_small_t(self, const_density_10k):
        report = weyl_check(const_density_10k, [1e-3])
        assert report.flags == ("ok",)
        assert report.heat_values[0] == pytest.approx(geometric_trace(10_000, 1e-3), rel=1e-13)
        assert report.counts[0] == 999
        assert report.ratios[0] == pytest.approx(1.000455161261012, rel=1e-12)

    def test_constant_density_larger_t(self, const_density_10k):
        report = weyl_check(const_density_10k, [0.1])
        # K = 1/(e^0.1 - 1) up to an invisible truncation term; N(10) = 9
        expected = geometric_trace(10_000, 0.1)
        assert expected == pytest.approx(1.0 / math.expm1(0.1), rel=1e-12)
        assert report.heat_values[0] == pytest.approx(expected, rel=1e-13)
        assert report.ratios[0] == pytest.approx(expected / 9.0, rel=1e-13)

    def test_interval_ratio_tends_to_sqrt_pi_over_two(self, interval_pi_10k):
        report = weyl_check(interval_pi_10k, [1e-4])
        target = math.sqrt(math.pi) / 2.0
        assert report.ratios[0] == pytest.approx(target, rel=0.02)
        # materially different from 1: constant density is necessary
        assert abs(report.ratios[0] - 1.0) > 0.1

    def test_density_constant_exact_for_generators(self):
        for c in (1.0, 2.0, 0.5):
            s = generate_constant_density(c, 2000)
            report = weyl_check(s, [0.05])
            assert report.density_constant == c

    def test_coverage_flagging_continues_batch(self, const_density_10k):
        # 1/t = 10000 > 0.8 * 10000 for the first grid point
        report = weyl_check(const_density_10k, [1e-4, 1e-2])
        assert report.flags == ("coverage", "ok")
        assert math.isnan(report.ratios[0])
        assert report.ratios[1] == pytest.approx(1.0050589225448934, rel=1e-12)

    def test_grid_sorted_ascending(self, const_density_10k):
        report = weyl_check(const_density_10k, [1e-2, 1e-3])
        assert report.t_grid == (1e-3, 1e-2)

    def test_deviation_envelope(self, const_density_10k):
        # |ratio - 1| decays like C*t modulo the 1/N integer-quantization
        # jitter; fit C by least squares and check the envelope holds
        ts = np.geomspace(1.2e-3, 0.3, 11)
        report = weyl_check(const_density_10k, ts)
        devs = np.abs(np.array(report.ratios) - 1.0)
        inv_n = 1.0 / np.array(report.counts, dtype=float)
        x = np.array(report.t_grid)
        y = np.maximum(devs - inv_n, 0.0)
        c_fit = float(np.sum(x * y) / np.sum(x * x))
        assert 0.0 <= c_fit < 2.0
        assert np.all(devs <= c_fit * x + inv_n + 1e-12)
        # across a wide span the trend shrinks toward small t
        assert devs[0] < devs[-1]

    def test_validation(self, const_density_10k):
        with pytest.raises(DomainError):
            weyl_check(const_density_10k, [])
        with pytest.raises(DomainError):
            weyl_check(const_density_10k, [0.0, 0.1])


class TestTauberianFirstTerm:
    def test_constant_density_example_window(self, const_density_10k):
        result = tauberian_first_term(const_density_10k, (1e-3, 1e-2), 500.0)
        fit = result.fit
        assert fit.exponent == pytest.approx(1.0018240157142533, rel=1e-10)
        assert fit.amplitude == pytest.approx(0.9875659773594003, rel=1e-10)
        assert not fit.poor_fit
        assert result.actual_count == 499
        assert result.predicted_count == pytest.approx(499.0266153020273, rel=1e-10)
        assert abs(result.relative_gap) < 0.01

    def test_interval_square_root_law(self, interval_pi_10k):
        result = tauberian_first_term(interval_pi_10k, (1e-4, 1e-3), 1e4)
        assert result.fit.exponent == pytest.approx(0.5, rel=0.02)
        assert result.actual_count == 99
        # first-order prediction lands near floor(sqrt(lam)) = 100
        assert result.predicted_count == pytest.approx(100.0, rel=0.05)

    def test_rectangle_area_law(self):
        s = generate_rectangle(math.pi, math.pi, 20_000.0)
        result = tauberian_first_term(s, (2e-3, 2e-2), 200.0)
        assert result.fit.exponent == pytest.approx(1.0, rel=0.05)
        brute = len([v for v in oracles.rectangle_eigenvalues(math.pi, math.pi, 200.0) if v < 200.0])
        assert result.actual_count == brute

    def test_gamma_factor_matches_closed_form(self, const_density_10k):
        result = tauberian_first_term(const_density_10k, (1e-3, 1e-2), 500.0)
        fit = result.fit
        expected = fit.amplitude * 500.0**fit.exponent / math.gamma(fit.exponent + 1.0)
        assert result.predicted_count == expected

    def test_residual_is_max_relative_deviation(self, const_density_10k):
        result = tauberian_first_term(const_density_10k, (1e-3, 1e-2), 500.0, n_points=8)
        fit = result.fit
        ts = np.exp(np.linspace(math.log(1e-3), math.log(1e-2), 8))
        ks = np.array([geometric_trace(10_000, t) for t in ts])
        resid = np.max(np.abs(fit.amplitude * ts ** (-fit.exponent) / ks - 1.0))
        assert fit.fit_residual == pytest.approx(resid, rel=1e-9)

    def test_poor_fit_flagged_for_single_mode(self):
        # K = e^(-t) is nowhere a power law
        s = generate_interval(math.pi, 1)
        result = tauberian_first_term(s, (2.0, 5.0), 1.0)
        assert result.fit.poor_fit
        assert result.fit.fit_residual > 0.05

    def test_window_outside_tail_validity(self, const_density_10k):
        # at t = 1e-4 the truncated tail is ~ e^-1 of the full trace
        with pytest.raises(CoverageError, match="tail"):
            tauberian_first_term(const_density_10k, (1e-4, 1e-3), 500.0)

    def test_file_spectrum_rejected(self):
        from heatcount import Spectrum

        s = Spectrum.from_entries(np.arange(1.0, 2001.0), generator={"kind": "file"})
        with pytest.raises(CoverageError, match="bound"):
            tauberian_first_term(s, (0.01, 0.1), 100.0)

    def test_validation(self, const_density_10k):
        with pytest.raises(DomainError):
            tauberian_first_term(const_density_10k, (1e-2, 1e-3), 500.0)
        with pytest.raises(CoverageError):
            tauberian_first_term(const_density_10k, (1e-3, 1e-2), 1e9)
        with pytest.raises(InvalidParameterError, match="n_points"):
            tauberian_first_term(const_density_10k, (1e-3, 1e-2), 500.0, n_points=4)
