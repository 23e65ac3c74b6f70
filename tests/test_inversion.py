import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from heatcount import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    InversionConfig,
    Spectrum,
    abscissa_estimate,
    bromwich_invert,
    counting,
    default_beta,
    generate_interval,
    generate_rectangle,
    generate_torus,
    invert_profile,
    inversion,
)
from heatcount.inversion import (
    _contour_sums,
    _resolve_config,
    _trace_on_grid,
    _turns_per_step,
    _unit_phasors,
)


class TestAbscissaEstimate:
    def test_interval_decays_fast(self, interval_pi_10k):
        assert abscissa_estimate(interval_pi_10k) < 1e-3

    def test_constant_density_decays(self, const_density_10k):
        assert abscissa_estimate(const_density_10k) < 1e-2

    def test_logarithmic_spectrum_has_abscissa_one(self):
        # lam_n = ln(n+1) makes (ln n)/lam_n tend to 1
        n = np.arange(1, 100_001, dtype=float)
        s = Spectrum.from_entries(np.log(n + 1.0), generator={"kind": "file"})
        assert abscissa_estimate(s) == pytest.approx(1.0, abs=0.05)

    def test_too_few_entries(self):
        s = generate_interval(math.pi, 31)
        with pytest.raises(InsufficientDataError):
            abscissa_estimate(s)


class TestBromwichInvert:
    def test_between_eigenvalues(self, interval_pi_200):
        res = bromwich_invert(interval_pi_200, 12.0)
        assert abs(res.value - 3.0) <= 0.05

    def test_at_eigenvalue_hits_jump_midpoint(self, interval_pi_200):
        res = bromwich_invert(interval_pi_200, 9.0)
        assert abs(res.value - 2.5) <= 0.1

    def test_below_first_eigenvalue(self, interval_pi_200):
        res = bromwich_invert(interval_pi_200, 0.5)
        assert abs(res.value) <= 0.05

    def test_config_used_is_recorded(self, interval_pi_200):
        res = bromwich_invert(interval_pi_200, 12.0)
        cfg = res.config_used
        assert cfg.c > 0 and 0 < cfg.h < cfg.T
        # c lam = max(KAPPA, ln(N / 2e-6) / 16), which is KAPPA for N = 200
        assert cfg.c == inversion.KAPPA / 12.0
        assert cfg.h == math.pi / (8.0 * 12.0)

    def test_halving_step_changes_less_than_oscillation(self, interval_pi_200):
        base = bromwich_invert(interval_pi_200, 12.0)
        cfg = base.config_used
        halved = bromwich_invert(
            interval_pi_200,
            12.0,
            InversionConfig(c=cfg.c, T=cfg.T, h=cfg.h / 2.0),
        )
        assert abs(halved.value - base.value) < base.oscillation_estimate

    def test_nonpositive_lambda(self, interval_pi_200):
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                bromwich_invert(interval_pi_200, lam)

    def test_manual_config_requires_all_fields(self, interval_pi_200):
        with pytest.raises(ConfigurationError):
            bromwich_invert(interval_pi_200, 12.0, InversionConfig(c=1.0))

    def test_manual_config_validates_shape(self, interval_pi_200):
        with pytest.raises(ConfigurationError):
            bromwich_invert(
                interval_pi_200, 12.0, InversionConfig(c=-1.0, T=10.0, h=0.1)
            )
        with pytest.raises(ConfigurationError):
            bromwich_invert(
                interval_pi_200, 12.0, InversionConfig(c=1.0, T=1.0, h=2.0)
            )

    @pytest.mark.parametrize("c, T, h", [
        (math.inf, 10.0, 0.1), (math.nan, 10.0, 0.1), (1.0, math.inf, 0.1),
        (1.0, math.nan, 0.1), (1.0, 10.0, math.nan), (1.0, 1e308, 1e-10),
    ])
    def test_manual_config_must_be_finite(self, c, T, h):
        # an infinite T or T/h would overflow ceil(T/h) in bromwich_invert
        with pytest.raises(ConfigurationError):
            InversionConfig(c=c, T=T, h=h)

    def test_manual_contour_below_2_26_steps(self):
        # _unit_phasors takes node indices of at most 26 significant bits
        InversionConfig(c=1.0, T=(2**26 - 1) * 0.5, h=0.5)
        for T in (2**25, 1e9):
            with pytest.raises(ConfigurationError, match=r"ceil\(T/h\) < 2\*\*26"):
                InversionConfig(c=1.0, T=T, h=0.5)

    def test_contour_below_abscissa_estimate_accepted(self, const_density_200):
        # the stored sum's K is entire: any c > 0 converges once h damps the
        # aliases, here by e^(-2 pi c / h) = e^(-10 pi) over 200 terms
        assert abscissa_estimate(const_density_200) > 0.01
        res = bromwich_invert(
            const_density_200, 5.5, InversionConfig(c=0.01, T=100.0, h=0.002)
        )
        assert abs(res.value - 5.0) <= 1e-6

    def test_overflowing_damping_rejected(self, interval_pi_200):
        with pytest.raises(ConfigurationError, match="overflow"):
            bromwich_invert(
                interval_pi_200, 12.0, InversionConfig(c=100.0, T=200.0, h=0.01)
            )

    def test_steep_tails_invert_on_the_auto_contour(self):
        # tails whose ln(n_k)/lam_k is large (0.69 and 444): the contour
        # needs no more than c lam = 2 to invert them
        for entries, lam in [([(1.0, 29), (5.0, 3)], 22.0), ([(0.0, 27), (0.0078125, 5)], 1.0)]:
            s = Spectrum.from_entries([v for v, _ in entries], [m for _, m in entries])
            res = bromwich_invert(s, lam)
            cfg = res.config_used
            assert cfg.c * lam == pytest.approx(inversion.KAPPA, rel=1e-15)
            assert abs(res.value - 32.0) <= inversion.AUTO_TRUNCATION_TOL
            assert math.ceil(cfg.T / cfg.h) + 1 < 150
            assert invert_profile(s, [lam]).column("match") == ["yes"]


class TestInvertProfile:
    def test_interval_midpoints_round_to_oracle(self, interval_pi_200):
        table = invert_profile(interval_pi_200, [2.5, 6.5, 12.5, 20.5])
        assert table.column("rounded") == [1, 2, 3, 4]
        assert table.column("match") == ["yes"] * 4

    def test_constant_density_midpoints(self, const_density_200):
        table = invert_profile(const_density_200, [1.5, 2.5, 3.5])
        assert table.column("rounded") == [1, 2, 3]
        assert table.column("match") == ["yes"] * 3

    def test_rows_sorted_by_abscissa(self, const_density_200):
        table = invert_profile(const_density_200, [3.5, 1.5, 2.5])
        assert table.column("lambda") == [1.5, 2.5, 3.5]

    def test_oracle_column_is_strict_count(self, interval_pi_200):
        table = invert_profile(interval_pi_200, [2.5, 12.5])
        assert table.column("oracle") == [
            counting(interval_pi_200, 2.5),
            counting(interval_pi_200, 12.5),
        ]

    def test_empty_grid(self, interval_pi_200):
        with pytest.raises(DomainError):
            invert_profile(interval_pi_200, [])

    def test_nan_point_rejected(self, interval_pi_200):
        with pytest.raises(DomainError, match="nan"):
            invert_profile(interval_pi_200, [30.5, math.nan, 2.5])

    def test_per_row_errors_do_not_abort(self, interval_pi_200):
        # c*lam overflows only for the second row
        cfg = InversionConfig(c=100.0, T=10.0, h=0.01)
        table = invert_profile(interval_pi_200, [5.0, 10.0], cfg)
        matches = table.column("match")
        assert matches[1].startswith("error")
        assert not matches[0].startswith("error")
        assert math.isnan(table.column("value")[1])


class TestRoundTripSweep:
    @pytest.mark.parametrize("family", ["interval", "constant"])
    def test_midpoints_up_to_eighth_eigenvalue(self, family, interval_pi_200, const_density_200):
        s = interval_pi_200 if family == "interval" else const_density_200
        values = s.values[:8]
        grid = [float(0.5 * (a + b)) for a, b in zip(values[:-1], values[1:])]
        table = invert_profile(s, grid)
        for lam, value, match in zip(
            table.column("lambda"), table.column("value"), table.column("match")
        ):
            oracle = counting(s, lam)
            assert match == "yes"
            assert abs(value - oracle) <= 0.1


# The kernel forms each term's tail from double phasors: the phase in turns
# is reduced with a double-double and rounded once, then the exponential,
# cot, sin^2 and the products and quotients of the formula each round
# once, about ten roundings of 2^-53 in all.  The oracle's long double
# rounding is 2^11 times smaller, so the difference stays below 1e-14 of
# the sum of the terms' magnitudes.
TAIL_RTOL = 1e-14


def assert_matches_direct_trapezoid(s, lam, cfg=None):
    """bromwich_invert is the direct trapezoid plus the tails, on the contour _resolve_config picks.

    The trapezoid sum the kernel adds is held to the direct trapezoid at
    1e-10 relative, and the tail correction to its formula at TAIL_RTOL
    of its magnitude.
    """
    res = bromwich_invert(s, lam, cfg)
    expected_cfg, terms = _resolve_config(s, lam, cfg or InversionConfig())
    used = res.config_used
    assert [used.c.hex(), used.T.hex(), used.h.hex()] == [
        expected_cfg.c.hex(),
        expected_cfg.T.hex(),
        expected_cfg.h.hex(),
    ]
    trapezoid, tail, oscillation = _contour_sums(terms, lam, used)
    assert res.value == trapezoid + tail
    assert res.oscillation_estimate == oscillation
    args = (s.values, s.multiplicities, lam, used.c, used.T, used.h, inversion.TERM_DROP_EXPONENT)
    value, expected_oscillation = oracles.bromwich_trapezoid(*args)
    assert trapezoid == pytest.approx(value, rel=1e-10, abs=0.0)
    assert oscillation == pytest.approx(expected_oscillation, rel=1e-10, abs=0.0)
    expected_tail, magnitude = oracles.trapezoid_tail(*args, inversion.TAIL_EXPANSION_MIN)
    assert abs(tail - expected_tail) <= TAIL_RTOL * magnitude


class TestContourKernel:
    @pytest.mark.parametrize(
        "j0, count",
        [(0, 1), (0, 2), (0, 7), (0, 16), (0, 17), (0, 1000), (0, 1001), (5, 1), (977, 2), (12_345, 38),
         # m^4 - 1, m^4 and m^4 + 1 nodes for m = 3 and 4, where B = m^2 and
         # B2 = m split the grid exactly, and a prime count
         (0, 80), (0, 81), (0, 82), (0, 255), (0, 256), (0, 257), (0, 1009)],
    )
    @pytest.mark.parametrize("budget", [inversion.BLOCK_BYTES, 12_288, 1])
    def test_trace_matches_per_term_sum(self, interval_pi_200, monkeypatch, j0, count, budget):
        # budget 1 forces groups of one row of P and blocks of one term;
        # 12_288 gives groups of 24 rows and blocks of 3 or 4 terms on the
        # grids of about 1000 nodes, of 1 term on the largest and of 14 to
        # 34 terms on those of up to 17 nodes.
        # The grid has j0 + count nodes and its last count are checked, up
        # to j = 12_382, where the phases values_n * w run past 1e6 rad.
        monkeypatch.setattr(inversion, "BLOCK_BYTES", budget)
        c, h = 0.05, math.pi / 96.0
        values = interval_pi_200.values[:60]
        coeffs = interval_pi_200.multiplicities[:60] * np.exp(-values * c)
        terms = (coeffs, *_turns_per_step(0.0, values, h), None)
        ends = np.empty((2, values.size), dtype=complex)
        blocks = list(_trace_on_grid(terms, j0 + count, ends))
        j = np.concatenate([b[0] for b in blocks])
        trace = np.concatenate([b[1] for b in blocks])[j0:]
        assert j.tolist() == list(range(j0 + count))
        expected = np.array(oracles.trace_on_nodes(values, coeffs, h, j0, count))
        # either sum rounds the phase values_n * w to about eps * values_n * w
        omega_max = h * (j0 + count - 1)
        tol = 1e-15 * float(np.sum(coeffs * (1.0 + values * omega_max)))
        assert np.max(np.abs(trace - expected)) <= tol
        # each term's e^(2 pi i g k) at k = 1/2 and the last node, for the tail
        for row, omega in zip(ends, (0.5 * h, omega_max)):
            expected = np.array([cmath.exp(-1j * v * omega) for v in values])
            assert np.all(np.abs(row - expected) <= 1e-15 * (1.0 + values * omega))

    @pytest.mark.parametrize(
        "lam, cfg", [(9.0, None), (12.0, None), (12.0, InversionConfig(c=0.2, T=50.0, h=0.1))]
    )
    def test_phases_derived_once_per_call(self, interval_pi_200, monkeypatch, lam, cfg):
        # T selection, the trace and the tail all read one per-term state
        calls = []

        def counted(*args):
            calls.append(args)
            return _turns_per_step(*args)

        monkeypatch.setattr(inversion, "_turns_per_step", counted)
        bromwich_invert(interval_pi_200, lam, cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["interval", "constant"])
    def test_one_phasor_table_per_call(self, interval_pi_200, const_density_200, monkeypatch, family):
        # the trace's three factors and the tail's two rows share one table
        s = interval_pi_200 if family == "interval" else const_density_200
        calls = []

        def counted(g_hi, g_lo, k):
            calls.append(g_hi)
            return _unit_phasors(g_hi, g_lo, k)

        monkeypatch.setattr(inversion, "_unit_phasors", counted)
        for lam in grid_of(s, 19, 5):
            calls.clear()
            bromwich_invert(s, lam)
            assert len(calls) == 1
        # const-200 at 19.5 has 871 nodes and 200 terms: a budget of 16,384
        # bytes keeps them one group and splits the terms into blocks of 4
        monkeypatch.setattr(inversion, "BLOCK_BYTES", 16_384)
        calls.clear()
        _, (_, g_hi, _, _) = _resolve_config(const_density_200, 19.5, InversionConfig())
        bromwich_invert(const_density_200, 19.5)
        assert len(calls) > 1
        assert np.concatenate(calls).tolist() == g_hi.tolist()  # one table a block

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_phasors_need_no_split_of_k(self, seed):
        # every k is an integer or 1/2 below 2^26, of at most 26 significant
        # bits, so splitting k as well as g_hi adds only zeros
        rng = np.random.default_rng(seed)
        lam = float(rng.uniform(0.2, 3000.0))
        values = np.sort(rng.uniform(0.0, 3000.0, 150))
        g_hi, g_lo = _turns_per_step(lam, values, math.pi / (8.0 * lam))
        g_hi = np.concatenate((g_hi, rng.uniform(-0.5, 0.5, 50) * 10.0 ** rng.uniform(-12, 0, 50)))
        g_lo = np.concatenate((g_lo, g_hi[150:] * rng.uniform(-2.0**-53, 2.0**-53, 50)))
        k = np.concatenate(([0.0, 0.5, 2.0**26 - 1], rng.integers(0, 2**26, 300)))
        got = _unit_phasors(g_hi, g_lo, k)
        expected = oracles.unit_phasors_split_k(g_hi, g_lo, k)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("lam", [0.5, 9.0, 12.0, 20.5, 380.5])
    def test_interval_auto_contour(self, interval_pi_200, lam):
        assert_matches_direct_trapezoid(interval_pi_200, lam)

    @pytest.mark.parametrize("lam", [1.5, 3.0, 19.5])
    def test_constant_density_auto_contour(self, const_density_200, lam):
        assert_matches_direct_trapezoid(const_density_200, lam)

    @pytest.mark.parametrize(
        "family, lam, c, T, h",
        [
            # nodes ceil(T/h) + 1 (B = ceil(sqrt(nodes))); oscillation segment count at j0
            ("interval", 12.0, 0.2, 0.15, 0.1),  # 3 nodes (B 2); 3 at 0
            ("interval", 12.0, 0.2, 1.0, 0.3),  # 5 (B 3); 2 at 3
            ("interval", 6.5, 0.5, 99.9, 0.1),  # 1000 (B 32); 10 at 990
            ("constant", 5.5, 0.4, 409.6, 0.1),  # 4097 (B 65); 12 at 4085
            ("constant", 2.5, 0.8, 100.0, 0.01),  # 10_001 (B 101); 252 at 9749
        ],
    )
    def test_manual_contours(self, interval_pi_200, const_density_200, family, lam, c, T, h):
        s = interval_pi_200 if family == "interval" else const_density_200
        assert_matches_direct_trapezoid(s, lam, InversionConfig(c=c, T=T, h=h))

    def test_degenerate_rectangle_eigenvalue_is_not_capped(self):
        # key 9 m^2 + n^2 = 205 of the 1 x 3 rectangle at (1, 14) and (2, 13): its two
        # sums round one ulp apart; stored as two values, their gap sent T to its cap
        s = generate_rectangle(1.0, 3.0, 2000.0)
        lam = 224.8076558025909
        cfg = bromwich_invert(s, lam).config_used
        assert cfg.T < inversion.T_CAP_FACTOR * cfg.c
        assert assert_within_budget_of_limit(s, lam)
        assert default_beta(s, lam) < 100

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=40.0), st.integers(min_value=1, max_value=3)
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.2, max_value=45.0),
    )
    # points where rounding lam_n * w and lam * w to doubles moved the result
    # by more than 1e-10 relative: lam at an eigenvalue, and near resonances;
    # the kernel meets them to 1.5e-16, 1.3e-15 and 4.2e-16 relative
    @example(entries=[(25.076185206023172, 3), (25.076185206023172, 3)], lam=25.076185206023172)
    @example(entries=[(24.0, 1), (23.5, 3)], lam=22.75)
    @example(
        entries=[(9.0, 2), (11.0, 1), (13.0, 1), (10.0625, 3), (10.09375, 3)], lam=9.38671875
    )
    # below the only eigenvalue: the first trapezoid cancels to -5.1e-14 from
    # terms summing to 5.6e-8 in magnitude, which leaves the kernel's rounding
    # at 6.1e-11 relative; the second cancelled to 8.2e-7 from 2.0 on a
    # longer contour and now sums to 2.2e-2 over 108 nodes (1.6e-16)
    @example(entries=[(9.890625, 1)], lam=1.09765625)
    @example(entries=[(36.64810740122483, 2)], lam=31.019026072892323)
    @example(entries=[(13.0, 1)], lam=0.5)  # no term kept: the kernel runs one empty block
    @settings(deadline=None)
    def test_random_file_spectra(self, entries, lam):
        s = Spectrum.from_entries([v for v, _ in entries], [m for _, m in entries])
        cfg, _ = _resolve_config(s, lam, InversionConfig())
        assert cfg.c * lam <= 3.6
        assume(cfg.T / cfg.h <= 100_000)  # the node cap bounds the oracle's cost
        assert_matches_direct_trapezoid(s, lam)

    @pytest.mark.parametrize("lambda_max, lam", [(2000.0, 263.0), (25000.0, 1000.5)])
    def test_torus_memory_bounded(self, lambda_max, lam):
        """One call stays under 3 BLOCK_BYTES: the group's trace and a block's
        product, each at most BLOCK_BYTES, and a block's phasor table, at
        most BLOCK_BYTES / 2 while it is built, with the per-term state far
        smaller.  The node-by-term exponential matrix of the direct sum
        peaks above 1 GiB on torus-2000; on torus-25000 (6,241 terms,
        87,755 nodes) a whole E table would take 28.3 MiB and three times
        that while it is built.
        """
        s = generate_torus(lambda_max)
        tracemalloc.start()
        try:
            res = bromwich_invert(s, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.value - counting(s, lam)) <= 0.1
        assert peak < 3 * inversion.BLOCK_BYTES


def assert_within_budget_of_limit(s, lam):
    """An auto contour below the cap lands within AUTO_TRUNCATION_TOL of its trapezoid's limit.

    Returns False, checking nothing, for a capped contour, whose error
    the budget does not cover.
    """
    res = bromwich_invert(s, lam)
    cfg = res.config_used
    assert cfg.c * lam <= 3.6
    if cfg.T >= inversion.T_CAP_FACTOR * cfg.c:
        return False
    limit = oracles.trapezoid_limit(
        s.values, s.multiplicities, lam, cfg.c, cfg.h, inversion.TERM_DROP_EXPONENT
    )
    assert abs(res.value - limit) <= inversion.AUTO_TRUNCATION_TOL, (lam, res.value, limit)
    return True


def grid_of(s, n_mid, n_jump):
    """The first n_mid midpoints between distinct values and the first n_jump values."""
    v = [float(x) for x in s.values[: n_mid + 1]]
    return [0.5 * (a + b) for a, b in zip(v[:-1], v[1:])] + v[:n_jump]


class TestPoissonLimit:
    @pytest.mark.parametrize("ratio, first_alias", [(3.0, 1), (20.0, 2)])
    @pytest.mark.parametrize("lam", [0.5, 12.0, 380.5])
    def test_aliases_damped_by_e_minus_32k(self, lam, ratio, first_alias):
        # one value v = ratio * lam above lam: N(lam) = 0, and the alias at
        # lam + 2 pi k/h = (1 + 16 k) lam counts v from k = first_alias on,
        # each damped by e^(-2 pi c k/h) = e^(-32 k) on the auto contour
        s = Spectrum.from_entries([ratio * lam], [3])
        cfg, _ = _resolve_config(s, lam, InversionConfig())
        assert cfg.c == inversion.KAPPA / lam
        assert 2.0 * math.pi * cfg.c / cfg.h == pytest.approx(32.0, rel=1e-14)
        limit = oracles.trapezoid_limit(
            s.values, s.multiplicities, lam, cfg.c, cfg.h, inversion.TERM_DROP_EXPONENT
        )
        expected = 3.0 * math.exp(-32.0 * first_alias) / (1.0 - math.exp(-32.0))
        assert limit == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("family", ["interval", "constant"])
    def test_acceptance_grids(self, family, interval_pi_200, const_density_200):
        s = interval_pi_200 if family == "interval" else const_density_200
        checked = [assert_within_budget_of_limit(s, lam) for lam in grid_of(s, 19, 5)]
        assert all(checked)

    @pytest.mark.parametrize("family", ["torus", "rectangle"])
    def test_benchmark_midpoints(self, family, torus_400, rectangle_pi_2000):
        s = torus_400 if family == "torus" else rectangle_pi_2000
        checked = [assert_within_budget_of_limit(s, lam) for lam in grid_of(s, 7, 0)]
        assert all(checked)

    @pytest.mark.parametrize(
        "family, lam", [("constant", 1.0), ("constant", 2.0), ("constant", 3.0),
                        ("constant", 4.0), ("constant", 5.0), ("rectangle", 9.0)]
    )
    def test_alias_near_resonance_is_bounded(self, family, lam, const_density_200, rectangle_pi_2000):
        # a value at the alias lam + 2 pi/h = 17 lam (17, ..., 85 and 153 = 12^2 + 3^2)
        # has a wrapped frequency that is rounding noise; its tail is at most
        # 2 units of a_n e^(c lam)/pi, e^(-32) of the budget, and needs no
        # larger T (9,041 and 16,460 nodes when counted at 1/(mu_eff T))
        s = const_density_200 if family == "constant" else rectangle_pi_2000
        assert assert_within_budget_of_limit(s, lam)
        cfg = bromwich_invert(s, lam).config_used
        assert math.ceil(cfg.T / cfg.h) + 1 <= 1000

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=40.0), st.integers(min_value=1, max_value=3)
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.2, max_value=45.0),
    )
    @settings(deadline=None)
    def test_random_file_spectra(self, entries, lam):
        s = Spectrum.from_entries([v for v, _ in entries], [m for _, m in entries])
        assume(assert_within_budget_of_limit(s, lam))


# multiplicities of 1 to 2^62, drawn by their bit length
huge_multiplicity = st.integers(0, 62).flatmap(lambda bits: st.integers(1, 2**bits))


# a generator family by name, or the (value, multiplicity) entries of a file spectrum
family_or_file = st.one_of(
    st.sampled_from(["interval", "constant", "rectangle", "torus"]),
    st.lists(st.tuples(st.floats(0.0, 40.0), huge_multiplicity), min_size=1, max_size=30),
)


@pytest.fixture(scope="module")
def spectrum_of(interval_pi_200, const_density_200, rectangle_pi_2000, torus_400):
    families = {"interval": interval_pi_200, "constant": const_density_200,
                "rectangle": rectangle_pi_2000, "torus": torus_400}

    def make(spectrum):
        if isinstance(spectrum, str):
            return families[spectrum]
        assume(sum(m for _, m in spectrum) < 2**63)
        return Spectrum.from_entries([v for v, _ in spectrum], [m for _, m in spectrum])

    return make


@given(family_or_file, st.floats(min_value=0.2, max_value=45.0))
# c (v - lam) = 4 (12 - 0.5) is TERM_DROP_EXPONENT exactly; the next double above 12 is past it
@example(spectrum=[(12.0, 1), (12.000000000000002, 1)], lam=0.5)
@settings(deadline=None)
def test_kept_terms_are_the_prefix_the_mask_keeps(spectrum_of, spectrum, lam):
    s = spectrum_of(spectrum)
    cfg, terms = _resolve_config(s, lam, InversionConfig())
    keep = cfg.c * (s.values - lam) <= inversion.TERM_DROP_EXPONENT
    assert np.flatnonzero(keep).tolist() == list(range(terms[0].size))


@given(family_or_file, st.floats(min_value=0.2, max_value=45.0))
# c lam = 2 alone leaves an alias error of about 12.7 here; the rule's 2.98 leaves 2e-6
@example(spectrum=[(1.0, 10**15), (3.0, 5)], lam=0.5)
@settings(deadline=None)
def test_auto_contour_bounds_the_aliases(spectrum_of, spectrum, lam):
    # the trapezoid's limit is N(lam) plus aliases of at most N e^(-16 c lam) /
    # (1 - e^(-16 c lam)), which the auto contour holds within eps;
    # trapezoid_limit counts N(lam) exactly
    s = spectrum_of(spectrum)
    cfg, _ = _resolve_config(s, lam, InversionConfig())
    limit = oracles.trapezoid_limit(
        s.values, s.multiplicities, lam, cfg.c, cfg.h, inversion.TERM_DROP_EXPONENT
    )
    pairs = oracles.pairs(s)
    n_star = Fraction(oracles.count_below(pairs, lam) + oracles.count_below(pairs, lam, False), 2)
    eps = 1e-3 * inversion.AUTO_TRUNCATION_TOL
    assert float(abs(limit - n_star)) <= 1.001 * eps


@given(family_or_file, st.floats(min_value=0.2, max_value=45.0),
       st.sampled_from(["free", "on", "next", "alias"]), st.integers(0, 29))
# lam one ulp above the only value: one bounded term of weight 159, so the slack
# 1 - 2 * 159 is below 0 and T is the cap
@example(spectrum=[(1.0, 1)], lam=1.0, where="next", pick=0)
@settings(deadline=None)
def test_auto_height_is_the_least_within_budget(spectrum_of, spectrum, lam, where, pick):
    # lam free, on a value (a resonant term), one ulp above it (a term
    # bounded at 2) or at 1/17 of it, where the value is lam's first alias
    # lam + 2 pi / h (a term bounded at 2, e^(-32) of the budget)
    s = spectrum_of(spectrum)
    v = float(s.values[pick % s.values.size])
    lam = {"free": lam, "on": v, "next": math.nextafter(v, math.inf), "alias": v / 17.0}[where]
    assume(lam >= 0.2)
    cfg, _ = _resolve_config(s, lam, InversionConfig())
    c, T, h = cfg.c, cfg.T, cfg.h
    t_cap = inversion.T_CAP_FACTOR * c
    t_min = max(20.0 * c, 4.0 * math.pi / lam, 8.0 * h)

    def error(t):
        return oracles.predicted_tail_error(
            s.values, s.multiplicities, lam, c, h, t, t_cap, inversion.AUTO_TRUNCATION_TOL,
            inversion.TERM_DROP_EXPONENT, inversion.TAIL_EXPANSION_MIN,
        )

    if T == t_cap:  # the budget is not met below the cap
        assert error(T * (1.0 - 1e-9)) > 1.0 - 1e-12
        return
    assert error(T) <= 1.0 + 1e-12
    if T > t_min:
        assert error(T * (1.0 - 1e-9)) > 1.0
