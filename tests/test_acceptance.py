"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

import oracles
from heatcount import (
    CountingMode,
    beta_sweep,
    counting,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
    heat_trace,
    invert_profile,
    laplace_of_counting,
    partial_exponential_sum,
    save_spectrum,
    smoothed_counting,
    tauberian_first_term,
    truncation_correction,
    weyl_check,
)
from heatcount.cli import main as cli_main

T_GRID = (0.01, 0.1, 1.0, 10.0)


def criterion(number, description):
    """Print the per-criterion verdict line, failing loudly on AssertionError."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {number}] {verdict} - {description}")
            return False

    return _Reporter()


@pytest.fixture(scope="module")
def interval_10k():
    return generate_interval(math.pi, 10_000)


@pytest.fixture(scope="module")
def rectangle_10k():
    return generate_rectangle(math.pi, math.pi, 10_000.0)


@pytest.fixture(scope="module")
def torus_10k():
    return generate_torus(10_000.0)


@pytest.fixture(scope="module")
def const_10k():
    return generate_constant_density(1.0, 10_000)


@pytest.fixture(scope="module")
def interval_200():
    return generate_interval(math.pi, 200)


@pytest.fixture(scope="module")
def const_200():
    return generate_constant_density(1.0, 200)


def test_criterion_1_laplace_identity(interval_10k, rectangle_10k, torus_10k, const_10k):
    with criterion(1, "forward Laplace identity, step-exact 1e-12 / quadrature 1e-8, < 10 s"):
        started = time.monotonic()
        for s in (interval_10k, rectangle_10k, torus_10k, const_10k):
            for t in T_GRID:
                k_val = heat_trace(s, t).value
                step = laplace_of_counting(s, t, "step_exact")
                corr = truncation_correction(s, t)
                assert abs(step + corr - k_val) <= 1e-12 * k_val, (s.label, t)
                quad = laplace_of_counting(s, t, "quadrature")
                assert abs(quad - k_val) <= 1e-8 * k_val, (s.label, t)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s"


def test_criterion_2_inversion_round_trip(interval_200, const_200):
    with criterion(2, "contour inversion: midpoints round to the oracle, jumps hit midpoints, < 60 s"):
        started = time.monotonic()
        for s in (interval_200, const_200):
            distinct = s.values[:20]
            midpoints = [float(0.5 * (a + b)) for a, b in zip(distinct[:-1], distinct[1:])]
            table = invert_profile(s, midpoints)
            for lam, value, match in zip(
                table.column("lambda"), table.column("value"), table.column("match")
            ):
                oracle = counting(s, lam, CountingMode.STRICT)
                assert match == "yes", (s.label, lam)
                assert abs(value - oracle) <= 0.1, (s.label, lam, value)
            jump_grid = [float(v) for v in s.values[:5]]
            jumps = invert_profile(s, jump_grid)
            for lam, value in zip(jumps.column("lambda"), jumps.column("value")):
                idx = int(np.searchsorted(s.values, lam))
                target = counting(s, lam, CountingMode.STRICT) + s.multiplicities[idx] / 2.0
                assert abs(value - target) <= 0.1, (s.label, lam, value, target)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f} s"


def test_criterion_3_smoothing_convergence(interval_10k, const_200):
    with criterion(3, "occupation smoothing: monotone convergence within bounds, jump midpoint"):
        table = beta_sweep(interval_10k, 12.0, [1.0, 2.0, 5.0, 10.0, 20.0])
        devs = table.column("deviation")
        bounds = table.column("bound")
        assert table.metadata["oracle"] == 3
        assert all(a > b for a, b in zip(devs, devs[1:])), devs
        for dev, bound in zip(devs, bounds):
            assert dev <= bound * (1 + 1e-12), (dev, bound)
        assert devs[-1] < 1e-12
        # eigenvalue semantics at lam_5 of the unit-density spectrum, gap 1
        lam5 = float(const_200.values[4])
        value = smoothed_counting(const_200, lam5, 700.0)
        assert abs(value - 4.5) <= 1e-6


def test_criterion_4_constant_density_regime(const_10k, interval_10k):
    with criterion(4, "K(t)=N(1/t) in the constant-density regime; interval ratio -> sqrt(pi)/2"):
        report = weyl_check(const_10k, [1e-3])
        assert report.flags == ("ok",)
        assert abs(report.ratios[0] - 1.0) <= 0.01
        # geometric-series closed form of the stored sum, to 1e-12 relative
        k_val = report.heat_values[0]
        closed = -math.expm1(-10_000 * 1e-3) / math.expm1(1e-3)
        assert abs(k_val - closed) <= 1e-12 * closed
        # and the infinite form differs by no more than the truncation tail bound
        value, tail = heat_trace(const_10k, 1e-3)
        assert tail.valid
        assert abs(value - 1.0 / math.expm1(1e-3)) <= tail.bound_value * (1 + 1e-9)
        # non-constant density: the hypothesis is necessary
        interval_report = weyl_check(interval_10k, [1e-4])
        target = math.sqrt(math.pi) / 2.0
        assert abs(interval_report.ratios[0] - target) <= 0.02 * target
        assert abs(interval_report.ratios[0] - 1.0) > 0.05


def test_criterion_5_tauberian_first_term(interval_10k):
    with criterion(5, "power-law first term: (A, p) and predicted counts within tolerance"):
        const_big = generate_constant_density(1.0, 100_000)
        res = tauberian_first_term(const_big, (3e-4, 3e-3), 500.0)
        assert abs(res.fit.amplitude - 1.0) <= 0.01, res.fit
        assert abs(res.fit.exponent - 1.0) <= 0.01, res.fit

        rect_big = generate_rectangle(math.pi, math.pi, 300_000.0)
        res = tauberian_first_term(rect_big, (2e-4, 2e-3), 200.0)
        assert abs(res.fit.exponent - 1.0) <= 0.02, res.fit
        brute = sum(1 for v in oracles.rectangle_eigenvalues(math.pi, math.pi, 200.0) if v < 200.0)
        assert res.actual_count == brute
        assert abs(res.predicted_count / brute - 1.0) <= 0.05, (res.predicted_count, brute)

        res = tauberian_first_term(interval_10k, (1e-4, 1e-3), 1e4)
        assert abs(res.fit.exponent - 0.5) <= 0.02 * 0.5, res.fit
        floor_sqrt = math.floor(math.sqrt(1e4))
        assert abs(res.predicted_count / floor_sqrt - 1.0) <= 0.05, res.predicted_count


def test_criterion_6_oracle_equivalences(torus_10k):
    with criterion(6, "lattice oracle equality and partial-sum identities on random probes"):
        oracle = oracles.torus_multiplicities(10_000.0)
        got = dict(zip(torus_10k.values.tolist(), torus_10k.multiplicities.tolist()))
        assert got == {float(k): m for k, m in oracle.items()}
        rng = np.random.default_rng(20260811)
        lams = rng.uniform(0.0, 11_000.0, size=100)
        for lam in lams:
            expected = counting(torus_10k, float(lam), CountingMode.INCLUSIVE)
            assert partial_exponential_sum(torus_10k, float(lam), 0.0) == float(expected)
        ts = rng.uniform(1e-3, 10.0, size=100)
        lam_max = float(torus_10k.values[-1])
        for t in ts:
            assert partial_exponential_sum(torus_10k, lam_max, float(t)) == heat_trace(
                torus_10k, float(t)
            ).value


def test_criterion_7_cli_determinism(tmp_path, interval_200, const_10k):
    with criterion(7, "CLI determinism (byte-identical reruns) and 0/1/2 exit codes"):
        interval_file = tmp_path / "interval.json"
        const_file = tmp_path / "const.json"
        save_spectrum(interval_200, interval_file)
        save_spectrum(const_10k, const_file)
        cases = {
            1: ["--spectrum", str(interval_file), "--t", "0.01,0.1,1,10"],
            2: ["--spectrum", str(interval_file), "--lambda", "2.5,6.5,12.5,20.5"],
            3: ["--spectrum", str(interval_file), "--lambda", "12", "--beta", "1,2,5,10,20"],
            4: ["--spectrum", str(const_file), "--t", "1e-3,1e-2"],
        }
        for theorem, flags in cases.items():
            out1 = tmp_path / f"t{theorem}_a.csv"
            out2 = tmp_path / f"t{theorem}_b.csv"
            code1 = cli_main(["verify", "--theorem", str(theorem), *flags, "--out", str(out1)])
            code2 = cli_main(["verify", "--theorem", str(theorem), *flags, "--out", str(out2)])
            assert code1 == code2 == 0, (theorem, code1, code2)
            assert out1.read_bytes() == out2.read_bytes(), theorem
        # injected failures: 1 = verification failed, 2 = usage/I/O
        code = cli_main(
            ["verify", "--theorem", "2", "--spectrum", str(interval_file),
             "--lambda", "2.5", "--tol", "1e-9", "--out", str(tmp_path / "fail.csv")]
        )
        assert code == 1
        code = cli_main(
            ["verify", "--theorem", "1", "--spectrum", str(tmp_path / "missing.json"),
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        code = cli_main(
            ["generate", "--shape", "interval", "--length", "-1", "--count", "5",
             "--out", str(tmp_path / "y.json")]
        )
        assert code == 2
