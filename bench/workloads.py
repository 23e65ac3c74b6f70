"""The three workloads: fixtures, one pass of the fixed job, and its checks.

Every workload is a closed loop with a single caller: one operation at a
time, the next one issued when the previous one has returned.  A pass is
the workload's fixed job; ``run.py`` repeats passes for the measured time.
Each operation is one check: it passes when the program's output agrees
with an oracle computed here, independently of the package (raw
eigenvalue lists, ``math.fsum``, closed forms, golden CSV bytes).

All calls into the package go through ``heatcount.<name>`` or
``heatcount.<module>.<name>`` at call time, so the traced run sees them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import heatcount as hc
import heatcount.cli

PI = math.pi


REF_LOOP = 150_000  # iterations of the reference loop's pure-Python part
REF_WAVES = np.linspace(1.0, 200.0, 200)  # its numpy part: one contour-like block
REF_NODES = np.linspace(0.0, 100.0, 2048)
REF_MS = 25.0  # duration of one reference sample at reference speed, by definition


def reference_ms() -> float:
    """Wall time of a fixed reference job, in ms: the host's speed now.

    The job is a pure-Python loop plus a numpy complex exponential of an
    outer product, so it slows with the host both where the interpreter
    and where numpy kernels do the work.  It does not call the package.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    np.exp(-1j * np.outer(REF_WAVES, REF_NODES))
    return (time.perf_counter() - t0) * 1e3


class Recorder:
    """Per-operation latency and check outcomes of one run.

    With ``calibrate``, a ``reference_ms`` sample is taken before the first
    operation and after every operation, outside its timed interval.  A
    virtual machine on a shared host can speed up or slow down by tens of
    percent within seconds to minutes, so each latency is also kept scaled
    to reference speed: multiplied by ``REF_MS`` over the mean of the
    samples just before and just after it.
    """

    def __init__(self, calibrate: bool = False):
        self.calibrate = calibrate
        self.op_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.ref_ms: list[float] = []
        self.ref_s = 0.0  # wall time spent in reference samples
        self.attempted = 0
        self.failures: Counter = Counter()
        self.unexpected: Counter = Counter()

    def _reference(self):
        t0 = time.perf_counter()
        self.ref_ms.append(reference_ms())
        self.ref_s += time.perf_counter() - t0

    def op(self, label, call, check):
        """Time ``call()``, then check its result; one operation, one check.

        ``check(result)`` returns None when the output is right, else a
        reason.  A raised ``AccuracyError`` is the program stating that it
        missed its tolerance: the check fails, but no wrong value was
        returned.  Any other exception or a wrong value is unexpected.
        Returns the result, or None when the call raised.
        """
        if self.calibrate and not self.ref_ms:
            self._reference()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except hc.AccuracyError:
            result, reason, expected = None, "AccuracyError", True
        except Exception as exc:  # noqa: BLE001 - every other failure is a wrong output
            result, reason, expected = None, f"{type(exc).__name__}: {exc}", False
        else:
            reason, expected = None, False
        self.op_ms.append((time.perf_counter() - t0) * 1e3)
        if self.calibrate:
            self._reference()
            self.scaled_ms.append(self.op_ms[-1] * 2 * REF_MS / (self.ref_ms[-2] + self.ref_ms[-1]))
        if reason is None:
            reason = check(result)
        if reason is not None:
            self.failures[f"{label}: {reason}"] += 1
            if not expected:
                self.unexpected[f"{label}: {reason}"] += 1
        return result

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def midpoints(values, count):
    v = [float(x) for x in values[: count + 1]]
    return [0.5 * (a + b) for a, b in zip(v[:-1], v[1:])]


# -- independent oracles --------------------------------------------------


# Each list follows the documented formula, with the wavenumber pi/L
# formed first, as the generators do, so values on integer lattices are exact.


def raw_interval(length, count):
    return (np.arange(1, count + 1) * (PI / length)) ** 2


def raw_constant_density(density, count):
    return np.arange(1, count + 1) / density


def raw_torus(lam_max):
    r = int(math.isqrt(int(lam_max)))
    m = np.arange(-r, r + 1, dtype=np.float64) ** 2
    sq = (m[:, None] + m[None, :]).ravel()
    return np.sort(sq[sq <= lam_max])


def raw_rectangle(a, b, lam_max):
    m = (np.arange(1, int(math.sqrt(lam_max) * a / PI) + 2) * (PI / a)) ** 2
    n = (np.arange(1, int(math.sqrt(lam_max) * b / PI) + 2) * (PI / b)) ** 2
    sq = (m[:, None] + n[None, :]).ravel()
    return np.sort(sq[sq <= lam_max])


class Oracle:
    """Counts from the sorted eigenvalue list with multiplicity."""

    def __init__(self, raw):
        self.raw = raw

    def strict(self, lam):
        return int(np.searchsorted(self.raw, lam, side="left"))

    def strict_many(self, lams):
        return np.searchsorted(self.raw, lams, side="left")

    def jump_target(self, lam):
        """N(lam-) + mult/2 at an eigenvalue: the contour integral's limit."""
        below = int(np.searchsorted(self.raw, lam * (1 - 1e-12), side="left"))
        upto = int(np.searchsorted(self.raw, lam * (1 + 1e-12), side="right"))
        return below + (upto - below) / 2.0


def fsum_trace(s, t):
    return math.fsum((s.multiplicities * np.exp(-s.values * t)).tolist())


# -- inversion --------------------------------------------------------------


def file_spectrum_payload(rng, size):
    """Seeded file spectrum: jittered unit spacing, multiplicities 1..3."""
    values = np.arange(1, size + 1) + rng.uniform(-0.3, 0.3, size)
    mults = rng.integers(1, 4, size)
    return {
        "label": "seeded-file",
        "generator": {"kind": "file"},
        "entries": [{"value": float(v), "multiplicity": int(m)} for v, m in zip(values, mults)],
    }


FILE_GAPS = (1, 4, 7)


class Inversion:
    name = "inversion"

    def setup(self, rng, work: Path, small: bool):
        fx = {"points": []}
        families = (
            ("interval-200", lambda: hc.generate_interval(PI, 200), raw_interval(PI, 200), 19, 5),
            ("const-200", lambda: hc.generate_constant_density(1.0, 200),
             raw_constant_density(1.0, 200), 19, 5),
            ("torus-400", lambda: hc.generate_torus(400.0), raw_torus(400.0), 7, 0),
            ("rectangle-2000", lambda: hc.generate_rectangle(PI, PI, 2000.0),
             raw_rectangle(PI, PI, 2000.0), 7, 0),
        )
        for label, make, raw, n_mid, n_jump in families:
            s = make()
            oracle = Oracle(raw)
            if small:
                n_mid, n_jump = min(n_mid, 2), min(n_jump, 1)
            for lam in midpoints(s.values, n_mid):
                fx["points"].append((f"{label} mid", s, lam, oracle.strict(lam), False))
            for lam in s.values[:n_jump]:
                lam = float(lam)
                fx["points"].append((f"{label} jump", s, lam, oracle.jump_target(lam), True))
        payload = file_spectrum_payload(rng, 48)
        path = work / "seeded-file.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        raw = np.sort(np.repeat([e["value"] for e in payload["entries"]],
                                [e["multiplicity"] for e in payload["entries"]]))
        # fixed gaps, seeded positions: the contour cost varies little by seed
        values = sorted(e["value"] for e in payload["entries"])
        grid = [0.5 * (values[i] + values[i + 1]) for i in FILE_GAPS[: 1 if small else None]]
        fx["file"] = (path, len(payload["entries"]), grid, Oracle(raw))
        # warm-up: every 8th contour of the pass, so first-touch costs are
        # paid before timing and set-up time averages over several calls
        for _, s, lam, _, _ in fx["points"][::8]:
            hc.bromwich_invert(s, lam)
        return fx

    def run_pass(self, fx, rec: Recorder, in_process: bool):
        for label, s, lam, target, jump in fx["points"]:
            rec.op(
                f"inversion.bromwich {label}",
                lambda: hc.bromwich_invert(s, lam),
                lambda r: _inversion_check(r.value, target, jump),
            )
        path, size, grid, oracle = fx["file"]
        s = rec.op("spectrum.load seeded-file", lambda: hc.load_spectrum(path),
                   lambda s: None if s.values.size == size else f"{s.values.size} of {size} values")
        if s is not None:
            rec.op("inversion.profile seeded-file", lambda: hc.invert_profile(s, grid),
                   lambda table: _profile_check(table, oracle))


def _inversion_check(value, target, jump):
    if abs(value - target) > 0.1:
        return f"|value - target| = {abs(value - target):.3g} > 0.1"
    if not jump and math.floor(value + 0.5) != target:
        return "rounded value differs from the counting oracle"
    return None


def _profile_check(table, oracle):
    for lam, value, match in zip(table.column("lambda"), table.column("value"), table.column("match")):
        reason = _inversion_check(value, oracle.strict(lam), False)
        if reason or match != "yes":
            return f"lambda={lam:g}: {reason or 'match=' + str(match)}"
    return None


# -- large spectra ----------------------------------------------------------

T_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
BETAS = (1.0, 2.0, 5.0, 10.0, 20.0)


class LargeSpectrum:
    name = "large_spectrum"

    def setup(self, rng, work: Path, small: bool):
        scale = 0.01 if small else 1.0
        n_const = int(200_000 * scale)
        families = (
            ("torus-1e6", lambda: hc.generate_torus(1e6 * scale), raw_torus(1e6 * scale), None),
            ("const-200k", lambda: hc.generate_constant_density(1.0, n_const),
             raw_constant_density(1.0, n_const), (1.0, n_const)),
            ("rectangle-3e5", lambda: hc.generate_rectangle(PI, PI, 3e5 * scale),
             raw_rectangle(PI, PI, 3e5 * scale), None),
        )
        # 1/t stays inside the coverage of every spectrum, at either size;
        # both points are in T_GRID, so their oracle traces are at hand
        weyl_t = (1e-4 / scale, 1e-3 / scale)
        fx = []
        for label, make, raw, const in families:
            s = make()
            oracle = Oracle(raw)
            if s.total_count != raw.size:
                raise RuntimeError(f"{label}: generator count {s.total_count} != {raw.size}")
            traces = {}
            for t in T_GRID:
                if const is None:
                    traces[t] = fsum_trace(s, t)
                else:  # closed geometric sum sum_{n<=N} e^(-n t / C)
                    density, count = const
                    traces[t] = -math.expm1(-count * t / density) / math.expm1(t / density)
            k = int(rng.integers(10, 1000))
            lam = 0.5 * float(s.values[k] + s.values[k + 1])
            probe = float(rng.uniform(0.1, 0.5)) * s.coverage
            probes = rng.uniform(0.0, s.coverage, 2000)
            edges = (s.coverage / 100) * np.arange(101)  # bins (k w, (k+1) w]
            tauber_t = np.exp(np.linspace(math.log(weyl_t[0]), math.log(weyl_t[1]), 16))
            fx.append({
                "label": label, "s": s, "raw_size": raw.size, "traces": traces,
                "const": const, "lam": lam, "lam_count": oracle.strict(lam),
                "weyl_t": weyl_t,
                "weyl_counts": [oracle.strict(1.0 / t) for t in weyl_t],
                "probe": probe, "probe_count": oracle.strict(probe),
                "tauber_t": tauber_t, "tauber_k": np.array([fsum_trace(s, t) for t in tauber_t]),
                "probes": probes, "probe_counts": oracle.strict_many(probes),
                "bin_counts": np.diff(np.searchsorted(raw, edges, side="right")),
                "path": work / f"{label}.json",
            })
        hc.heat_trace(fx[0]["s"], 1.0)
        return fx

    def run_pass(self, fx, rec: Recorder, in_process: bool):
        for f in fx:
            self._one(f, rec)

    def _one(self, f, rec):
        s, label, traces = f["s"], f["label"], f["traces"]
        rec.op(f"spectrum.save {label}", lambda: hc.save_spectrum(s, f["path"]),
               lambda _: None if f["path"].stat().st_size > 0 else "empty file")
        rec.op(f"spectrum.load {label}", lambda: hc.load_spectrum(f["path"]),
               lambda r: None if r == s else "round trip changed the spectrum")
        for t in T_GRID:
            ref = traces[t]
            rec.op(f"transforms.heat_trace {label} t={t:g}", lambda: hc.heat_trace(s, t),
                   lambda r: _close(r.value, ref, 1e-12))
            corr = f["raw_size"] * math.exp(-s.coverage * t)
            rec.op(f"transforms.step_exact {label} t={t:g}",
                   lambda: hc.laplace_of_counting(s, t, "step_exact"),
                   lambda r: _close(r + corr, ref, 1e-12))
            rec.op(f"transforms.quadrature {label} t={t:g}",
                   lambda: hc.laplace_of_counting(s, t, "quadrature"),
                   lambda r: _close(r, ref, 1e-8))
        rec.op(f"smoothing.beta_sweep {label}", lambda: hc.beta_sweep(s, f["lam"], BETAS),
               lambda table: _sweep_check(table, f["lam_count"], s.total_count))
        rec.op(f"asymptotics.weyl_check {label}", lambda: hc.weyl_check(s, f["weyl_t"]),
               lambda r: _weyl_check(r, f, traces))
        rec.op(f"asymptotics.tauberian {label}",
               lambda: hc.tauberian_first_term(s, f["weyl_t"], f["probe"]),
               lambda r: _tauber_check(r, f))
        width = s.coverage / 100
        rec.op(f"transforms.density {label}",
               lambda: hc.density_estimate(s, width, (0.0, s.coverage)),
               lambda r: _density_check(r, width, f))
        rec.op(f"transforms.counting {label} x{len(f['probes'])}",
               lambda: [hc.counting(s, float(x)) for x in f["probes"]],
               lambda r: None if np.array_equal(r, f["probe_counts"]) else "count differs from oracle")


def _close(value, ref, rtol):
    """None when value is within rtol of ref, relatively, else a reason."""
    err = abs(value - ref) / abs(ref)
    return None if err <= rtol else f"relative error {err:.3g} > {rtol:g}"


def _sweep_check(table, oracle, total):
    if table.metadata["oracle"] != oracle:
        return f"oracle {table.metadata['oracle']} != {oracle}"
    slack = 64 * 2.3e-16 * total
    for beta, value, deviation, bound in table.rows:
        if abs(abs(value - oracle) - deviation) > slack or not deviation <= bound * (1 + 1e-12) + slack:
            return f"beta={beta:g}: deviation {deviation:.3g} vs bound {bound:.3g}"
    return None


def _weyl_check(report, f, traces):
    for t, k_val, n_val, ratio, flag in zip(report.t_grid, report.heat_values, report.counts,
                                            report.ratios, report.flags):
        i = f["weyl_t"].index(t)
        if flag != "ok" or n_val != f["weyl_counts"][i] or _close(k_val, traces[t], 1e-12):
            return f"t={t:g}: row ({k_val!r}, {n_val}, {flag}) disagrees with the oracle"
        if f["const"] is not None and i == 0 and abs(ratio - 1.0) > 0.01:
            return f"constant-density ratio {ratio!r} off 1 by more than 0.01"
    return None


def _tauber_check(r, f):
    """Refit ln K = ln A - p ln t on the oracle traces and compare."""
    fit = r.fit
    if r.actual_count != f["probe_count"]:
        return f"actual count {r.actual_count} != {f['probe_count']}"
    ts, k_vals = f["tauber_t"], f["tauber_k"]
    x, y = np.log(ts), np.log(k_vals)
    slope, intercept = np.polyfit(x, y, 1)
    amplitude, exponent = math.exp(intercept), -slope
    residual = float(np.max(np.abs(amplitude * ts ** (-exponent) / k_vals - 1.0)))
    if abs(fit.exponent - exponent) > 1e-9 or _close(fit.amplitude, amplitude, 1e-9):
        return f"fit ({fit.amplitude!r}, {fit.exponent!r}) != refit ({amplitude!r}, {exponent!r})"
    if abs(fit.fit_residual - residual) > 1e-9 or fit.poor_fit != (residual > 0.05):
        return f"fit residual {fit.fit_residual!r} != refit {residual!r}"
    predicted = fit.amplitude * f["probe"] ** fit.exponent / math.gamma(fit.exponent + 1)
    if _close(r.predicted_count, predicted, 1e-12):
        return "predicted count inconsistent with the fit"
    return None


def _density_check(r, width, f):
    counts = np.rint(np.asarray(r.table.column("value")) * width)
    if not np.array_equal(counts, f["bin_counts"]):
        return "bin counts differ from the oracle"
    return None


# -- cli --------------------------------------------------------------------


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


CLI_COUNT = 10_000  # acceptance size of the generated spectra


def cli_params(rng) -> dict:
    """Seeded evaluation points for one cycle of commands."""
    mids = midpoints([k * k for k in range(1, 10)], 8)
    # the top midpoint sets the contour's memory, so every grid ends there
    low = [mids[i] for i in rng.choice(len(mids) - 1, size=2, replace=False)]
    return {
        "pick": [low[0], mids[-1], low[1], mids[-1]],
        "lam3": (float(rng.integers(1, 19)) + 0.5) ** 2,
        "probe": float(rng.uniform(0.1, 0.8)) * CLI_COUNT,
    }


def cli_commands(p: dict, fix: Path, out: Path):
    """(label, argv, data file) for one cycle; spectra are read from ``fix``."""
    pi, n = repr(PI), str(CLI_COUNT)
    spec = {
        "interval": ["--shape", "interval", "--length", pi, "--count", n],
        "rectangle": ["--shape", "rectangle", "--a", pi, "--b", pi, "--lambda-max", n],
        "torus": ["--shape", "torus", "--lambda-max", n],
        "const": ["--shape", "constant-density", "--density", "1", "--count", n],
        "interval200": ["--shape", "interval", "--length", pi, "--count", "200"],
    }
    cmds = [(f"generate {k}", ["generate", *a], f"{k}.json") for k, a in spec.items()]

    def on(name, *argv):
        return [argv[0], "--spectrum", str(fix / f"{name}.json"), *argv[1:]]

    grid = ",".join
    lam3 = repr(p["lam3"])
    rows = [
        ("verify-1 interval", on("interval", "verify", "--theorem", "1", "--t", "0.01,0.1,1,10")),
        ("verify-2 interval200", on("interval200", "verify", "--theorem", "2",
                                    "--lambda", grid(map(repr, p["pick"][:2])))),
        ("verify-3 interval", on("interval", "verify", "--theorem", "3", "--lambda", lam3)),
        ("verify-4 const", on("const", "verify", "--theorem", "4", "--t", "0.001,0.01")),
        ("invert interval200", on("interval200", "invert", "--lambda", grid(map(repr, p["pick"][2:])))),
        ("smooth interval", on("interval", "smooth", "--lambda", lam3)),
        ("weyl const", on("const", "weyl", "--t", "0.001:0.01:0.001")),
        ("tauber const", on("const", "tauber", "--t-lo", "0.001", "--t-hi", "0.01",
                            "--probe", repr(p["probe"]))),
        ("density const", on("const", "density", "--bin-width", "100", "--range", f"0,{n}")),
    ]
    cmds += [(label, argv, label.replace(" ", "-") + ".csv") for label, argv in rows]
    return [(label, [*argv, "--out", str(out / name)], out / name) for label, argv, name in cmds]


def run_in_process(argv):
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return heatcount.cli.main(argv)


class Cli:
    name = "cli"

    def setup(self, rng, work: Path, small: bool):
        fix, out = work / "fixtures", work / "out"
        params = cli_params(rng)
        golden = []
        for label, argv, path in cli_commands(params, fix, fix):
            rc = run_in_process(argv)
            if rc != 0:
                raise RuntimeError(f"{label}: exit code {rc} while making the golden outputs")
            golden.append(_sha256(path))
        cmds = cli_commands(params, fix, out)
        env = dict(os.environ)
        src = str(Path(hc.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        subprocess.run([sys.executable, "-m", "heatcount", "--version"], env=env, cwd=work,
                       stdout=subprocess.DEVNULL, check=True)
        return {"cmds": list(zip(cmds, golden)), "env": env, "work": work}

    def run_pass(self, fx, rec: Recorder, in_process: bool):
        for (label, argv, path), digest in fx["cmds"]:
            if in_process:
                call = lambda: run_in_process(argv)  # noqa: E731
            else:
                call = lambda: subprocess.run(  # noqa: E731
                    [sys.executable, "-m", "heatcount", *argv], env=fx["env"], cwd=fx["work"],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            rec.op(f"cli {label}", call, lambda rc: _cli_check(rc, path, digest))


def _cli_check(rc, path, digest):
    """Every command of the cycle passes its checks, so it must exit 0."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if _sha256(path) != digest:
        return "output bytes differ from the golden run"
    return None


WORKLOADS = {w.name: w for w in (Inversion(), LargeSpectrum(), Cli())}
