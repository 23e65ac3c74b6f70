"""heatcount benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload {inversion,large_spectrum,cli} \\
        --seed N --seconds S --trace {0,1} [--small]

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (fixtures, oracles, golden outputs, warm-up) runs five
times and its median is ``setup_s``.  Then passes of the workload's fixed
job repeat until ``--seconds`` have gone and, for the latency quantiles,
at least 100 operations were timed.  OpenBLAS runs one thread, here and
in the CLI subprocesses, so the benchmark occupies one core at a time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``run_s``
(median pass wall time, checks included), ``setup_s``, ``peak_rss_mib``
(``ru_maxrss`` of this process, or of its largest child if larger) and
``cmd_p50_ms`` / ``cmd_p90_ms`` (per-operation wall latency: one CLI
command, or one library call of the fixed job).  Every time is scaled to
reference host speed.  A fixed reference job that does not call the
package (``workloads.reference_ms``) is timed between operations and
around each set-up; an operation's latency is multiplied by ``REF_MS``
over the mean of the reference samples just before and after it, a
pass's wall time by the ratio of its scaled to its unscaled latencies,
and a set-up by ``REF_MS`` over the median of the samples around it.
On a shared host the speed of a virtual machine drifts by tens of
percent within minutes; the scaled times do not follow that drift, while
a slower program still reads slower.  The unscaled times and the
reference samples are in the ``detail`` line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, taken from spans around the calls into each layer and
normalised to one pass.  Layers a workload does not call report 0.

Every line before the last is a ``detail`` record (environment, sample
counts, failed checks by name); the last line is the result object.
Scratch files go to ``.bench_work/`` in the checkout and are removed.
"""

from __future__ import annotations

import os

# before numpy is imported; the CLI subprocesses inherit it
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from spans import Tracer, install, layer_metrics, quantile

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_REF_SAMPLES = 5  # reference samples before and after each set-up
MIN_OPS = 100  # p90 then has at least 10 samples past it


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                func = getattr(handle, symbol)
                func.argtypes, func.restype = [], ctypes.c_int
                return func()
    return None


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_setup(workload, seed, work, small):
    """Set up repeatedly; returns the last fixtures, scaled and unscaled times."""
    from workloads import REF_MS, reference_ms

    times, raw = [], []
    for _ in range(1 if small else SETUP_REPEATS):
        fx = None  # drop the previous fixtures before building new ones
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ref_ms = [reference_ms() for _ in range(SETUP_REF_SAMPLES)]
        t0 = time.perf_counter()
        fx = workload.setup(np.random.default_rng(seed), work, small)
        raw.append(time.perf_counter() - t0)
        ref_ms += [reference_ms() for _ in range(SETUP_REF_SAMPLES)]
        times.append(raw[-1] * REF_MS / statistics.median(ref_ms))
    return fx, times, raw


def end_to_end(workload, fx, rec, seconds, min_ops):
    """Passes until ``seconds`` have gone, with times scaled to reference speed."""
    passes, scaled = [], []
    start = time.perf_counter()
    while True:
        ops, ref_s = len(rec.op_ms), rec.ref_s
        t0 = time.perf_counter()
        workload.run_pass(fx, rec, in_process=False)
        # the reference samples ran inside the pass, between its operations
        passes.append(time.perf_counter() - t0 - (rec.ref_s - ref_s))
        scaled.append(passes[-1] * sum(rec.scaled_ms[ops:]) / sum(rec.op_ms[ops:]))
        if time.perf_counter() - start >= seconds and len(rec.op_ms) >= min_ops:
            break
    metrics = {
        "run_s": (statistics.median(scaled), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "cmd_p50_ms": (quantile(rec.scaled_ms, 0.5), "ms"),
        "cmd_p90_ms": (quantile(rec.scaled_ms, 0.9), "ms"),
    }
    detail = {
        "passes": len(passes), "pass_s": scaled, "pass_s_unscaled": passes,
        "cmd_samples": len(rec.op_ms),
        "cmd_p50_ms_unscaled": quantile(rec.op_ms, 0.5),
        "cmd_p90_ms_unscaled": quantile(rec.op_ms, 0.9),
        "reference_ms": rec.ref_ms,
    }
    return metrics, detail


def traced(workload, fx, rec, seconds):
    """Alternate untraced and traced passes, then one pass under tracemalloc.

    Spans time the traced passes; tracemalloc slows allocation-heavy code
    several-fold, so the memory peaks come from a separate last pass whose
    times are not used.
    """
    plain, timed, tracer = [], [], Tracer()
    start = time.perf_counter()
    while not (plain and timed) or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload.run_pass(fx, rec, in_process=True)
        plain.append(time.perf_counter() - t0)
        with install(tracer):
            t0 = time.perf_counter()
            workload.run_pass(fx, rec, in_process=True)
            timed.append(time.perf_counter() - t0)
    memory = Tracer()
    tracemalloc.start()
    try:
        with install(memory):
            workload.run_pass(fx, rec, in_process=True)
    finally:
        tracemalloc.stop()
    metrics = layer_metrics(tracer, memory, len(timed), sum(timed))
    metrics["trace.overhead_s"] = (statistics.median(timed) - statistics.median(plain), "s")
    imported = import_seconds(fx["env"], fx["work"]) if workload.name == "cli" else 0.0
    metrics["cli.import_s"] = (imported, "s")
    detail = {"passes_untraced": len(plain), "passes_traced": len(timed),
              "untraced_s": plain, "traced_s": timed}
    return metrics, detail


def import_seconds(env, cwd, repeats=5):
    """Median wall time of a fresh interpreter running ``import heatcount``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import heatcount"], env=env, cwd=cwd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["inversion", "large_spectrum", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced fixtures and no minimum sample count (self-test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "heatcount" / "__init__.py").is_file():
        print(f"error: no heatcount sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        fx, setups, setups_unscaled = run_setup(workload, args.seed, work, args.small)
        rec = Recorder(calibrate=not args.trace)
        if args.trace:
            metrics, detail = traced(workload, fx, rec, args.seconds)
        else:
            metrics, detail = end_to_end(workload, fx, rec, args.seconds,
                                         1 if args.small else MIN_OPS)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, env=environment(), setup_s=setups,
        setup_s_unscaled=setups_unscaled,
        attempted=rec.attempted, failed=rec.failed,
        fail_frac=rec.failed / rec.attempted, failures=dict(rec.failures),
        unexpected=dict(rec.unexpected),
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not rec.unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
