"""Span tracing around the public functions of each heatcount layer.

The tracer never edits the package: ``install`` replaces the module
attributes that hold a public function with a wrapper that records a span
(name, start, end, parent, self time, tracemalloc peak) and restores the
originals on exit.  Because the package modules call each other through
module globals, wrapping every module that holds a reference also captures
nested calls, e.g. ``abscissa_estimate`` inside ``bromwich_invert``.

Layer names follow the modules of ``src/heatcount``: ``spectrum``,
``transforms``, ``inversion``, ``smoothing``, ``asymptotics``,
``evaltable`` and ``cli``.
"""

from __future__ import annotations

import importlib
import math
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MIB = float(1 << 20)


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of a sample.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics: it
    moves smoothly when samples of unequal operations trade ranks, where
    a single order statistic jumps between them.
    """
    x = np.sort(np.asarray(xs, dtype=np.float64))
    n = x.size
    if n < 2:
        return float(x[0]) if n else 0.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = (np.arange(64 * n) + 0.5) / (64 * n)  # 64 midpoints per cell ((i-1)/n, i/n]
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, 64).sum(axis=1)
    return float(mass @ x / mass.sum())


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def peak_mib(self) -> float:
        return max(self.peak_bytes - self.base_bytes, 0) / MIB


class Tracer:
    """Spans kept in memory; a span's self time excludes its child spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if tracemalloc.is_tracing():
            # keep the parent's peak so far, then measure this span from zero
            if parent is not None:
                up = self.spans[parent]
                up.peak_bytes = max(up.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        else:
            base = 0
        span = Span(name, time.perf_counter(), parent, base_bytes=base, peak_bytes=base)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if tracemalloc.is_tracing():
                span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
            if parent is not None:
                up = self.spans[parent]
                up.child_s += span.duration
                up.peak_bytes = max(up.peak_bytes, span.peak_bytes)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]


def _laplace_name(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "step_exact")
    return "transforms.quadrature" if method == "quadrature" else "transforms.step_exact"


def _cli_name(args, kwargs) -> str:
    argv = kwargs.get("argv", args[0] if args else None) or ["?"]
    return f"cli.main.{argv[0]}"


def _file_bytes(span, args, kwargs, result):
    # save_spectrum(s, path) and EvalTable.write_csv(self, path)
    span.attrs["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _bromwich_attrs(span, args, kwargs, result):
    """Counts derived from the contour the call used (computed, not timed)."""
    from heatcount import inversion

    s, lam = args[0], float(args[1])
    cfg = result.config_used
    drop = getattr(inversion, "TERM_DROP_EXPONENT", 46.0)
    block = getattr(inversion, "BLOCK", 1 << 16)
    cap = getattr(inversion, "T_CAP_FACTOR", 1e5)
    nodes = int(math.ceil(cfg.T / cfg.h)) + 1
    terms = int((cfg.c * (s.values - lam) <= drop).sum())
    span.attrs.update(
        nodes=nodes,
        terms=terms,
        exp_evals=nodes * terms,
        block_mib=min(block, nodes) * terms * 16 / MIB,
        t_capped=int(cfg.T >= cap * cfg.c * (1 - 1e-12)),
    )


# (module, attribute, span name or name function, result hook)
TARGETS = (
    ("spectrum", "generate_interval", "spectrum.generate", None),
    ("spectrum", "generate_rectangle", "spectrum.generate", None),
    ("spectrum", "generate_torus", "spectrum.generate", None),
    ("spectrum", "generate_constant_density", "spectrum.generate", None),
    ("spectrum", "save_spectrum", "spectrum.save", _file_bytes),
    ("spectrum", "load_spectrum", "spectrum.load", None),
    ("transforms", "heat_trace", "transforms.heat_trace", None),
    ("transforms", "counting", "transforms.counting", None),
    ("transforms", "laplace_of_counting", _laplace_name, None),
    ("transforms", "density_estimate", "transforms.density", None),
    ("inversion", "bromwich_invert", "inversion.bromwich", _bromwich_attrs),
    ("inversion", "abscissa_estimate", "inversion.abscissa", None),
    ("inversion", "invert_profile", "inversion.profile", None),
    ("smoothing", "beta_sweep", "smoothing.beta_sweep", None),
    ("smoothing", "smoothing_error_bound", "smoothing.error_bound", None),
    ("asymptotics", "weyl_check", "asymptotics.weyl_check", None),
    ("asymptotics", "tauberian_first_term", "asymptotics.tauberian", None),
    ("cli", "main", _cli_name, None),
)


def _wrap(tracer, func, name, hook):
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        with tracer.span(label) as span:
            result = func(*args, **kwargs)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def install(tracer: Tracer):
    """Route every reference to the traced functions through ``tracer``."""
    import heatcount
    from heatcount.evaltable import EvalTable

    names = ("spectrum", "transforms", "inversion", "smoothing", "asymptotics", "evaltable", "cli")
    modules = [heatcount] + [importlib.import_module(f"heatcount.{n}") for n in names]
    saved = []
    for mod_name, attr, name, hook in TARGETS:
        func = getattr(importlib.import_module(f"heatcount.{mod_name}"), attr)
        wrapper = _wrap(tracer, func, name, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is func:
                    saved.append((mod, key, value))
                    setattr(mod, key, wrapper)
    write_csv = EvalTable.write_csv
    EvalTable.write_csv = _wrap(tracer, write_csv, "evaltable.write_csv", _file_bytes)
    try:
        yield tracer
    finally:
        EvalTable.write_csv = write_csv
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)


CLI_SUBCOMMANDS = ("generate", "verify", "invert", "smooth", "weyl", "tauber", "density")


def layer_metrics(tracer: Tracer, memory: Tracer, passes: int, traced_wall: float) -> dict:
    """Per-layer metrics, per traced pass: name -> (value, unit).

    ``tracer`` holds the timed passes, ``memory`` one pass run under
    tracemalloc, which gives the ``peak_mib`` values.  ``busy_s`` is self
    time.  The inversion counts (nodes, terms, exp_evals, block size,
    capped T) are computed from each call's contour configuration, so they
    repeat exactly for the same inputs.
    """
    def group(t):
        by_name: dict[str, list[Span]] = {}
        for span in t.spans:
            by_name.setdefault(span.name, []).append(span)
        return by_name

    timed, traced_memory = group(tracer), group(memory)

    def spans(name):
        return timed.get(name, [])

    def busy(name):
        return sum(s.self_s for s in spans(name)) / passes, "s"

    def count(name, failed=False):
        return sum(1 for s in spans(name) if s.failed or not failed) / passes, "count"

    def total(name, key, unit="count"):
        return sum(s.attrs.get(key, 0) for s in spans(name)) / passes, unit

    def peak(name):
        return max((s.peak_mib for s in traced_memory.get(name, [])), default=0.0), "MiB"

    call_ms = [s.duration * 1e3 for s in spans("inversion.bromwich")]
    m = {
        "inversion.bromwich.busy_s": busy("inversion.bromwich"),
        "inversion.bromwich.calls": count("inversion.bromwich"),
        "inversion.bromwich.call_p50_ms": (quantile(call_ms, 0.5), "ms"),
        "inversion.bromwich.call_p90_ms": (quantile(call_ms, 0.9), "ms"),
        "inversion.bromwich.nodes": total("inversion.bromwich", "nodes"),
        "inversion.bromwich.terms": total("inversion.bromwich", "terms"),
        "inversion.bromwich.exp_evals": total("inversion.bromwich", "exp_evals"),
        "inversion.bromwich.block_mib_max": (
            max((s.attrs["block_mib"] for s in spans("inversion.bromwich")), default=0.0), "MiB"),
        "inversion.bromwich.peak_mib": peak("inversion.bromwich"),
        "inversion.bromwich.t_capped": total("inversion.bromwich", "t_capped"),
        "inversion.bromwich.failed": count("inversion.bromwich", failed=True),
        "inversion.abscissa.busy_s": busy("inversion.abscissa"),
        "transforms.quadrature.busy_s": busy("transforms.quadrature"),
        "transforms.quadrature.calls": count("transforms.quadrature"),
        "transforms.quadrature.failed": count("transforms.quadrature", failed=True),
        "transforms.heat_trace.busy_s": busy("transforms.heat_trace"),
        "transforms.heat_trace.calls": count("transforms.heat_trace"),
        "transforms.step_exact.busy_s": busy("transforms.step_exact"),
        "transforms.counting.busy_s": busy("transforms.counting"),
        "transforms.counting.calls": count("transforms.counting"),
        "transforms.density.busy_s": busy("transforms.density"),
        "spectrum.generate.busy_s": busy("spectrum.generate"),
        "spectrum.save.busy_s": busy("spectrum.save"),
        "spectrum.save.bytes": total("spectrum.save", "bytes", "B"),
        "spectrum.save.peak_mib": peak("spectrum.save"),
        "spectrum.load.busy_s": busy("spectrum.load"),
        "spectrum.load.peak_mib": peak("spectrum.load"),
        "smoothing.beta_sweep.busy_s": busy("smoothing.beta_sweep"),
        "smoothing.beta_sweep.calls": count("smoothing.beta_sweep"),
        "smoothing.error_bound.busy_s": busy("smoothing.error_bound"),
        "asymptotics.weyl_check.busy_s": busy("asymptotics.weyl_check"),
        "asymptotics.tauberian.busy_s": busy("asymptotics.tauberian"),
        "evaltable.write_csv.busy_s": busy("evaltable.write_csv"),
        "evaltable.write_csv.bytes": total("evaltable.write_csv", "bytes", "B"),
        "trace.span_coverage": (sum(s.duration for s in tracer.roots()) / traced_wall, "ratio"),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.busy_s"] = busy(f"cli.main.{sub}")
    return m
