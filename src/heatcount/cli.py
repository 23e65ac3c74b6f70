"""Command-line batch surface.

Subcommands wire the library operations into reproducible runs: every
invocation writes its data files (CSV/JSON) plus a JSON manifest with
the full parameter set and input/output hashes.  Data files carry no
timestamps, so identical inputs give byte-identical outputs.

Each subcommand imports the layers it runs when it is called, so a command
loads only those, and ``--help`` or ``--version`` loads no numpy.  Library
names are read from their modules at call time, so a wrapper installed on a
module attribute sees the call.

Exit codes: 0 success, 1 verification failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ConfigurationError, HeatcountError, InvalidParameterError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

def parse_grid(text: str) -> list[float]:
    """Comma list ("0.01,0.1,1") or inclusive range ("1:3:0.5") of at most a million finite points."""
    text = text.strip()
    ranged = ":" in text
    parts = text.split(":") if ranged else [p for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidParameterError("grid", f"could not parse {text!r}: {exc}") from exc
    if not ranged:
        if not values:
            raise InvalidParameterError("grid", f"empty grid {text!r}")
        if not all(map(math.isfinite, values)):
            raise InvalidParameterError("grid", f"non-finite point in {text!r}")
        return values
    if len(values) != 3:
        raise InvalidParameterError("grid", f"range must be start:stop:step, got {text!r}")
    start, stop, step = values
    if not (0 < step < math.inf and start <= stop and math.isfinite(stop - start)):
        raise InvalidParameterError("grid", f"bad range {text!r}")
    end = stop + 1e-9 * step
    span = (end - start) / step
    if not span < 1e6:
        raise InvalidParameterError("grid", f"range {text!r} has more than 1000000 points")
    # start + k * step rounds monotonically in k, so the points kept are
    # k = 0 .. count - 1; the quotient gives count up to its rounding
    count = int(span) + 1
    while start + count * step <= end:
        count += 1
    while start + (count - 1) * step > end:
        count -= 1
    return [start + k * step for k in range(count)]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# shape -> (generator in heatcount.spectrum, its flags in argument order)
GENERATORS = {
    "interval": ("generate_interval", ("length", "count")),
    "rectangle": ("generate_rectangle", ("a", "b", "lambda_max")),
    "torus": ("generate_torus", ("lambda_max",)),
    "constant_density": ("generate_constant_density", ("density", "count")),
}


def _run(args) -> int:
    """Load, compute, write the data file and its manifest, print the summary."""
    from .spectrum import Spectrum, load_spectrum, save_spectrum

    started = time.monotonic()
    inputs = [args.spectrum] if "spectrum" in vars(args) else []
    s = load_spectrum(args.spectrum) if inputs else None
    result, message, ok = args.func(s, args)
    if isinstance(result, Spectrum):
        save_spectrum(result, args.out)
    else:
        result.write_csv(args.out)
    params = {
        key: str(value) if isinstance(value, Path) else value
        for key, value in vars(args).items()
        if key not in ("func", "command", "manifest")
    }
    payload = {
        "command": args.command,
        "params": params,
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))} for p in inputs],
        "outputs": [{"path": str(args.out), "sha256": _sha256(Path(args.out))}],
        "version": __version__,
        "duration_s": time.monotonic() - started,
    }
    manifest_path = Path(args.manifest or str(args.out) + ".manifest.json")
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    with manifest_path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(message)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# -- subcommands: (spectrum or None, args) -> (result, summary line, passed)


def _generate(_, args):
    from dataclasses import replace

    from . import spectrum

    kind = args.shape.replace("-", "_")
    name, flags = GENERATORS[kind]
    for flag in flags:
        if getattr(args, flag) is None:
            raise InvalidParameterError(flag, f"required for shape {kind!r}")
    s = getattr(spectrum, name)(*(getattr(args, flag) for flag in flags))
    if args.label:
        s = replace(s, label=args.label)
    message = (
        f"wrote {args.out}: {s.values.size} distinct eigenvalues, "
        f"total count {s.total_count}, range [{s.values[0]:g}, {s.values[-1]:g}]"
    )
    return s, message, True


def _laplace_identity(s, args):
    """Theorem 1: K(t) against t times the Laplace transform of N, two ways."""
    from .evaltable import EvalTable
    from .transforms import heat_trace, laplace_of_counting, truncation_correction

    table = EvalTable(
        ("t", "heat_trace", "step_exact", "quadrature", "correction", "step_rel_dev", "quad_rel_dev")
    )
    for t in sorted(parse_grid(args.t)):
        k_val = heat_trace(s, t).value
        step = laplace_of_counting(s, t, "step_exact")
        corr = truncation_correction(s, t)
        quad = laplace_of_counting(s, t, "quadrature")
        scale = k_val or math.nan  # a trace that underflows to 0 has no relative deviation
        table.append(t, k_val, step, quad, corr, abs(step + corr - k_val) / scale, abs(quad - k_val) / scale)
    return table


def _laplace_ok(row, table, s, args):
    t, k_val, step, quad, corr, step_dev, quad_dev = row
    # --tol sets the step-exact tolerance; the quadrature is held to 1e-8 relative
    return step_dev <= args.tol and quad_dev <= 1e-8


def _inverted_ok(row, table, s, args):
    lam, value, osc, rounded, oracle, match = row
    return match == "yes" and abs(value - oracle) <= args.tol


def _inverted(s, args):
    from .inversion import invert_profile

    return invert_profile(s, parse_grid(args.lam))


def _sweep(s, args):
    from .smoothing import beta_sweep

    lams = parse_grid(args.lam)
    if len(lams) != 1:
        raise InvalidParameterError("lambda", "theorem 3 verifies a single lambda")
    return beta_sweep(s, lams[0], parse_grid(args.beta))


def _within_bound(row, table, s, args):
    beta, value, deviation, bound = row
    # the deviation may not exceed its own bound, up to ~eps per summed term
    slack = 64 * 2.3e-16 * s.total_count
    return not math.isnan(bound) and deviation <= bound * (1 + 1e-12) + slack


def _regime(s, args):
    from .asymptotics import weyl_check

    return weyl_check(s, parse_grid(args.t)).to_table()


def _in_regime(row, table, s, args):
    t, k_val, n_val, ratio, flag = row
    # the regime tolerance binds at the smallest t, the first row of weyl_check's
    # sorted table; larger t only need a well-defined ratio
    return flag == "ok" and (t != table.rows[0][0] or abs(ratio - 1.0) <= args.tol)


# theorem -> (the flags it reads and their defaults, None where required;
#             its table, the same as the direct subcommand's for 2, 3 and 4;
#             the pass rule for one row of that table, given the table)
THEOREMS = {
    1: ({"t": "0.01,0.1,1,10", "tol": 1e-12}, _laplace_identity, _laplace_ok),
    2: ({"lam": None, "tol": 0.1}, _inverted, _inverted_ok),
    3: ({"lam": None, "beta": "1,2,5,10,20"}, _sweep, _within_bound),
    4: ({"t": "0.001,0.01", "tol": 0.01}, _regime, _in_regime),
}


def _verify(s, args):
    from .evaltable import EvalTable

    reads, rows, passes = THEOREMS[args.theorem]
    # resolve the flags in args, so the manifest records what ran
    for dest in ("t", "lam", "beta", "tol"):
        flag = "lambda" if dest == "lam" else dest
        if dest not in reads:
            if getattr(args, dest) is not None:
                raise InvalidParameterError(flag, f"not read by theorem {args.theorem}")
            delattr(args, dest)
        elif getattr(args, dest) is None:
            if reads[dest] is None:
                raise InvalidParameterError(flag, f"required for theorem {args.theorem}")
            setattr(args, dest, reads[dest])
    table = rows(s, args)
    checked = EvalTable(
        table.columns + ("pass",),
        [row + ("yes" if passes(row, table, s, args) else "no",) for row in table.rows],
    )
    n_pass = sum(row[-1] == "yes" for row in checked.rows)
    message = f"theorem {args.theorem}: {n_pass}/{len(checked.rows)} rows passed -> {args.out}"
    return checked, message, n_pass == len(checked.rows)


def _smooth(s, args):
    from .smoothing import beta_sweep, default_beta

    if args.beta is None:
        args.beta = repr(default_beta(s, args.lam))  # recorded in the manifest
    betas = parse_grid(args.beta)
    message = f"smoothed counting at lambda={args.lam:g} over {len(betas)} beta values -> {args.out}"
    return beta_sweep(s, args.lam, betas), message, True


def _invert(s, args):
    from .inversion import InversionConfig, invert_profile

    try:
        cfg = InversionConfig(args.contour_c, args.height, args.step)
    except ConfigurationError as exc:
        raise InvalidParameterError("c/height/step", str(exc)) from exc
    table = invert_profile(s, parse_grid(args.lam), cfg)
    mismatches = sum(1 for row in table.rows if row[-1] != "yes")
    message = (
        f"inverted {len(table.rows)} points, {mismatches} disagree with the counting oracle "
        f"-> {args.out}"
    )
    return table, message, True


def _weyl(s, args):
    from .asymptotics import weyl_check

    report = weyl_check(s, parse_grid(args.t))
    message = (
        f"density constant estimate {report.density_constant:.17g}; "
        f"{len(report.t_grid)} grid rows -> {args.out}"
    )
    return report.to_table(), message, True


def _tauber(s, args):
    from .asymptotics import tauberian_first_term

    result = tauberian_first_term(s, (args.t_lo, args.t_hi), args.probe, n_points=args.points)
    fit = result.fit
    if fit.poor_fit:
        print("warning: fit residual above 5%; the trace is not power-law on this window", file=sys.stderr)
    message = (
        f"K(t) ~ {fit.amplitude:.6g} * t^-{fit.exponent:.6g} (residual {fit.fit_residual:.3g}); "
        f"predicted N({args.probe:g}) = {result.predicted_count:.6g} vs actual {result.actual_count}"
    )
    return result.to_table(args.probe), message, True


def _density(s, args):
    from .transforms import density_estimate

    try:
        lo, hi = (float(x) for x in args.range.split(","))
    except ValueError as exc:
        raise InvalidParameterError("range", f"expected lo,hi, got {args.range!r}") from exc
    result = density_estimate(s, args.bin_width, (lo, hi))
    message = (
        f"mean density {result.mean_density:.17g}, "
        f"constancy deviation {result.constancy_deviation:.3g} -> {args.out}"
    )
    return result.table, message, True


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatcount",
        description="Eigenvalue counting function vs. heat trace: generators, transforms, checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", required=True)
    writes.add_argument("--manifest", default=None)
    reads = argparse.ArgumentParser(add_help=False, parents=[writes])
    reads.add_argument("--spectrum", required=True)

    gen = sub.add_parser("generate", parents=[writes],
                         help="Generate a spectrum file from a closed-form family.")
    gen.add_argument("--shape", required=True,
                     choices=["interval", "rectangle", "torus", "constant-density", "constant_density"])
    gen.add_argument("--length", type=float, default=None, help="interval length")
    gen.add_argument("--a", type=float, default=None, help="rectangle side a")
    gen.add_argument("--b", type=float, default=None, help="rectangle side b")
    gen.add_argument("--density", type=float, default=None, help="constant density C")
    gen.add_argument("--count", type=int, default=None, help="number of eigenvalues")
    gen.add_argument("--lambda-max", type=float, default=None, help="eigenvalue cutoff")
    gen.add_argument("--label", default=None)
    gen.set_defaults(func=_generate)

    ver = sub.add_parser("verify", parents=[reads],
                         help="Run one of the four identity checks over a grid.")
    ver.add_argument("--theorem", type=int, required=True, choices=[1, 2, 3, 4])
    ver.add_argument("--t", default=None, help="t grid, theorems 1 and 4 (a,b,c or start:stop:step)")
    ver.add_argument("--lambda", dest="lam", default=None, help="lambda grid, theorems 2 and 3")
    ver.add_argument("--beta", default=None, help="beta grid, theorem 3")
    ver.add_argument("--tol", type=float, default=None,
                     help="row tolerance, theorems 1, 2 and 4 (defaults: 1e-12 rel, 0.1 abs, 0.01)")
    ver.set_defaults(func=_verify)

    smo = sub.add_parser("smooth", parents=[reads],
                         help="Sharpness sweep of the smoothed counting function.")
    smo.add_argument("--lambda", dest="lam", type=float, required=True)
    smo.add_argument("--beta", default=None, help="beta grid; default 50/(nearest gap)")
    smo.set_defaults(func=_smooth)

    inv = sub.add_parser("invert", parents=[reads], help="Contour-invert the heat trace back to counts.")
    inv.add_argument("--lambda", dest="lam", required=True, help="lambda grid")
    inv.add_argument("--c", dest="contour_c", type=float, default=None, help="contour abscissa")
    inv.add_argument("--height", type=float, default=None, help="contour truncation T")
    inv.add_argument("--step", type=float, default=None, help="trapezoid step h")
    inv.set_defaults(func=_invert)

    wey = sub.add_parser("weyl", parents=[reads], help="Constant-density regime check K(t) vs N(1/t).")
    wey.add_argument("--t", required=True, help="t grid")
    wey.set_defaults(func=_weyl)

    tau = sub.add_parser("tauber", parents=[reads],
                         help="Power-law fit of K(t) and first-term count prediction.")
    tau.add_argument("--t-lo", type=float, required=True)
    tau.add_argument("--t-hi", type=float, required=True)
    tau.add_argument("--probe", type=float, required=True, help="lambda at which to predict N")
    tau.add_argument("--points", type=int, default=16)
    tau.set_defaults(func=_tauber)

    den = sub.add_parser("density", parents=[reads], help="Binned eigenvalue density over a range.")
    den.add_argument("--bin-width", type=float, required=True)
    den.add_argument("--range", required=True, help="lo,hi")
    den.set_defaults(func=_density)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (HeatcountError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
