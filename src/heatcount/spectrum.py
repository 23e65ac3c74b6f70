"""Eigenvalue spectra: construction, closed-form generators, persistence.

A spectrum is a finite truncation of a Laplace-operator eigenvalue list
{lam_1 <= lam_2 <= ...}, stored as strictly increasing distinct values
with integer multiplicities.  The truncation boundary is kept in
``cutoff`` so downstream operations can account for the missing tail.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    EmptySpectrumError,
    InvalidParameterError,
    SpectrumFormatError,
    ValidationError,
)

# Relative tolerance within which Spectrum.from_entries merges sorted values
# into one eigenvalue: roundings of one eigenvalue computed along different
# paths (a rectangle's sums, a file's decimal digits) differ by a few ulps.
MERGE_RTOL = 1e-12

# Sorted values from_entries compares with their neighbours at a time, so the
# gaps it tests take bounded memory; also the integers generate_torus counts
# at a time.
_MERGE_BLOCK = 1 << 16

# Items of a column save_spectrum encodes and writes at a time, so no copy of
# the whole file is held in memory.  A multiple of 3 items is a multiple of 3
# bytes at any item width, whose base64 has no padding, so the chunks join to
# the base64 of the whole column.
SAVE_CHUNK = 3 * 8192

# Item width in bytes of a saved multiplicity column -> its little-endian
# dtype; a file without "multiplicity_bytes" holds 8-byte items.
_MULTIPLICITY_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<i8"}

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Immutable truncated eigenvalue spectrum.

    Attributes
    ----------
    values : ndarray of float64, strictly increasing, all >= 0
    multiplicities : ndarray of int64, all >= 1
    label : free-text description
    generator : parameters the spectrum was built from ({"kind": ...})
    cutoff : truncation boundary; every eigenvalue <= cutoff is present
    """

    values: np.ndarray
    multiplicities: np.ndarray
    label: str = ""
    generator: dict = field(default_factory=dict)
    cutoff: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mults = np.asarray(self.multiplicities, dtype=np.int64)
        if values.ndim != 1 or mults.ndim != 1 or values.shape != mults.shape:
            raise ValidationError("values and multiplicities must be 1-d arrays of equal length")
        if values.size == 0:
            raise ValidationError("spectrum must contain at least one eigenvalue")
        if not np.all(np.isfinite(values)):
            raise ValidationError("eigenvalues must be finite")
        if values[0] < 0.0:
            raise ValidationError(f"negative eigenvalue {values[0]!r}")
        if values.size > 1 and not np.all(values[1:] > values[:-1]):
            raise ValidationError("eigenvalues must be strictly increasing; merge duplicates first")
        if np.any(mults < 1):
            raise ValidationError("multiplicities must be >= 1")
        over = _overflow_index(mults)
        if over is not None:
            raise ValidationError(
                f"multiplicities add up past 2**63 - 1 at value {float(values[over])!r}"
            )
        if self.cutoff is not None and not (values[-1] <= self.cutoff < math.inf):
            raise ValidationError(
                f"cutoff {self.cutoff!r} must be finite and at least the largest stored "
                f"eigenvalue {float(values[-1])!r}"
            )
        values.flags.writeable = False
        mults.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", mults)

    # -- derived views -------------------------------------------------

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Prefix sums of multiplicities with a leading 0 (length n+1)."""
        cum = np.zeros(self.values.size + 1, dtype=np.int64)
        np.cumsum(self.multiplicities, out=cum[1:])
        cum.flags.writeable = False
        return cum

    @property
    def total_count(self) -> int:
        return int(self.cumulative[-1])

    @property
    def coverage(self) -> float:
        """Truncation boundary: cutoff when recorded, else the largest value."""
        return float(self.cutoff) if self.cutoff is not None else float(self.values[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (
            np.array_equal(self.values, other.values)
            and np.array_equal(self.multiplicities, other.multiplicities)
            and self.label == other.label
            and self.generator == other.generator
            and self.coverage == other.coverage
        )

    def __repr__(self) -> str:
        kind = self.generator.get("kind", "raw")
        return (
            f"Spectrum({kind}, {self.values.size} distinct, total={self.total_count}, "
            f"range=[{self.values[0]:g}, {self.values[-1]:g}])"
        )

    # -- construction --------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        values,
        multiplicities=None,
        *,
        label: str = "",
        generator: dict | None = None,
        cutoff: float | None = None,
    ) -> "Spectrum":
        """Build a spectrum from possibly unsorted, possibly repeated values.

        Every entry is checked before merging: values must be finite and
        non-negative, multiplicities at least 1; the error names the first
        bad ``entries[i]`` in input order.  Sorted values merge into one
        distinct value, the smallest of them, while each gap is at most
        ``MERGE_RTOL`` times the larger neighbour; multiplicities add up.
        Without multiplicities every entry counts once.  This is the one
        merge rule of the package: ``load_spectrum`` and the interval,
        rectangle and constant-density generators build through it.  The
        torus counts its integer eigenvalues exactly and skips it; the
        rule would not merge consecutive integers below 1e12, where they
        are further apart than MERGE_RTOL.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError(f"values must be a 1-d array, got shape {values.shape}")
        if multiplicities is None:
            mults = np.broadcast_to(np.int64(1), values.shape)
        else:
            mults = np.asarray(multiplicities, dtype=np.int64)
        if mults.shape != values.shape:
            raise ValidationError(
                f"{values.size} values but {mults.size} multiplicities; the lengths must match"
            )
        _check_items(values, mults, ("entries[%d].value", "entries[%d].multiplicity"))
        if multiplicities is None:
            # every entry counts once: sorting the values alone, far cheaper than an
            # index sort, is enough
            values = np.sort(values)
            starts = _merge_starts(values)
            counts = np.diff(starts, append=values.size)
            values = values[starts]
        else:
            values, counts, _ = _merged(values, mults)
        return cls(values, counts, label=label, generator=dict(generator or {}), cutoff=cutoff)


def _merged(values: np.ndarray, mults: np.ndarray):
    """The distinct values of checked entries under the merge rule, their
    multiplicities, and whether the values were already strictly increasing.

    Increasing values, as save_spectrum writes them, are merged as they
    stand; others are stable-sorted first.  When no values merge, the
    arrays are returned as they stand: Spectrum's own overflow check then
    raises what the check here would.
    """
    increasing = bool(np.all(values[1:] > values[:-1]))
    if not increasing:
        order = np.argsort(values, kind="stable")
        values = values[order]
        mults = mults[order]
    starts = _merge_starts(values)
    if starts.size == values.size:
        return values, mults, increasing
    # checked before merging: np.add.reduceat would wrap a merged multiplicity
    over = _overflow_index(mults)
    if over is not None:
        merged = float(values[starts[np.searchsorted(starts, over, side="right") - 1]])
        raise ValidationError(f"multiplicities add up past 2**63 - 1 at value {merged!r}")
    return values[starts], np.add.reduceat(mults, starts), increasing


def _merge_starts(values: np.ndarray) -> np.ndarray:
    """Indices of the sorted values that open a distinct value under the merge rule.

    A value opens one when its gap to the value before exceeds MERGE_RTOL
    times itself; the gaps are formed _MERGE_BLOCK at a time.
    """
    opens = np.ones(values.size, dtype=bool)
    for i in range(1, values.size, _MERGE_BLOCK):
        block = values[i - 1 : i + _MERGE_BLOCK]
        np.greater(np.diff(block), MERGE_RTOL * block[1:], out=opens[i : i + _MERGE_BLOCK])
    return np.flatnonzero(opens)


def _overflow_index(mults: np.ndarray) -> int | None:
    """First index where the running sum of mults (each >= 1) passes 2**63 - 1.

    int64 sums wrap silently; the first wrapped prefix sum is the first one
    below its predecessor.
    """
    cum = np.cumsum(mults)
    wrapped = np.flatnonzero(cum[1:] <= cum[:-1])
    return int(wrapped[0]) + 1 if wrapped.size else None


def _check_items(values: np.ndarray, mults: np.ndarray, names: tuple[str, str]) -> None:
    """Reject the first value that is not finite and >= 0, or multiplicity below 1.

    ``names`` are the ``%d`` templates of a value's and a multiplicity's
    place in the input, such as ``entries[%d].value``.
    """
    bad = ~np.isfinite(values) | (values < 0) | (mults < 1)
    if np.any(bad):
        i = int(np.argmax(bad))
        value = float(values[i])
        if not math.isfinite(value):
            raise ValidationError(f"{names[0] % i}: must be finite, got {value!r}")
        if value < 0:
            raise ValidationError(f"{names[0] % i}: negative eigenvalue {value!r}")
        raise ValidationError(f"{names[1] % i}: must be >= 1, got {int(mults[i])}")


# -- closed-form generators ---------------------------------------------


def generate_interval(length: float, count: int) -> Spectrum:
    """Dirichlet spectrum of the interval [0, length]: lam_n = (n*pi/length)^2."""
    if not (length > 0):
        raise InvalidParameterError("length", f"must be positive, got {length!r}")
    if count < 1:
        raise InvalidParameterError("count", f"must be >= 1, got {count!r}")
    n = np.arange(1, count + 1, dtype=np.float64)
    values = (n * (math.pi / length)) ** 2
    return Spectrum.from_entries(
        values,
        label=f"interval L={length:g}",
        generator={"kind": "interval", "length": float(length), "count": int(count)},
        cutoff=float(values[-1]),
    )


def generate_rectangle(a: float, b: float, lam_max: float) -> Spectrum:
    """Dirichlet spectrum of the a x b rectangle up to lam_max.

    lam_{m,n} = (m*pi/a)^2 + (n*pi/b)^2 with m, n >= 1.  Where (a/b)^2 is
    rational, one eigenvalue has sums that round a few ulps apart; they
    merge by ``MERGE_RTOL`` into one value with its whole multiplicity.
    Every eigenvalue with a sum <= lam_max is kept, sums up to
    lam_max * (1 + MERGE_RTOL) included, so one at lam_max keeps them all.
    """
    if not (a > 0):
        raise InvalidParameterError("a", f"must be positive, got {a!r}")
    if not (b > 0):
        raise InvalidParameterError("b", f"must be positive, got {b!r}")
    if not (0 < lam_max < math.inf):
        raise InvalidParameterError("lambda_max", f"must be positive and finite, got {lam_max!r}")
    ka = math.pi / a
    kb = math.pi / b
    # one more mode per side than sqrt(lam_max) allows, so rounding cannot cut the box short
    first = (np.arange(1, int(math.sqrt(lam_max) / ka) + 2) * ka) ** 2
    second = (np.arange(1, int(math.sqrt(lam_max) / kb) + 2) * kb) ** 2
    if first[0] + second[0] > lam_max:
        raise EmptySpectrumError(
            f"lambda_max={lam_max!r} is below the smallest eigenvalue {float(first[0] + second[0])!r}"
        )
    sums = first[:, None] + second[None, :]
    merged = Spectrum.from_entries(sums[sums <= lam_max * (1 + MERGE_RTOL)])
    kept = np.searchsorted(merged.values, lam_max, side="right")
    return Spectrum(
        merged.values[:kept],
        merged.multiplicities[:kept],
        label=f"rectangle {a:g}x{b:g}",
        generator={"kind": "rectangle", "a": float(a), "b": float(b), "lambda_max": float(lam_max)},
        cutoff=float(lam_max),
    )


def generate_torus(lam_max: float) -> Spectrum:
    """Flat-torus spectrum lam = m^2 + n^2 over integer pairs (m, n).

    The multiplicity of an integer k >= 1 is r2(k), the number of integer
    pairs with m^2 + n^2 = k.  The quarter turns of the plane map the pairs
    with m >= 1, n >= 0 onto all of them, four to one, so

        r2(k) = 4 #{(m, n) : m >= 1, n >= 0, m^2 + n^2 = k},

    and the zero mode has multiplicity 1.  These counts are taken exactly
    with np.bincount over int64 sums, a window of consecutive k at a time,
    so no float sum is formed and no value is merged: the values are the
    integers k with r2(k) > 0, exact in float64.  A window is _MERGE_BLOCK
    integers wide, or as wide as the largest gap between squares when that
    is wider (lam_max >= 2^30), so every row m has a sum in every window it
    reaches and the rows cost no more than the sums.  The value and
    multiplicity arrays are allocated before any count, at an upper bound
    on their length, so a lam_max whose spectrum cannot be held fails at
    once with numpy's MemoryError.
    """
    if not (0 <= lam_max < math.inf):
        raise InvalidParameterError("lambda_max", f"must be finite and >= 0, got {lam_max!r}")
    top = math.floor(lam_max)
    # a k >= 1 with r2(k) > 0 has an odd part of 1 mod 4: there are
    # (top // 2^a + 3) // 4 of them with exactly a factors 2
    size = 1 + sum(((top >> a) + 3) // 4 for a in range(top.bit_length()))
    values = np.empty(size, dtype=np.float64)
    mults = np.empty(size, dtype=np.int64)
    values[0], mults[0] = 0.0, 1
    stored = 1
    width = max(_MERGE_BLOCK, 2 * math.isqrt(top) + 1)
    for start in range(1, top + 1, width):
        stop = min(start + width, top + 1)
        counts = np.bincount(_quadrant_sums(start, stop) - start, minlength=stop - start)
        k = np.flatnonzero(counts > 0)  # found several times faster in a bool array
        values[stored : stored + k.size] = k + start
        mults[stored : stored + k.size] = 4 * counts[k]
        stored += k.size
    # in place, as nothing else refers to the arrays: no copy of the output
    values.resize(stored, refcheck=False)
    mults.resize(stored, refcheck=False)
    return Spectrum(
        values,
        mults,
        label="flat torus",
        generator={"kind": "torus", "lambda_max": float(lam_max)},
        cutoff=float(lam_max),
    )


def _quadrant_sums(start: int, stop: int) -> np.ndarray:
    """The sums m^2 + n^2 in [start, stop) over m >= 1, n >= 0, as int64.

    Row m holds the n from ceil(sqrt(start - m^2)) to floor(sqrt(stop - 1 - m^2)).
    """
    squares = np.arange(1, math.isqrt(stop - 1) + 1, dtype=np.int64) ** 2
    below = np.maximum(start - squares, 0)
    low = _isqrt(below)
    low += low * low < below
    runs = _isqrt(stop - 1 - squares) + 1 - low
    ends = np.cumsum(runs)
    # each row's n count up from its low end, restarting at the row's first sum
    n = np.arange(ends[-1]) + np.repeat(low - (ends - runs), runs)
    return np.repeat(squares, runs) + n * n


def _isqrt(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) of non-negative int64 x, exactly.

    The float square root is off by at most one either way; the integer
    squares correct it.
    """
    root = np.sqrt(x).astype(np.int64)
    root -= root * root > x
    root += (root + 1) * (root + 1) <= x
    return root


def generate_constant_density(c: float, count: int) -> Spectrum:
    """Spectrum with exactly constant eigenvalue density c: lam_n = n/c."""
    if not (c > 0):
        raise InvalidParameterError("density", f"must be positive, got {c!r}")
    if count < 1:
        raise InvalidParameterError("count", f"must be >= 1, got {count!r}")
    values = np.arange(1, count + 1, dtype=np.float64) / c
    return Spectrum.from_entries(
        values,
        label=f"constant density C={c:g}",
        generator={"kind": "constant_density", "density": float(c), "count": int(count)},
        cutoff=float(values[-1]),
    )


# -- persistence ----------------------------------------------------------


def _checked_generator(generator) -> dict:
    """A copy of a file's ``generator`` object, {"kind": "file"} if absent
    or null; the fields the heat trace's tail bound reads must be positive
    finite numbers."""
    if generator is None:
        return {"kind": "file"}
    if not isinstance(generator, dict):
        raise SpectrumFormatError(f"generator: expected an object, got {generator!r}")
    kind = generator.get("kind")
    fields = {"interval": ("length",), "constant_density": ("density",), "rectangle": ("a", "b")}
    for name in fields.get(kind, ()) if isinstance(kind, str) else ():
        value = generator.get(name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 < value <= sys.float_info.max):  # also integers past it
            raise SpectrumFormatError(f"generator.{name}: expected a positive finite number, got {value!r}")
    return dict(generator)


def _file_spectrum(
    header: dict, values: np.ndarray, mults: np.ndarray, names: tuple[str, str]
) -> Spectrum:
    """The spectrum of a file's header fields and value and multiplicity arrays.

    A bad item is named by ``names``, as in ``_check_items``.  The sort and
    merge warnings name the caller of load_spectrum.
    """
    cutoff = header.get("cutoff")
    if cutoff is not None and (isinstance(cutoff, bool) or not isinstance(cutoff, (int, float))):
        raise SpectrumFormatError(f"cutoff: expected a number, got {cutoff!r}")
    try:
        cutoff = None if cutoff is None else float(cutoff)
    except OverflowError:  # an integer beyond the double range
        raise ValidationError(f"cutoff: must be finite, got {cutoff!r}") from None
    generator = _checked_generator(header.get("generator"))
    _check_items(values, mults, names)
    distinct, counts, increasing = _merged(values, mults)
    s = Spectrum(
        distinct,
        counts,
        label=str(header.get("label", "")),
        generator=generator,
        cutoff=cutoff,
    )
    if not increasing:
        warnings.warn("spectrum entries not strictly increasing; sorting and merging", stacklevel=3)
    elif s.values.size < values.size:
        warnings.warn(
            f"merged {values.size - s.values.size} near-duplicate entries "
            f"(relative tolerance {MERGE_RTOL:g})",
            stacklevel=3,
        )
    return s


def _entry_pairs(entries: list):
    """The (value, multiplicity) of each entry, checking that it is an object with a value."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "value" not in entry:
            raise SpectrumFormatError(f"entries[{i}]: expected an object with a 'value' field")
        yield entry["value"], entry.get("multiplicity", 1)


def _checked_arrays(pairs, size: int, names: tuple[str, str]):
    """Value and multiplicity arrays of ``size`` pairs, checking one pair at a time.

    A bad item is named by ``names``, as in ``_check_items``.
    """
    values = np.empty(size, dtype=np.float64)
    mults = np.empty(size, dtype=np.int64)
    for i, (value, mult) in enumerate(pairs):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SpectrumFormatError(f"{names[0] % i}: expected a number, got {value!r}")
        try:
            values[i] = value
        except OverflowError:  # an integer beyond the double range
            raise ValidationError(f"{names[0] % i}: must be finite, got {value!r}") from None
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise SpectrumFormatError(f"{names[1] % i}: expected an integer, got {mult!r}")
        if not -(2**63) <= mult < 2**63:
            raise ValidationError(f"{names[1] % i}: must be >= 1 and < 2**63, got {mult!r}")
        mults[i] = mult
    return values, mults


def _columns(values, mults, width, names: tuple[str, str]):
    """Value and multiplicity arrays of a file's two columns: base64 strings
    when values is one, as save_spectrum writes them, with multiplicities
    ``width`` bytes an item; else decimal lists, which ignore ``width``."""
    if isinstance(values, str):
        if not isinstance(mults, str):
            raise SpectrumFormatError("multiplicities: must be a base64 string, as values is")
        # exact type: bool, an int subclass, and 1.0, equal to 1, are rejected
        if type(width) is not int or width not in _MULTIPLICITY_DTYPES:
            raise SpectrumFormatError(f"multiplicity_bytes: must be 1, 2, 4 or 8, got {width!r}")
        # views of the decoded bytes where the host is little-endian, as most
        # are; multiplicities narrower than 8 bytes are widened in a copy
        values = _decoded(values, "<f8", "values").astype(np.float64, copy=False)
        mults = _decoded(mults, _MULTIPLICITY_DTYPES[width], "multiplicities")
        mults = mults.astype(np.int64, copy=False)
        if mults.size != values.size:
            raise SpectrumFormatError(
                f"multiplicities: {values.size} values but {mults.size} multiplicities; "
                "the lengths must match"
            )
        return values, mults
    if not isinstance(values, list) or not values:
        raise SpectrumFormatError("values: must be a non-empty list")
    if not isinstance(mults, list) or len(mults) != len(values):
        raise SpectrumFormatError("multiplicities: must be a list as long as values")
    return _checked_arrays(zip(values, mults), len(values), names)


def _decoded(text: str, dtype: str, name: str) -> np.ndarray:
    """The items of a column's base64 text as ``dtype``, a little-endian
    type, viewing the decoded bytes."""
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise SpectrumFormatError(f"{name}: invalid base64: {exc}") from None
    size = np.dtype(dtype).itemsize
    if not data or len(data) % size:
        raise SpectrumFormatError(
            f"{name}: must decode to a positive whole number of {size}-byte items, "
            f"got {len(data)} bytes"
        )
    return np.frombuffer(data, dtype=dtype)


def save_spectrum(s: Spectrum, path) -> None:
    """Write a spectrum as JSON: its header, then its values and
    multiplicities as two base64 strings (RFC 4648) of their items as
    little-endian float64 and as the narrowest of unsigned 1, 2 or 4-byte
    integers and int64 that holds the largest multiplicity, so every item
    round-trips bit for bit.

    The bytes are those of ``json.dumps`` of the fields label, generator,
    cutoff, multiplicity_bytes (that width: 1, 2, 4 or 8), values and
    multiplicities, plus a newline.  Each column is encoded ``SAVE_CHUNK``
    items at a time, so the memory taken does not grow with the spectrum.
    Versions before the multiplicity_bytes field cannot read these files.
    """
    top = int(s.multiplicities.max())
    width = next((w for w in (1, 2, 4) if top < 1 << 8 * w), 8)
    header = json.dumps(
        {"label": s.label, "generator": s.generator, "cutoff": s.coverage,
         "multiplicity_bytes": width}
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        # the header object without its closing "}", then the two columns
        handle.write(header[:-1].encode() + b', "values": "')
        _write_items(handle, s.values, "<f8")
        handle.write(b'", "multiplicities": "')
        _write_items(handle, s.multiplicities, _MULTIPLICITY_DTYPES[width])
        handle.write(b'"}\n')


def _write_items(handle, column: np.ndarray, dtype: str) -> None:
    """Write the base64 of a column's items stored as ``dtype``, SAVE_CHUNK at a time."""
    for start in range(0, column.size, SAVE_CHUNK):
        handle.write(base64.b64encode(column[start : start + SAVE_CHUNK].astype(dtype, copy=False)))


def load_spectrum(path) -> Spectrum:
    """Read a spectrum file with ``json.load``.

    A file with ``values`` or ``multiplicities`` holds two columns: base64
    strings of little-endian float64 items and of multiplicities
    ``multiplicity_bytes`` (1, 2, 4 or 8) wide, unsigned below 8 and int64
    at 8, as save_spectrum writes them; or decimal lists, as one writes by
    hand and as earlier versions wrote.  A file without the width holds
    int64 multiplicities, as every file before the field was written.  One
    with neither column holds an ``entries`` list of objects.
    Base64 columns are decoded to arrays; list columns and entries are
    read one item at a time, checking its type and naming the first bad
    item.  Either way every item is then checked by value and named in the
    same way.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpectrumFormatError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(payload, dict):
        raise SpectrumFormatError("top-level JSON value must be an object")
    if "values" in payload or "multiplicities" in payload:
        logger.debug("%s: read the column layout", path)
        names = ("values[%d]", "multiplicities[%d]")
        # popped, so the texts and lists are freed once their arrays are built
        arrays = _columns(
            payload.pop("values", None),
            payload.pop("multiplicities", None),
            payload.get("multiplicity_bytes", 8),
            names,
        )
    else:
        logger.debug("%s: read the entries layout", path)
        entries = payload.get("entries")
        if not isinstance(entries, list) or not entries:
            raise SpectrumFormatError("entries: must be a non-empty list")
        names = ("entries[%d].value", "entries[%d].multiplicity")
        arrays = _checked_arrays(_entry_pairs(entries), len(entries), names)
    return _file_spectrum(payload, *arrays, names)
