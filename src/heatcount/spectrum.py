"""Eigenvalue spectra: construction, closed-form generators, persistence.

A spectrum is a finite truncation of a Laplace-operator eigenvalue list
{lam_1 <= lam_2 <= ...}, stored as strictly increasing distinct values
with integer multiplicities.  The truncation boundary is kept in
``cutoff`` so downstream operations can account for the missing tail.
"""

from __future__ import annotations

import json
import logging
import math
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
# gaps it tests take bounded memory.
_MERGE_BLOCK = 1 << 16

# Entries save_spectrum formats and writes at a time, so no copy of the whole
# file is held in memory.
SAVE_CHUNK = 8192

# Characters load_spectrum reads at a time from a file in save_spectrum's layout.
_READ_SIZE = 1 << 16

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
        merge rule of the package: generators and ``load_spectrum`` build
        through it.
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
        bad = ~np.isfinite(values) | (values < 0) | (mults < 1)
        if np.any(bad):
            i = int(np.argmax(bad))
            value = float(values[i])
            if not math.isfinite(value):
                raise ValidationError(f"entries[{i}].value: must be finite, got {value!r}")
            if value < 0:
                raise ValidationError(f"entries[{i}].value: negative eigenvalue {value!r}")
            raise ValidationError(f"entries[{i}].multiplicity: must be >= 1, got {int(mults[i])}")
        if multiplicities is None:
            # every entry counts once: sorting the values alone, far cheaper than an
            # index sort, is enough
            values = np.sort(values)
            starts = _merge_starts(values)
            counts = np.diff(starts, append=values.size)
        else:
            order = np.argsort(values, kind="stable")
            values = values[order]
            mults = mults[order]
            starts = _merge_starts(values)
            # checked before merging: np.add.reduceat would wrap a merged multiplicity
            over = _overflow_index(mults)
            if over is not None:
                merged = float(values[starts[np.searchsorted(starts, over, side="right") - 1]])
                raise ValidationError(f"multiplicities add up past 2**63 - 1 at value {merged!r}")
            counts = np.add.reduceat(mults, starts)
        return cls(
            values[starts],
            counts,
            label=label,
            generator=dict(generator or {}),
            cutoff=cutoff,
        )


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
    merged = Spectrum.from_entries(_lattice(first, second, lam_max * (1 + MERGE_RTOL)))
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

    Multiplicity of k is the number of lattice points on the circle of
    squared radius k; the zero mode is included with multiplicity 1.
    """
    if not (0 <= lam_max < math.inf):
        raise InvalidParameterError("lambda_max", f"must be finite and >= 0, got {lam_max!r}")
    side = int(math.floor(math.sqrt(lam_max)))
    squared = np.arange(-side, side + 1, dtype=np.float64) ** 2  # exact: integers below 2**53
    return Spectrum.from_entries(
        _lattice(squared, squared, lam_max),
        label="flat torus",
        generator={"kind": "torus", "lambda_max": float(lam_max)},
        cutoff=float(lam_max),
    )


def _lattice(first: np.ndarray, second: np.ndarray, bound: float) -> np.ndarray:
    """The sums first_i + second_j that are <= bound, unsorted."""
    sums = first[:, None] + second[None, :]
    return sums[sums <= bound]


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


def _file_spectrum(header: dict, values: np.ndarray, mults: np.ndarray) -> Spectrum:
    """The spectrum of a file's header fields and entry arrays.

    Its sort and merge warnings name the caller of load_spectrum.
    """
    cutoff = header.get("cutoff")
    if cutoff is not None and (isinstance(cutoff, bool) or not isinstance(cutoff, (int, float))):
        raise SpectrumFormatError(f"cutoff: expected a number, got {cutoff!r}")
    try:
        cutoff = None if cutoff is None else float(cutoff)
    except OverflowError:  # an integer beyond the double range
        raise ValidationError(f"cutoff: must be finite, got {cutoff!r}") from None
    generator = header.get("generator")
    if generator is None:
        generator = {"kind": "file"}
    s = Spectrum.from_entries(
        values,
        mults,
        label=str(header.get("label", "")),
        generator=generator,
        cutoff=cutoff,
    )
    if not np.all(values[1:] > values[:-1]):
        warnings.warn("spectrum entries not strictly increasing; sorting and merging", stacklevel=3)
    elif s.values.size < values.size:
        warnings.warn(
            f"merged {values.size - s.values.size} near-duplicate entries "
            f"(relative tolerance {MERGE_RTOL:g})",
            stacklevel=3,
        )
    return s


def _entry_arrays(entries: list):
    """Value and multiplicity arrays when every entry is well typed, else None.

    One type test per column instead of per entry; anything it does not
    accept goes to ``_checked_entry_arrays``, which names the bad entry.
    """
    if set(map(type, entries)) != {dict}:
        return None
    try:
        values = [entry["value"] for entry in entries]
    except KeyError:
        return None
    return _column_arrays(values, [entry.get("multiplicity", 1) for entry in entries])


def _column_arrays(values: list, mults: list):
    """Value and multiplicity arrays when the columns are well typed, else None."""
    # exact types: bool, an int subclass, fails both tests
    if not set(map(type, values)) <= {float, int} or set(map(type, mults)) != {int}:
        return None
    try:
        return np.array(values, dtype=np.float64), np.array(mults, dtype=np.int64)
    except OverflowError:  # an integer beyond the storage range
        return None


def _checked_entry_arrays(entries: list):
    """Value and multiplicity arrays, checking one entry at a time."""
    values = np.empty(len(entries), dtype=np.float64)
    mults = np.empty(len(entries), dtype=np.int64)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "value" not in entry:
            raise SpectrumFormatError(f"entries[{i}]: expected an object with a 'value' field")
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SpectrumFormatError(f"entries[{i}].value: expected a number, got {value!r}")
        try:
            values[i] = value
        except OverflowError:  # an integer beyond the double range
            raise ValidationError(f"entries[{i}].value: must be finite, got {value!r}") from None
        mult = entry.get("multiplicity", 1)
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise SpectrumFormatError(f"entries[{i}].multiplicity: expected an integer, got {mult!r}")
        if not -(2**63) <= mult < 2**63:
            raise ValidationError(f"entries[{i}].multiplicity: must be >= 1 and < 2**63, got {mult!r}")
        mults[i] = mult
    return values, mults


def save_spectrum(s: Spectrum, path) -> None:
    """Write a spectrum as JSON; values round-trip exactly (repr precision).

    The bytes are those of ``json.dump(..., indent=1)`` plus a newline, with
    the entries formatted directly, one ``%`` operation per chunk: the
    stdlib encoder is pure Python whenever ``indent`` is set, and ``%r`` of
    a float is the ``repr`` that ``json.dumps`` writes.
    """
    header = json.dumps(
        {"label": s.label, "generator": s.generator, "cutoff": s.coverage}, indent=1
    )
    entry = '  {\n   "value": %r,\n   "multiplicity": %d\n  }'
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        # the header object without its closing "\n}", then the entries list
        handle.write(header[:-2] + ',\n "entries": [\n')
        for start in range(0, s.values.size, SAVE_CHUNK):
            values = s.values[start : start + SAVE_CHUNK].tolist()
            fields = [None] * (2 * len(values))
            fields[0::2] = values
            fields[1::2] = s.multiplicities[start : start + SAVE_CHUNK].tolist()
            if start:
                handle.write(",\n")
            handle.write(",\n".join([entry] * len(values)) % tuple(fields))
        handle.write("\n ]\n}\n")


class _OffLayout(Exception):
    """A file departs from save_spectrum's layout; the message says where."""


def load_spectrum(path) -> Spectrum:
    """Read a spectrum file: one in save_spectrum's layout a block of entries
    at a time, so memory stays near the size of the result, any other with
    ``json.load``, which gives the same spectrum, warnings or errors."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        try:
            header, values, mults = _read_saved_layout(handle)
        except (_OffLayout, UnicodeDecodeError) as exc:
            reason = str(exc)
        else:
            logger.debug("%s: read in the saved layout", path)
            return _file_spectrum(header, values, mults)
        logger.debug("%s: read with json.load, %s", path, reason)
        if handle.seekable():  # nothing was read from one that is not
            handle.seek(0)
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpectrumFormatError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(payload, dict):
        raise SpectrumFormatError("top-level JSON value must be an object")
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise SpectrumFormatError("entries: must be a non-empty list")
    return _file_spectrum(payload, *(_entry_arrays(entries) or _checked_entry_arrays(entries)))


def _read_saved_layout(handle):
    """Header, value array and multiplicity array of a file save_spectrum wrote.

    The header is the lines before ``"entries"``, parsed with an empty list
    put in.  The entries are read ``_READ_SIZE`` characters at a time and
    cut at the last entry separator.  Raises ``_OffLayout`` at the first
    departure from the layout.
    """
    if not handle.seekable():  # a pipe: json.load must get the whole text
        raise _OffLayout("the file cannot be read twice")
    if handle.read(2) != "{\n":
        raise _OffLayout("line 1 is not '{'")
    head = ["{\n"]
    while (line := handle.readline()) != ' "entries": [\n':
        if not line:
            raise _OffLayout("no line ' \"entries\": ['")
        head.append(line)
    try:
        header = json.loads("".join(head) + ' "entries": []\n}')
    except ValueError:
        raise _OffLayout("the lines before 'entries' are not a JSON object head") from None
    opening = '  {\n   "value": '
    if handle.read(len(opening)) != opening:
        raise _OffLayout("the entries list does not open with a value")
    separator = '\n  },\n  {\n   "value": '
    end = "\n  }\n ]\n}\n"
    values, mults = [], []
    text = ""
    while True:
        data = handle.read(_READ_SIZE)
        text += data
        if data:
            # what was left of the last read holds no separator
            cut = text.rfind(separator, max(0, len(text) - len(data) - len(separator)))
            if cut < 0:
                continue
            block, text = text[:cut], text[cut + len(separator) :]
        elif text.endswith(end):
            block = text[: -len(end)]
        else:
            raise _OffLayout("the file does not end as the layout does")
        columns = _layout_block(block, separator)
        if columns is None:
            raise _OffLayout(f"block {len(values) + 1} off layout")
        values.append(columns[0])
        mults.append(columns[1])
        if not data:
            return header, np.concatenate(values), np.concatenate(mults)


def _layout_block(block: str, separator: str):
    """Value and multiplicity arrays of a block of entries, else None.

    The block runs from the first value to the last multiplicity.  It becomes
    the flat JSON array [v, m, null, v, m, null, ..., v, m] for
    ``json.loads``, the number parser of the json path.  With k
    multiplicity keys, k - 1 separators, 3k - 1 items, null at every third
    and numbers elsewhere, the block holds no other comma, so each item is
    the whole text of one field and json.load would read the same entries.
    """
    key = ',\n   "multiplicity": '
    flat = block.replace(key, ",")
    k = (len(block) - len(flat)) // (len(key) - 1)
    try:
        items = json.loads("[" + flat.replace(separator, ",null,") + "]")
    except ValueError:
        return None
    if (
        len(items) != 3 * k - 1
        or block.count(separator) != k - 1
        or items[2::3].count(None) != k - 1
    ):
        return None
    return _column_arrays(items[0::3], items[1::3])
