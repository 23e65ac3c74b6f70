"""Tabular results with deterministic CSV serialization."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path


def _format_cell(value) -> str:
    # 17 significant digits round-trips any double exactly.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


@dataclass
class EvalTable:
    """A grid of abscissae with computed values and per-row diagnostics.

    ``columns`` fixes the CSV header; each row is a tuple in the same
    order.  Serialization is deterministic: fixed column order, floats at
    17 significant digits, no timestamps.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} cells, got {len(row)}")
        self.rows.append(tuple(row))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def write_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(cell) for cell in row])
