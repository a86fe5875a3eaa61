"""Rendering sweep aggregates back into the paper's printed tables.

One :class:`Table` is one printed grid — title, headers, rows — the
unit the golden-parity suite snapshots.  :func:`render_table` is the
single formatting implementation shared by ``benchmarks/bench_catalog.py``
(which prints and archives tables) and ``tests/sweeps`` (which compares
rendered bytes against ``tests/golden/``), so a catalog-ported
benchmark is byte-identical to its legacy output exactly when its
:class:`Table` values are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Table", "render_table", "fmt"]


@dataclass(frozen=True)
class Table:
    """One printed table: the structured form of a figure's rows."""

    title: str
    headers: list
    rows: list = field(default_factory=list)

    def render(self) -> str:
        return render_table(self.title, self.headers, self.rows)


def render_table(title: str, headers: Sequence, rows: Sequence) -> str:
    """The benchmarks' aligned-table format (shared, byte-stable)."""
    widths = [
        max([len(str(headers[i]))] + [len(str(r[i])) for r in rows])
        for i in range(len(headers))
    ]
    lines = [f"\n=== {title} ==="]
    header = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def fmt(value, digits=2):
    """``None``-tolerant fixed-point formatting (the benchmarks' idiom)."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"
