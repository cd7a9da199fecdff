"""Experiment result container and table formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["ExperimentResult", "format_table"]


@dataclass(slots=True)
class ExperimentResult:
    """One experiment's output: an id, a table, and free-form notes."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Optional figure declaration: (x_column, [y_columns], log_x) —
    #: rendered by repro.bench.figures.render_result_figure.
    figure: tuple[str, list[str], bool] | None = None

    def add_row(self, **values: Any) -> None:
        """Append one table row (keys must match ``columns``)."""
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns {sorted(missing)}")
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        """One column as a list (series view for figures)."""
        return [row[name] for row in self.rows]

    def note(self, text: str) -> None:
        """Attach a free-form observation printed under the table."""
        self.notes.append(text)

    def render(self) -> str:
        """The full printable block: header, table, notes."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_table(self.columns, self.rows))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """Fixed-width text table."""
    cells = [[_format_cell(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.rjust(w) for col, w in zip(columns, widths))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join([header, separator, *body])
