"""Experiment results: structured data + CSV + text rendering.

A :class:`FigureResult` carries every curve of one paper figure (measured
and analysis-derived), knows the paper's qualitative expectation for that
figure, and renders itself as an aligned table, an ASCII chart, and a CSV
file under ``results/``.  A :class:`CellTable` is the sweep counterpart:
one cell dataclass per measured point, rendered through a column
list, with the experiment's pass/fail verdict as the only code a
subclass has to bring.  Every result persists through
:func:`write_result`, so ``<stem>.csv`` + ``<stem>.txt`` is written in
exactly one place.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

from repro.analysis.models import AnalysisCurve
from repro.experiments.config import ExperimentConfig
from repro.plotting.ascii import ascii_chart
from repro.utils.formatting import render_table
from repro.utils.validation import require

__all__ = [
    "CellTable",
    "DistributionResult",
    "DistributionRow",
    "FigureResult",
    "with_notes",
    "write_result",
]


def _finite_or_empty(value: float) -> float | str:
    """A CSV cell: the value itself, or an empty cell for NaN/inf."""
    return value if math.isfinite(value) else ""


def write_result(directory: str | Path, stem: str, csv_text: str, text: str) -> Path:
    """Write ``<stem>.csv`` and ``<stem>.txt`` (``text`` plus a final
    newline) under ``directory``, creating it; returns the CSV path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{stem}.csv"
    csv_path.write_text(csv_text)
    (directory / f"{stem}.txt").write_text(text + "\n")
    return csv_path


def with_notes(text: str, notes: Sequence[str]) -> str:
    """``text`` followed by a blank line and one ``note:`` line per note."""
    if not notes:
        return text
    return text + "\n\n" + "\n".join(f"note: {note}" for note in notes)


@dataclass
class CellTable:
    """A sweep result: one cell dataclass per measured point, plus notes.

    Subclasses declare the class attributes below and their verdict
    (``ok`` and :meth:`verdict_lines`); lookup, table, text report, CSV
    and persistence are shared.
    """

    config: ExperimentConfig
    cells: list = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    #: File stem of the saved artifacts (``<name>.csv`` / ``<name>.txt``).
    name: ClassVar[str]
    #: Table title.
    title: ClassVar[str]
    #: The cell dataclass; its field order is the CSV column order.
    cell_type: ClassVar[type]
    #: The cell fields :meth:`cell` looks a point up by, in argument order.
    key_fields: ClassVar[tuple[str, ...]]
    #: ``(header, cell -> text)`` per table column.
    columns: ClassVar[tuple[tuple[str, Callable[[Any], str]], ...]]

    def cell(self, *key: Any) -> Any:
        """The cell whose :attr:`key_fields` equal ``key``."""
        for c in self.cells:
            if tuple(getattr(c, name) for name in self.key_fields) == key:
                return c
        raise KeyError(f"no cell ({', '.join(str(k) for k in key)})")

    def table(self) -> str:
        """Aligned text table, one row per cell."""
        return render_table(
            [header for header, _ in self.columns],
            [[fmt(c) for _, fmt in self.columns] for c in self.cells],
            title=self.title,
        )

    def verdict_lines(self) -> list[str]:
        """The lines between the table and the notes (none by default)."""
        return []

    def render(self) -> str:
        """Full text report: table, verdict lines and notes."""
        out = self.table()
        lines = self.verdict_lines()
        if lines:
            out += "\n\n" + "\n".join(lines)
        return with_notes(out, self.notes)

    def to_csv(self) -> str:
        """One CSV row per cell; the header is the cell dataclass's fields."""
        names = [f.name for f in dataclasses.fields(self.cell_type)]
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(names)
        for c in self.cells:
            writer.writerow([getattr(c, name) for name in names])
        return buffer.getvalue()

    def save(self, directory: str | Path) -> Path:
        """Write ``<name>.csv`` + ``<name>.txt`` under ``directory``."""
        return write_result(directory, self.name, self.to_csv(), self.render())


@dataclass
class FigureResult:
    """All series of one figure, plus labels and provenance metadata."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    curves: list[AnalysisCurve] = field(default_factory=list)
    log_y: bool = False
    #: Free-form notes (workload parameters, paper-expectation check).
    notes: list[str] = field(default_factory=list)

    def add(self, curve: AnalysisCurve) -> None:
        """Append one series."""
        self.curves.append(curve)

    def curve(self, name: str) -> AnalysisCurve:
        """The series named ``name``."""
        for c in self.curves:
            if c.name == name:
                return c
        raise KeyError(f"{self.figure_id}: no curve named {name!r}; "
                       f"have {[c.name for c in self.curves]}")

    @property
    def curve_names(self) -> list[str]:
        """All series names in insertion order."""
        return [c.name for c in self.curves]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Wide CSV: one x column, one column per series."""
        require(bool(self.curves), f"{self.figure_id}: no curves to render")
        xs = sorted({x for c in self.curves for x in c.x})
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow([self.x_label] + self.curve_names)
        lookup = [dict(zip(c.x, c.y)) for c in self.curves]
        for x in xs:
            writer.writerow(
                [x] + [table.get(x, "") for table in lookup]
            )
        return buffer.getvalue()

    def to_table(self) -> str:
        """Aligned text table of all series."""
        xs = sorted({x for c in self.curves for x in c.x})
        lookup = [dict(zip(c.x, c.y)) for c in self.curves]
        rows = [
            [x] + [table.get(x, float("nan")) for table in lookup] for x in xs
        ]
        return render_table(
            [self.x_label] + self.curve_names,
            rows,
            title=f"{self.figure_id}: {self.title}",
        )

    def to_ascii_chart(self, width: int = 64, height: int = 16) -> str:
        """ASCII chart of all series."""
        series = {c.name: (list(c.x), list(c.y)) for c in self.curves}
        return ascii_chart(
            series,
            title=f"{self.figure_id}: {self.title}",
            width=width,
            height=height,
            log_y=self.log_y,
            x_label=self.x_label,
            y_label=self.y_label,
        )

    def render(self) -> str:
        """Full text report: table, chart and notes."""
        return with_notes(
            self.to_table() + "\n\n" + self.to_ascii_chart(), self.notes
        )

    def save(self, directory: str | Path) -> Path:
        """Write ``<figure_id>.csv`` and ``<figure_id>.txt`` under
        ``directory``; returns the CSV path."""
        return write_result(directory, self.figure_id, self.to_csv(), self.render())


@dataclass(frozen=True)
class DistributionRow:
    """One series of a percentile figure: mean with 1st/99th percentiles."""

    name: str
    mean: float
    p01: float
    p99: float


@dataclass
class DistributionResult:
    """A percentile-bar figure (Figure 3b/c/d): per-approach mean + 1st/99th.

    The paper plots, for each approach (and its analysis derivation), the
    average directory size together with the 1st and 99th percentiles.
    """

    figure_id: str
    title: str
    value_label: str
    rows: list[DistributionRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, mean: float, p01: float, p99: float) -> None:
        """Append one series row."""
        self.rows.append(DistributionRow(name, mean, p01, p99))

    def add_summary(self, name: str, summary: "object") -> None:
        """Append a row from a :class:`~repro.sim.metrics.SummaryStats`."""
        self.add(name, summary.mean, summary.p01, summary.p99)  # type: ignore[attr-defined]

    def row(self, name: str) -> DistributionRow:
        """The row named ``name``."""
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"{self.figure_id}: no row named {name!r}")

    def to_csv(self) -> str:
        """CSV with columns series,mean,p01,p99.

        Non-finite statistics (an empty measured series) emit as empty
        cells rather than ``nan`` tokens, so downstream CSV/JSON
        consumers never see NaN.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["series", "mean", "p01", "p99"])
        for r in self.rows:
            writer.writerow([r.name] + [_finite_or_empty(v) for v in (r.mean, r.p01, r.p99)])
        return buffer.getvalue()

    def to_table(self) -> str:
        """Aligned text table (empty-series statistics render as ``-``)."""
        return render_table(
            ["series", f"mean {self.value_label}", "p01", "p99"],
            [
                [r.name]
                + [v if math.isfinite(v) else "-" for v in (r.mean, r.p01, r.p99)]
                for r in self.rows
            ],
            title=f"{self.figure_id}: {self.title}",
        )

    def render(self) -> str:
        """Full text report."""
        return with_notes(self.to_table(), self.notes)

    def save(self, directory: str | Path) -> Path:
        """Write CSV and text renderings; returns the CSV path."""
        return write_result(directory, self.figure_id, self.to_csv(), self.render())
