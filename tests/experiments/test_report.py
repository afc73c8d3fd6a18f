"""Tests for figure rendering (CSV, tables, charts, persistence)."""

from __future__ import annotations

import csv
import dataclasses

import pytest

from repro.analysis.models import AnalysisCurve
from repro.experiments.config import SMOKE_CONFIG
from repro.experiments.durability import DurabilityResult
from repro.experiments.hotspot import HotspotResult
from repro.experiments.report import CellTable, DistributionResult, FigureResult
from repro.experiments.tail import TailResult
from repro.experiments.tradeoff import TradeoffResult


def make_figure() -> FigureResult:
    fig = FigureResult(
        figure_id="figX",
        title="Demo",
        x_label="x",
        y_label="y",
    )
    fig.add(AnalysisCurve("a", (1.0, 2.0), (10.0, 20.0)))
    fig.add(AnalysisCurve("b", (1.0, 2.0), (1.0, 2.0)))
    return fig


class TestFigureResult:
    def test_curve_lookup(self):
        fig = make_figure()
        assert fig.curve("a").y == (10.0, 20.0)

    def test_unknown_curve_raises(self):
        fig = make_figure()
        try:
            fig.curve("zzz")
            raise AssertionError("expected KeyError")
        except KeyError as err:
            assert "figX" in str(err)

    def test_csv_shape(self):
        lines = make_figure().to_csv().strip().splitlines()
        assert lines[0] == "x,a,b"
        assert lines[1].startswith("1.0,")
        assert len(lines) == 3

    def test_csv_handles_disjoint_x(self):
        fig = make_figure()
        fig.add(AnalysisCurve("c", (3.0,), (5.0,)))
        lines = fig.to_csv().strip().splitlines()
        assert len(lines) == 4  # header + x in {1, 2, 3}
        assert lines[-1].startswith("3.0,,")

    def test_table_mentions_everything(self):
        table = make_figure().to_table()
        assert "figX" in table and "a" in table and "20" in table

    def test_render_includes_chart_and_notes(self):
        fig = make_figure()
        fig.notes.append("hello-note")
        out = fig.render()
        assert "hello-note" in out
        assert "[x]" in out  # chart axis label

    def test_save_writes_files(self, tmp_path):
        path = make_figure().save(tmp_path)
        assert path.read_text().startswith("x,a,b")
        assert (tmp_path / "figX.txt").exists()


class TestDistributionResult:
    def make(self) -> DistributionResult:
        dist = DistributionResult(
            figure_id="figD", title="Dist", value_label="pieces"
        )
        dist.add("MAAN", 100.0, 0.0, 900.0)
        dist.add("LORM", 50.0, 10.0, 120.0)
        return dist

    def test_row_lookup(self):
        assert self.make().row("LORM").p99 == 120.0

    def test_unknown_row_raises(self):
        try:
            self.make().row("zzz")
            raise AssertionError("expected KeyError")
        except KeyError:
            pass

    def test_csv(self):
        lines = self.make().to_csv().strip().splitlines()
        assert lines[0] == "series,mean,p01,p99"
        assert len(lines) == 3

    def test_save(self, tmp_path):
        path = self.make().save(tmp_path)
        assert path.name == "figD.csv"
        assert (tmp_path / "figD.txt").read_text().startswith("figD: Dist")

    def test_add_summary(self):
        from repro.sim.metrics import summarize

        dist = DistributionResult("f", "t", "v")
        dist.add_summary("x", summarize([1, 2, 3]))
        assert dist.row("x").mean == 2.0


class TestEmptySeriesEmission:
    """Regression: summarize([]) rows render as empty cells, never 'nan'."""

    def make(self) -> DistributionResult:
        from repro.sim.metrics import summarize

        dist = DistributionResult("figE", "Empty", "pieces")
        dist.add("measured", 4.0, 1.0, 9.0)
        dist.add_summary("empty series", summarize([]))
        return dist

    def test_csv_has_no_nan_tokens(self):
        csv_text = self.make().to_csv()
        assert "nan" not in csv_text.lower()
        lines = csv_text.strip().splitlines()
        assert lines[2] == "empty series,,,"

    def test_table_renders_dashes(self):
        table = self.make().to_table()
        assert "nan" not in table.lower()
        assert "-" in table

    def test_save_roundtrip_is_nan_free(self, tmp_path):
        path = self.make().save(tmp_path)
        assert "nan" not in path.read_text().lower()
        assert "nan" not in (tmp_path / "figE.txt").read_text().lower()


#: One sample value per annotated cell-field type.
_SAMPLE = {"str": "x", "float": 1.5, "int": 2, "bool": True}


def _sample_cell(cell_type, **overrides):
    values = {f.name: _SAMPLE[f.type] for f in dataclasses.fields(cell_type)}
    return cell_type(**{**values, **overrides})


@pytest.mark.parametrize(
    "result",
    [
        TailResult(config=SMOKE_CONFIG),
        HotspotResult(config=SMOKE_CONFIG),
        TradeoffResult(config=SMOKE_CONFIG, systems=("MAAN",)),
        DurabilityResult(config=SMOKE_CONFIG),
    ],
    ids=lambda result: type(result).__name__,
)
class TestCellTableContract:
    """What every sweep result inherits from :class:`CellTable`."""

    @pytest.fixture(autouse=True)
    def _fill(self, result):
        result.cells[:] = [
            _sample_cell(result.cell_type, system="LORM"),
            _sample_cell(result.cell_type, system="MAAN"),
        ]
        result.notes[:] = ["a note"]

    def test_save_contract(self, result, tmp_path):
        csv_path = result.save(tmp_path / "nested" / "dir")
        assert csv_path.name == f"{result.name}.csv"
        with csv_path.open(newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == [f.name for f in dataclasses.fields(result.cell_type)]
        assert rows == [
            [str(getattr(c, name)) for name in header] for c in result.cells
        ]
        text = (csv_path.parent / f"{result.name}.txt").read_text()
        assert text == result.render() + "\n"

    def test_render_is_table_verdict_notes(self, result):
        text = result.render()
        assert text.startswith(result.title + "\n")
        assert text.endswith("\n\nnote: a note")
        assert all(header in text for header, _ in result.columns)
        assert isinstance(result, CellTable) and isinstance(result.ok, bool)

    def test_cell_lookup_by_key_fields(self, result):
        second = result.cells[1]
        key = tuple(getattr(second, name) for name in result.key_fields)
        assert result.cell(*key) is second
        with pytest.raises(KeyError, match="no cell"):
            result.cell(*("missing",) * len(key))
