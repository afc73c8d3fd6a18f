"""Tests for text formatting helpers."""

from __future__ import annotations

from repro.utils.formatting import format_count, format_float, render_table


class TestFormatFloat:
    def test_trims_trailing_zeros(self):
        assert format_float(1.5) == "1.5"
        assert format_float(2.0) == "2"

    def test_small_magnitudes_use_scientific(self):
        assert "e" in format_float(1.2e-7)

    def test_large_magnitudes_use_scientific(self):
        assert "e" in format_float(3.2e9)

    def test_nan(self):
        assert format_float(float("nan")) == "nan"

    def test_zero(self):
        assert format_float(0.0) == "0"


class TestFormatCount:
    def test_thousands_separators(self):
        assert format_count(1234567) == "1,234,567"

    def test_small(self):
        assert format_count(7) == "7"


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        out = render_table(["name", "value"], [["alpha", 1], ["beta", 22]])
        assert "name" in out and "alpha" in out and "22" in out

    def test_title_prepended(self):
        out = render_table(["h"], [["x"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_columns_aligned(self):
        out = render_table(["h1", "h2"], [["a", 1], ["bbbb", 22]])
        lines = out.splitlines()
        # All rows have the same width.
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_floats_formatted(self):
        out = render_table(["v"], [[2.0]])
        assert "2" in out and "2.000" not in out

    def test_empty_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out
