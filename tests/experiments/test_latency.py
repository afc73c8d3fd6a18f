"""Tests for the latency extension figure."""

from __future__ import annotations

import pytest

from repro.experiments.latency import run_latency


@pytest.fixture(scope="module")
def figure(tiny_config):
    return run_latency(tiny_config)


class TestLatencyFigure:
    def test_all_approaches_present(self, figure):
        assert set(figure.curve_names) == {"LORM", "Mercury", "SWORD", "MAAN"}

    def test_ordering_sword_lorm_then_systemwide(self, figure):
        for i in range(len(figure.curve("LORM").x)):
            assert figure.curve("SWORD").y[i] <= figure.curve("LORM").y[i]
            assert figure.curve("LORM").y[i] < figure.curve("Mercury").y[i]
            assert figure.curve("Mercury").y[i] <= figure.curve("MAAN").y[i] * 1.1

    def test_parallelism_bounds_growth(self, figure):
        """Latency = max over parallel sub-queries, so going from 1 to 3
        attributes must grow latency far less than 3x."""
        lorm = figure.curve("LORM").y
        assert lorm[2] < 2.0 * lorm[0]

    def test_latencies_positive_and_finite(self, figure):
        for curve in figure.curves:
            assert all(0 < v < 1e6 for v in curve.y)

    def test_renders_log_scale(self, figure):
        assert figure.log_y
        assert "(log y)" in figure.to_ascii_chart()
