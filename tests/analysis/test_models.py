"""Tests for analysis-curve derivation."""

from __future__ import annotations

import pytest

from repro.analysis.models import AnalysisCurve, derive_curve


@pytest.fixture
def measured() -> AnalysisCurve:
    return AnalysisCurve("MAAN", (1.0, 2.0, 3.0), (10.0, 20.0, 30.0))


class TestAnalysisCurve:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AnalysisCurve("bad", (1.0,), (1.0, 2.0))


class TestDerive:
    def test_divide(self, measured):
        derived = derive_curve("Analysis-LORM", measured, divide_by=2.0)
        assert derived.y == (5.0, 10.0, 15.0)
        assert derived.x == measured.x

    def test_zero_divide_rejected(self, measured):
        with pytest.raises(ValueError):
            derive_curve("x", measured, divide_by=0.0)

    def test_paper_fig3a_construction(self, measured):
        """'Analysis>LORM' is Mercury's measured curve divided by m."""
        mercury = AnalysisCurve("Mercury", (1.0, 2.0), (2200.0, 2400.0))
        analysis = derive_curve("Analysis>LORM", mercury, divide_by=200.0)
        assert analysis.y == (11.0, 12.0)
