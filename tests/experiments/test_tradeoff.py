"""Tests for the lookup-vs-maintenance tradeoff experiment."""

from __future__ import annotations

import pytest

from repro.experiments import tradeoff
from repro.experiments.config import SMOKE_CONFIG, ExperimentConfig
from repro.experiments.tradeoff import (
    SINGLEHOP_MEAN_HOPS_GATE,
    TradeoffCell,
    TradeoffResult,
    overlay_points,
    run_tradeoff,
)

TINY = SMOKE_CONFIG.scaled(
    num_attributes=6,
    infos_per_attribute=10,
    tradeoff_queries=12,
    tradeoff_churn_events=4,
    tradeoff_fanouts=(1, 2),
)


def _cell(overlay, budget="unlimited", system="MAAN", mean_hops=1.0,
          maintenance=5.0, verified=True):
    return TradeoffCell(
        overlay=overlay,
        budget=budget,
        system=system,
        mean_hops=mean_hops,
        max_hops=int(mean_hops) + 1,
        mean_latency=mean_hops * 0.05,
        maintenance_per_event=maintenance,
        retries=0,
        queries=12,
        lookups=12,
        verified=verified,
    )


def _result(singlehop_hops=1.0, record_means=(4.0, 3.0), verified=True):
    config = ExperimentConfig(tradeoff_fanouts=(1, 2))
    result = TradeoffResult(config=config, systems=("MAAN",))
    result.cells.append(_cell("chord", mean_hops=4.5))
    for fanout, mean in zip((1, 2), record_means):
        result.cells.append(_cell(f"record:f{fanout}", mean_hops=mean))
    result.cells.append(
        _cell("singlehop", mean_hops=singlehop_hops, verified=verified)
    )
    return result


class TestVerdict:
    def test_curve_within_gate_passes(self):
        assert _result().ok

    def test_singlehop_over_gate_fails(self):
        assert not _result(singlehop_hops=SINGLEHOP_MEAN_HOPS_GATE + 0.1).ok

    def test_unverified_singlehop_traces_fail(self):
        assert not _result(verified=False).ok

    def test_non_monotone_record_curve_fails(self):
        assert not _result(record_means=(3.0, 4.0)).ok

    def test_missing_verdict_cells_fail(self):
        result = _result()
        result.cells = [c for c in result.cells if c.overlay != "singlehop"]
        assert not result.ok

    def test_empty_sweep_fails(self):
        assert not TradeoffResult(
            config=ExperimentConfig(), systems=("MAAN",)
        ).ok


class TestOverlayPoints:
    def test_points_ordered_cheap_to_costly(self):
        labels = [p[0] for p in overlay_points(TINY)]
        assert labels == ["chord", "record:f1", "record:f2", "singlehop"]

    def test_unknown_point_raises_with_valid_choices(self):
        with pytest.raises(ValueError, match="singlehop"):
            run_tradeoff(TINY, overlays=("warp-drive",))


class TestSweep:
    @pytest.fixture(scope="class")
    def result(self):
        """The sweep at the unlimited budget alone."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tradeoff, "BUDGETS", {"unlimited": tradeoff.BUDGETS["unlimited"]})
            return run_tradeoff(TINY, systems=("MAAN",))

    def test_every_point_measured_for_every_budget(self, result):
        expected = {(label, "unlimited", "MAAN") for label, _, _ in overlay_points(TINY)}
        got = {(c.overlay, c.budget, c.system) for c in result.cells}
        assert got == expected

    def test_verdict_holds_at_tiny_scale(self, result):
        assert result.ok
        cell = result.cell("singlehop", "unlimited", "MAAN")
        assert cell.mean_hops <= SINGLEHOP_MEAN_HOPS_GATE
        assert cell.verified

    def test_cells_carry_complete_measurements(self, result):
        for cell in result.cells:
            assert cell.lookups > 0
            assert cell.maintenance_per_event >= 0.0
            assert cell.mean_latency == pytest.approx(cell.mean_hops * 0.05)

    def test_render_names_the_verdict(self, result):
        text = result.render()
        assert "verdict: ok" in text
        assert "singlehop" in text

