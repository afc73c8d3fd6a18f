"""Tests for the recovery experiment (chaos timelines × budgeted maintenance)."""

from __future__ import annotations

import math

import pytest

from repro.experiments import recovery
from repro.experiments.config import SMOKE_CONFIG
from repro.experiments.recovery import run_chaos_demo, run_recovery
from repro.experiments.runner import FIGURES

SYSTEMS = ("LORM", "Mercury", "SWORD", "MAAN")

#: The demo at reduced load: same population and scenario shape as smoke
#: (so the crash burst still hits data holders), lighter probing.
TINY = SMOKE_CONFIG.scaled(
    infos_per_attribute=25,
    num_recovery_queries=6,
    maintenance_intervals=(2.0,),
    recovery_churn_rates=(0.0,),
)


@pytest.fixture(scope="module", autouse=True)
def _sparse_sampling():
    """Lighter probing still: a health sample every 4 s, not every 2 s."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "SAMPLE_INTERVAL", 4.0)
        yield


@pytest.fixture(scope="module")
def demo():
    return run_chaos_demo(TINY)


class TestChaosDemo:
    def test_acceptance_contract_holds(self, demo):
        assert demo.ok

    def test_budgeted_runs_reconverge_with_finite_ttr(self, demo):
        assert set(demo.budgeted) == set(SYSTEMS)
        for name in SYSTEMS:
            tracker = demo.budgeted[name]
            assert tracker.reconverged, name
            assert math.isfinite(tracker.time_to_reconverge()), name

    def test_zero_budget_control_stays_broken(self, demo):
        assert set(demo.unbudgeted) == set(SYSTEMS)
        for name in SYSTEMS:
            tracker = demo.unbudgeted[name]
            assert not tracker.reconverged, name
            # The crash burst's replica deficit persists to the horizon.
            assert tracker.samples[-1].replica_deficit > 0, name

    def test_availability_dips_during_faults(self, demo):
        for name in SYSTEMS:
            timeline = demo.budgeted[name].availability_timeline()
            assert timeline[0][1] == 1.0, name  # healthy before the chaos
            assert min(a for _, a in timeline) < 1.0, name
            assert timeline[-1][1] == 1.0, name  # healed by the horizon

    def test_figure_carries_one_timeline_per_system(self, demo):
        assert demo.figure.figure_id == "chaos"
        assert demo.figure.curve_names == list(SYSTEMS)
        assert demo.figure.notes

    def test_fault_accounting_published(self, demo):
        for name in SYSTEMS:
            tracker = demo.budgeted[name]
            # The partition forced drops, and the network counted them.
            assert tracker.overlay.network.stats.dropped > 0, name

    def test_slo_table_lists_both_regimes(self, demo):
        table = demo.slo_table()
        for name in SYSTEMS:
            assert name in table
        assert "never" in table  # the budget=0 column

    def test_save_writes_artifacts(self, demo, tmp_path):
        demo.save(tmp_path)
        assert (tmp_path / "chaos.csv").exists()
        assert (tmp_path / "chaos_slo.txt").exists()

    def test_render_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(recovery, "SAMPLE_INTERVAL", 8.0)
        fast = TINY.scaled(num_recovery_queries=4)
        assert run_chaos_demo(fast).render() == run_chaos_demo(fast).render()


class TestRunRecovery:
    def test_figure_shape_and_registration(self, monkeypatch):
        monkeypatch.setattr(recovery, "SAMPLE_INTERVAL", 8.0)
        config = TINY.scaled(num_recovery_queries=4)
        figure = run_recovery(config)
        assert "recovery" in FIGURES
        assert figure.curve_names == [f"{name} R=0" for name in SYSTEMS]
        for curve in figure.curves:
            assert list(curve.x) == [2.0]
            assert all(t > 0 for t in curve.y)
        assert figure.notes
