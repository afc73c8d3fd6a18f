"""Tests for the availability experiment (completeness vs loss × r)."""

from __future__ import annotations

import pytest

from repro.experiments.availability import measure_completeness, run_availability
from repro.experiments.common import build_services
from repro.experiments.config import SMOKE_CONFIG
from repro.experiments.runner import FIGURES, run_figure
from repro.sim.faults import NO_RETRY_POLICY, FaultInjector, FaultPlan
from repro.sim.invariants import overlay_of

TINY = SMOKE_CONFIG.scaled(
    num_attributes=6,
    infos_per_attribute=20,
    loss_rates=(0.0, 0.05),
    availability_replications=(1, 2),
    num_availability_queries=15,
)


@pytest.fixture(scope="module")
def figure():
    return run_availability(TINY)


class TestRunAvailability:
    def test_curve_inventory(self, figure):
        assert figure.figure_id == "availability"
        assert figure.curve_names == [
            f"{name} r={r}"
            for r in (1, 2)
            for name in ("LORM", "Mercury", "SWORD", "MAAN")
        ]

    def test_completeness_is_a_fraction(self, figure):
        for curve in figure.curves:
            assert list(curve.x) == [0.0, 0.05]
            assert all(0.0 <= y <= 1.0 for y in curve.y)

    def test_replication_never_hurts(self, figure):
        for name in ("LORM", "Mercury", "SWORD", "MAAN"):
            y1 = figure.curve(f"{name} r=1").y
            y2 = figure.curve(f"{name} r=2").y
            assert all(a <= b for a, b in zip(y1, y2)), (name, y1, y2)

    def test_registered_in_runner(self):
        assert "availability" in FIGURES

    def test_run_figure_saves_artifacts(self, tmp_path):
        config = TINY.scaled(
            availability_replications=(1,), num_availability_queries=5
        )
        result = run_figure("availability", config, save_dir=tmp_path)
        assert (tmp_path / "availability.csv").exists()
        assert (tmp_path / "availability.txt").exists()
        assert result.notes

    def test_deterministic(self):
        config = TINY.scaled(
            availability_replications=(1,), num_availability_queries=8
        )
        a = run_availability(config)
        b = run_availability(config)
        assert [(c.name, c.x, c.y) for c in a.curves] == [
            (c.name, c.x, c.y) for c in b.curves
        ]


class TestMeasureCompleteness:
    def test_detaches_injector_afterwards(self):
        bundle = build_services(TINY, register=True)
        service = bundle.mercury
        cases = [
            (query, bundle.workload.matching_providers_bruteforce(query))
            for query in bundle.workload.query_stream(5, 2, label="mc-test")
        ]
        injector = FaultInjector(FaultPlan(loss_rate=0.05, seed=1))
        measure_completeness(service, cases, injector)
        assert service.ring.network.faults is None

    def test_brittle_policy_under_heavy_loss_degrades_honestly(self):
        bundle = build_services(TINY, register=True)
        service = bundle.mercury
        cases = [
            (query, bundle.workload.matching_providers_bruteforce(query))
            for query in bundle.workload.query_stream(12, 2, label="mc-heavy")
        ]
        baseline = measure_completeness(service, cases, None)
        assert baseline == 1.0  # no crashes, no loss: everything answered
        injector = FaultInjector(FaultPlan(loss_rate=0.5, seed=2))
        service.ring.lookup_policy = NO_RETRY_POLICY
        degraded = measure_completeness(service, cases, injector)
        assert degraded < baseline  # 50% loss, one shot per hop: no chance
        # And the degradation was *flagged*, not silent: re-attach and
        # check the results announce incompleteness.
        service.configure_faults(
            FaultInjector(FaultPlan(loss_rate=0.5, seed=2)), NO_RETRY_POLICY
        )
        try:
            flagged = [
                service.multi_query(query)
                for query, _ in cases
            ]
        finally:
            service.configure_faults(None)
        wrong = [
            r for r, (q, truth) in zip(flagged, cases) if r.providers != truth
        ]
        assert wrong, "heavy loss should spoil some queries"
        assert all(not r.complete for r in wrong)

    def test_empty_cases(self):
        bundle = build_services(TINY, register=False)
        assert measure_completeness(bundle.lorm, [], None) == 1.0


class TestFaultAccounting:
    """The lookup policy's spend is counted in the network's
    MessageStats, and the figure's note reports it."""

    def _cases(self, bundle, count: int = 12):
        return [
            (query, bundle.workload.matching_providers_bruteforce(query))
            for query in bundle.workload.query_stream(count, 2, label="fa-test")
        ]

    def test_retries_and_timeouts_nonzero_under_loss(self):
        bundle = build_services(TINY, register=True)
        service = bundle.mercury
        injector = FaultInjector(FaultPlan(loss_rate=0.3, seed=9))
        stats = overlay_of(service).network.stats
        before = stats.snapshot()
        measure_completeness(service, self._cases(bundle), injector)
        spend = stats.delta_since(before)
        assert spend.retries > 0
        assert spend.timeouts > 0
        assert spend.dropped > 0

    def test_fault_free_measurement_publishes_nothing(self):
        bundle = build_services(TINY, register=True)
        service = bundle.mercury
        stats = overlay_of(service).network.stats
        before = stats.snapshot()
        measure_completeness(service, self._cases(bundle, count=5), None)
        spend = stats.delta_since(before)
        assert spend.retries == 0
        assert spend.dropped == 0

    def test_figure_notes_report_the_spend(self, figure):
        spend_notes = [n for n in figure.notes if "faults.*" in n]
        assert spend_notes, figure.notes
        for name in ("LORM", "Mercury", "SWORD", "MAAN"):
            assert name in spend_notes[0]
