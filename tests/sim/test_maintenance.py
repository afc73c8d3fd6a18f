"""Tests for budgeted maintenance: budgets, rounds, repair cursor, scheduler."""

from __future__ import annotations

import random

import pytest

from repro.baselines.mercury import MercuryService
from repro.overlay.chord import ChordRing
from repro.sim.durability import successor_replication
from repro.sim.engine import Simulator
from repro.sim.invariants import (
    check_overlay,
    check_replica_placement,
    directory_census,
    install_churn_guards,
)
from repro.sim.maintenance import (
    DEFAULT_BUDGET,
    UNLIMITED_BUDGET,
    ZERO_BUDGET,
    MaintenanceBudget,
    MaintenanceRound,
    MaintenanceScheduler,
    repair_buckets,
)
from repro.sim.recovery import replica_deficit


def _spy(obj, name: str) -> list:
    """Wrap ``obj.name`` on the instance; returns the list of the
    positional-argument tuples of every call."""
    calls: list = []
    method = getattr(obj, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return method(*args, **kwargs)

    setattr(obj, name, spy)
    return calls


def _loaded_ring(replication: int = 2) -> ChordRing:
    ring = ChordRing(6, durability=successor_replication(replication))
    ring.build_full()
    for key in range(0, 64, 4):
        ring.store("ns", key, f"v{key}")
    return ring


class TestMaintenanceBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaintenanceBudget(stabilize_nodes=-1)
        with pytest.raises(ValueError):
            MaintenanceBudget(repair_keys=-5)

    def test_unbounded_and_zero_predicates(self):
        assert UNLIMITED_BUDGET.unbounded
        assert not ZERO_BUDGET.unbounded
        assert not DEFAULT_BUDGET.unbounded
        # A partially capped budget is not unbounded.
        mixed = MaintenanceBudget(stabilize_nodes=None, refresh_nodes=0, repair_keys=4)
        assert not mixed.unbounded


class TestRepairBuckets:
    def test_budget_zero_is_noop_and_keeps_cursor(self):
        ring = _loaded_ring()
        ring.fail(20)
        cursor = ("ns", 8)
        progress = repair_buckets(ring, budget=0, after=cursor)
        assert progress.copies_moved == 0
        assert progress.next_after == cursor
        assert progress.next_after is not None

    def test_negative_budget_rejected(self):
        ring = _loaded_ring()
        with pytest.raises(ValueError):
            repair_buckets(ring, budget=-1)

    def test_unbounded_sweep_matches_global_repair(self):
        ring = _loaded_ring()
        before = directory_census(ring)
        ring.fail(20)
        progress = repair_buckets(ring, budget=None)
        assert progress.next_after is None
        check_replica_placement(ring)
        assert directory_census(ring) == before

    def test_bounded_passes_resume_via_cursor_until_done(self):
        ring = _loaded_ring()
        before = directory_census(ring)
        r = random.Random(1)
        for _ in range(4):
            ring.fail(r.choice(ring.node_ids))
        cursor = None
        passes = 0
        while True:
            progress = repair_buckets(ring, budget=5, after=cursor)
            # Census is conserved even mid-sweep (strays drop only after
            # their copies are merged onto the replica set).
            assert directory_census(ring) == before
            passes += 1
            if progress.next_after is None:
                break
            cursor = progress.next_after
        assert passes == 4  # ceil(16 buckets / 5 per pass)
        check_replica_placement(ring)

    def test_clean_bucket_costs_no_messages(self):
        ring = _loaded_ring()
        baseline = ring.network.stats.maintenance_messages
        progress = repair_buckets(ring, budget=None)
        assert progress.copies_moved == 0
        assert ring.network.stats.maintenance_messages == baseline

    def test_repair_traffic_is_counted(self):
        ring = _loaded_ring()
        ring.fail(20)  # crash-time neighbourhood repair counts separately
        baseline = ring.network.stats.maintenance_messages
        progress = repair_buckets(ring, budget=None)
        assert progress.copies_moved > 0
        assert (
            ring.network.stats.maintenance_messages
            == baseline + progress.copies_moved
        )


class TestMaintenanceRound:
    def test_unlimited_round_is_the_seed_sweep(self):
        ring = _loaded_ring()
        before = directory_census(ring)
        r = random.Random(2)
        for _ in range(5):
            ring.fail(r.choice(ring.node_ids))
        round_ = MaintenanceRound(ring)
        steps = _spy(ring, "stabilize_step") + _spy(ring, "repair_replication_step")
        assert round_.run(UNLIMITED_BUDGET) > 0  # copies moved
        assert steps == []  # the global sweeps, not the per-node steps
        check_overlay(ring)
        check_replica_placement(ring)
        assert directory_census(ring) == before
        assert replica_deficit(ring) == 0

    def test_zero_round_does_nothing(self):
        ring = _loaded_ring()
        ring.fail(20)
        deficit = replica_deficit(ring)
        assert deficit > 0
        round_ = MaintenanceRound(ring)
        stats_before = ring.network.stats.snapshot()
        stabilized = _spy(ring, "stabilize_step")
        refreshed = _spy(ring, "refresh_routing_step")
        assert round_.run(ZERO_BUDGET) == 0
        assert stabilized == refreshed == []
        assert ring.network.stats.snapshot() == stats_before
        assert replica_deficit(ring) == deficit  # the fault never heals

    def test_bounded_rounds_eventually_repair(self):
        ring = _loaded_ring()
        r = random.Random(3)
        for _ in range(5):
            ring.fail(r.choice(ring.node_ids))
        assert replica_deficit(ring) > 0
        round_ = MaintenanceRound(ring)
        budget = MaintenanceBudget(stabilize_nodes=8, refresh_nodes=8, repair_keys=5)
        for _ in range(8):
            round_.run(budget)
        assert replica_deficit(ring) == 0
        check_replica_placement(ring)

    def test_round_robin_refresh_covers_every_node(self):
        ring = _loaded_ring()
        round_ = MaintenanceRound(ring)
        budget = MaintenanceBudget(stabilize_nodes=0, refresh_nodes=7, repair_keys=0)
        refreshed = _spy(ring, "refresh_routing_step")
        rounds = -(-ring.num_nodes // 7)  # ceil
        for i in range(rounds):
            round_.run(budget)
            assert len(refreshed) == 7 * (i + 1)  # the cap, every round
        assert {node.uid for (node,) in refreshed} == {node.uid for node in ring.nodes()}

    def test_stabilize_step_counts_maintenance_traffic(self):
        ring = _loaded_ring()
        baseline = ring.network.stats.maintenance_messages
        round_ = MaintenanceRound(ring)
        budget = MaintenanceBudget(stabilize_nodes=4, refresh_nodes=0, repair_keys=0)
        stabilized = _spy(ring, "stabilize_step")
        round_.run(budget)
        assert len(stabilized) == 4
        assert ring.network.stats.maintenance_messages == baseline + 4


def _clocked_rounds(service, sim: Simulator) -> list[float]:
    """Record the simulated time of every ``service.stabilize`` call."""
    times: list[float] = []
    stabilize = service.stabilize

    def clocked(budget=None):
        times.append(sim.now)
        return stabilize(budget)

    service.stabilize = clocked
    return times


class TestMaintenanceScheduler:
    def _service(self, schema, workload) -> MercuryService:
        service = MercuryService.build(6, 24, schema, seed=11, durability=successor_replication(2))
        for info in workload.resource_infos():
            service.register(info, routed=False)
        return service

    def test_interval_validation(self, schema, workload):
        service = self._service(schema, workload)
        with pytest.raises(ValueError):
            MaintenanceScheduler(service, interval=0.0)

    def test_install_tick_cadence(self, schema, workload):
        service = self._service(schema, workload)
        scheduler = MaintenanceScheduler(service, interval=5.0)
        sim = Simulator()
        ticks = _clocked_rounds(service, sim)
        assert scheduler.install(sim, horizon=20.0) == 4
        sim.run()
        assert ticks == [5.0, 10.0, 15.0, 20.0]
        assert scheduler.copies_moved == 0  # nothing crashed

    def test_first_round_is_one_full_interval_out(self, schema, workload):
        # Faults at t=0 must not be healed for free at t=0.
        service = self._service(schema, workload)
        scheduler = MaintenanceScheduler(service, interval=5.0)
        sim = Simulator()
        ticks = _clocked_rounds(service, sim)
        sim.run_until(2.0)
        scheduler.install(sim, horizon=8.0)
        sim.run()
        assert ticks == [7.0]

    def test_budgeted_round_passes_churn_guard(self, schema, workload):
        service = self._service(schema, workload)
        guard = install_churn_guards(service)
        assert service.churn_fail()
        events_after_fail = guard.events
        scheduler = MaintenanceScheduler(service, interval=1.0)
        sim = Simulator()
        scheduler.install(sim, horizon=6.0)
        sim.run()  # a guard violation would raise here
        assert guard.events > events_after_fail
        assert replica_deficit(service.ring) == 0
