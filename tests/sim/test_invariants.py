"""Unit tests for the invariant checkers and the churn guard."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.mercury import MercuryService
from repro.overlay.base import Overlay
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.sim.durability import successor_replication
from repro.sim.invariants import (
    InvariantViolation,
    check_overlay,
    check_replica_placement,
    directory_census,
    install_churn_guards,
    overlay_of,
)
from repro.testing.differential import run_check


def _small_ring(replication: int = 1) -> ChordRing:
    ring = ChordRing(5, durability=successor_replication(replication))
    ring.build([1, 9, 17, 25])
    return ring


class TestDirectoryCensus:
    def test_replicas_count_once(self):
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        # Owner and replica each hold one copy; logically it is one piece.
        assert directory_census(ring) == Counter({("ns", 5, "x"): 1})

    def test_distinct_identical_pieces_keep_multiplicity(self):
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        ring.store("ns", 5, "x")
        assert directory_census(ring) == Counter({("ns", 5, "x"): 2})

    def test_empty_overlay_has_empty_census(self):
        assert directory_census(_small_ring()) == Counter()


class TestStructuralChecks:
    def test_healthy_ring_passes(self, sparse_ring):
        check_overlay(sparse_ring)

    def test_healthy_overlay_passes(self, sparse_overlay):
        check_overlay(sparse_overlay)

    def test_dead_but_indexed_chord_node_detected(self, full_ring):
        full_ring.node(8).alive = False
        with pytest.raises(InvariantViolation, match="dead node"):
            check_overlay(full_ring)

    def test_dead_but_indexed_cycloid_node_detected(self, full_overlay):
        full_overlay.node(CycloidId(1, 3)).alive = False
        with pytest.raises(InvariantViolation, match="dead node"):
            check_overlay(full_overlay)

    def test_corrupted_successor_link_detected(self, full_ring):
        node = full_ring.node(0)
        node.successor_list[0] = full_ring.node(5)
        with pytest.raises(InvariantViolation):
            check_overlay(full_ring)

    def test_overlay_of(self, loaded_bundle):
        assert overlay_of(loaded_bundle.lorm) is loaded_bundle.lorm.overlay
        assert overlay_of(loaded_bundle.sword) is loaded_bundle.sword.ring
        with pytest.raises(TypeError):
            overlay_of(object())


class TestReplicaPlacement:
    def test_clean_placement_passes(self):
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        check_replica_placement(ring)

    def test_stray_copy_off_the_replica_set_detected(self):
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        stray = ring.node(1)
        assert stray not in ring.replica_set_of(5)
        stray.store("ns", 5, "x")
        with pytest.raises(InvariantViolation, match="replica drift"):
            check_replica_placement(ring)

    def test_store_join_store_repair_is_clean(self):
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        ring.join(7)
        ring.store("ns", 5, "y")
        ring.repair_replication()
        check_replica_placement(ring)

    def test_diverged_replica_contents_detected(self):
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        # One holder gains an extra copy: same holder set, different contents.
        ring.replica_set_of(5)[1].store("ns", 5, "x")
        with pytest.raises(InvariantViolation, match="replica divergence"):
            check_replica_placement(ring)


class TestChurnGuard:
    def _service(self, schema, workload, *, replication: int = 2):
        service = MercuryService.build(
            6, 24, schema, seed=11, durability=successor_replication(replication)
        )
        for info in workload.resource_infos():
            service.register(info, routed=False)
        return service

    def test_guard_passes_healthy_churn(self, schema, workload):
        service = self._service(schema, workload)
        guard = install_churn_guards(service)
        assert service.churn_leave()
        assert service.churn_join()
        service.stabilize()
        assert service.churn_fail()
        service.ring.repair_replication()
        assert guard.events == 5

    def test_guard_catches_data_loss_on_leave(self, schema, workload, monkeypatch):
        service = self._service(schema, workload, replication=1)
        install_churn_guards(service)
        orig_leave = ChordRing.leave

        def lossy_leave(self, node_id):
            self.node(node_id).clear_storage()
            orig_leave(self, node_id)

        monkeypatch.setattr(ChordRing, "leave", lossy_leave)
        with pytest.raises(InvariantViolation, match="did not conserve"):
            for _ in range(20):
                service.churn_leave()

    def test_guard_catches_invented_entries_on_fail(
        self, schema, workload, monkeypatch
    ):
        service = self._service(schema, workload)
        install_churn_guards(service)
        orig_fail = ChordRing.fail

        def noisy_fail(self, node_id):
            orig_fail(self, node_id)
            self.store("bogus", 1, "phantom")

        monkeypatch.setattr(ChordRing, "fail", noisy_fail)
        with pytest.raises(InvariantViolation, match="invented"):
            service.churn_fail()

    def test_guard_allows_honest_loss_on_fail(self, schema, workload):
        # replication=1: crashing a data holder genuinely loses pieces,
        # which the loss-only census check must tolerate.
        service = self._service(schema, workload, replication=1)
        install_churn_guards(service)
        for _ in range(10):
            service.churn_fail()


class TestReproCheckReportsInvariantBreaks:
    def test_repro_check_reports_it(self, plant):
        # Departures skip the handover: a leave loses the leaver's pieces.
        plant(Overlay, "_depart", [("if handover:", "if False:")])
        report = run_check(seed=0, num_queries=9, churn_events=20)
        assert any(d.kind == "invariant" for d in report.divergences), report.render()


class TestCycloidConservation:
    def test_leave_and_rejoin_conserve_census(self):
        overlay = CycloidOverlay(3, durability=successor_replication(2))
        overlay.build_full()
        key = CycloidId(1, 2)
        owner = overlay.closest_node(key)
        overlay.store("ns", key, "piece")
        overlay.store("ns", key, "piece")
        before = directory_census(overlay)
        assert before[("ns", overlay.linearize(key), "piece")] == 2

        owner_cid = owner.cid
        overlay.leave(owner_cid)
        assert directory_census(overlay) == before
        overlay.repair_replication()
        assert directory_census(overlay) == before

        # Re-join: both surviving replicas hold the pieces; the joiner gets
        # their decodable level (the max), not their sum.
        overlay.join(owner_cid)
        assert directory_census(overlay) == before
