"""Tests for crash failures and successor-list / intra-cluster replication.

The paper's churn model is graceful (Section V-C reports zero failures
because departures hand their state off).  The library additionally
supports crash failures; these tests pin down the semantics:

* ``replication = 1``: a crash loses exactly the keys solely held there;
* ``replication >= 2``: every key survives any single crash, reads stay
  correct immediately, and ``repair_replication`` restores the replica
  count so the system tolerates the *next* crash too.
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.sim.durability import successor_replication


class TestChordReplication:
    def make_ring(self, replication: int) -> ChordRing:
        ring = ChordRing(6, durability=successor_replication(replication))
        ring.build_full()
        return ring

    def test_replica_set_size(self):
        ring = self.make_ring(3)
        assert len(ring.replica_set_of(10)) == 3
        assert ring.replica_set_of(10)[0] is ring.successor_of(10)

    def test_store_places_on_all_replicas(self):
        ring = self.make_ring(3)
        ring.store("ns", 10, "item")
        for holder in ring.replica_set_of(10):
            assert holder.items_at("ns", 10) == ["item"]

    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError):
            ChordRing(6, durability=successor_replication(0))
        # Replicas live on the successor list: at most 4 + 1 copies.
        assert ChordRing.successor_list_len == 4
        ChordRing(6, durability=successor_replication(5))
        with pytest.raises(ValueError):
            ChordRing(6, durability=successor_replication(6))

    def test_crash_without_replication_loses_keys(self):
        ring = self.make_ring(1)
        ring.store("ns", 20, "doomed")
        ring.fail(20)
        assert sum(n.directory_size("ns") for n in ring.nodes()) == 0

    def test_crash_with_replication_preserves_reads(self):
        ring = self.make_ring(2)
        ring.store("ns", 20, "survivor")
        ring.fail(20)
        # The new owner (old replica #2) already has the copy.
        assert "survivor" in ring.successor_of(20).items_at("ns", 20)

    def test_repair_restores_replica_count(self):
        ring = self.make_ring(3)
        ring.store("ns", 20, "x")
        ring.fail(20)
        ring.repair_replication()
        holders = [
            node for node in ring.nodes() if "x" in node.items_at("ns", 20)
        ]
        assert len(holders) == 3
        assert set(h.node_id for h in holders) == {
            n.node_id for n in ring.replica_set_of(20)
        }

    def test_survives_sequential_crashes_with_repair(self):
        ring = self.make_ring(2)
        for key in range(0, 64, 4):
            ring.store("ns", key, f"v{key}")
        r = random.Random(5)
        for _ in range(20):
            ring.fail(r.choice(ring.node_ids))
            ring.repair_replication()
            for key in range(0, 64, 4):
                owner = ring.successor_of(key)
                assert f"v{key}" in owner.items_at("ns", key), key

    def test_graceful_leave_does_not_duplicate_replicas(self):
        ring = self.make_ring(2)
        ring.store("ns", 30, "once")
        ring.leave(30)  # successor already held the replica
        ring.repair_replication()
        total = sum(n.directory_size("ns") for n in ring.nodes())
        assert total == 2  # exactly the replica count

    def test_lookup_correct_after_crashes_before_stabilize(self):
        ring = self.make_ring(2)
        r = random.Random(9)
        for _ in range(8):
            ring.fail(r.choice(ring.node_ids))
        for _ in range(100):
            key = r.randrange(64)
            start = ring.node(r.choice(ring.node_ids))
            assert ring.lookup(start, key).owner is ring.successor_of(key)


class TestCycloidReplication:
    def make_overlay(self, replication: int) -> CycloidOverlay:
        overlay = CycloidOverlay(4, durability=successor_replication(replication))
        overlay.build_full()
        return overlay

    def test_replica_set_within_cluster(self):
        overlay = self.make_overlay(3)
        key = CycloidId(1, 5)
        replicas = overlay.replica_set_of(overlay.key_id(key))
        assert len(replicas) == 3
        assert all(r.a == 5 for r in replicas)
        assert replicas[0] is overlay.closest_node(key)

    def test_replica_set_capped_by_cluster_size(self):
        overlay = CycloidOverlay(4, durability=successor_replication(3))
        overlay.build([CycloidId(0, 1), CycloidId(2, 1), CycloidId(0, 9)])
        replicas = overlay.replica_set_of(overlay.key_id(CycloidId(0, 1)))
        assert len(replicas) == 2  # cluster 1 only has two members

    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError):
            CycloidOverlay(4, durability=successor_replication(0))
        with pytest.raises(ValueError):
            CycloidOverlay(4, durability=successor_replication(5))

    def test_crash_without_replication_loses_keys(self):
        overlay = self.make_overlay(1)
        key = CycloidId(2, 7)
        overlay.store("ns", key, "doomed")
        overlay.fail(key)
        assert sum(n.directory_size("ns") for n in overlay.nodes()) == 0

    def test_crash_with_replication_preserves_reads(self):
        overlay = self.make_overlay(2)
        key = CycloidId(2, 7)
        overlay.store("ns", key, "kept")
        overlay.fail(key)
        new_owner = overlay.closest_node(key)
        assert "kept" in new_owner.items_at("ns", overlay.linearize(key))

    def test_repair_restores_replica_count(self):
        overlay = self.make_overlay(2)
        key = CycloidId(2, 7)
        overlay.store("ns", key, "x")
        overlay.fail(key)
        overlay.repair_replication()
        holders = [
            node for node in overlay.nodes()
            if "x" in node.items_at("ns", overlay.linearize(key))
        ]
        assert len(holders) == 2

    def test_survives_crash_storm_with_repair(self):
        overlay = self.make_overlay(2)
        keys = [CycloidId(k, a) for a in range(0, 16, 2) for k in range(4)]
        for key in keys:
            overlay.store("ns", key, str(key))
        r = random.Random(3)
        for _ in range(15):
            overlay.fail(overlay.node_ids[r.randrange(overlay.num_nodes)])
            overlay.repair_replication()
            for key in keys:
                owner = overlay.closest_node(key)
                assert str(key) in owner.items_at("ns", overlay.linearize(key)), key

    def test_routing_correct_after_crashes(self):
        overlay = self.make_overlay(2)
        r = random.Random(4)
        for _ in range(10):
            overlay.fail(overlay.node_ids[r.randrange(overlay.num_nodes)])
        live = overlay.node_ids
        for _ in range(150):
            start = overlay.node(live[r.randrange(len(live))])
            target = CycloidId(r.randrange(4), r.randrange(16))
            assert overlay.lookup(start, target).owner is overlay.closest_node(target)
