"""Regression tests for churn-path state corruption and replica drift.

Covers three fixed bugs:

* ``ChordRing.leave`` / ``fail`` popped the node from the membership
  indexes *before* the last-node guard, so a refused removal left the
  ring corrupted;
* ``repair_replication`` (both overlays) collapsed duplicate identical
  pieces to one copy while re-placing replicas;
* ``CycloidOverlay.join`` summed the replica copies held by several
  donors onto the newcomer, duplicating data under ``replication >= 2``.

``TestDiscardAfterJoin`` pins one open bug as a strict xfail.
"""

from __future__ import annotations

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.sim.durability import successor_replication
from repro.sim.invariants import check_overlay, directory_census


def _small_ring(replication: int = 1) -> ChordRing:
    ring = ChordRing(5, durability=successor_replication(replication))
    ring.build([1, 9, 17, 25])
    return ring


class TestLastNodeGuard:
    @pytest.mark.parametrize("removal", ["leave", "fail"])
    def test_refused_removal_leaves_ring_intact(self, removal):
        ring = ChordRing(4)
        ring.build([5])
        ring.store("ns", 3, "x")
        with pytest.raises(ValueError, match="last ring node"):
            getattr(ring, removal)(5)
        # The refused call must not have mutated anything: the node is
        # still indexed, alive, routable and holding its data.
        assert ring.num_nodes == 1
        node = ring.node(5)
        assert node.alive
        assert ring.successor_of(3) is node
        assert node.items_at("ns", 3) == ["x"]
        check_overlay(ring)

    @pytest.mark.parametrize("removal", ["leave", "fail"])
    def test_second_to_last_removal_still_works(self, removal):
        ring = ChordRing(4)
        ring.build([5, 12])
        getattr(ring, removal)(12)
        assert ring.num_nodes == 1
        check_overlay(ring)


class TestLeaveMultiplicity:
    def test_duplicate_pieces_survive_leave(self):
        ring = _small_ring()
        owner = ring.successor_of(5)
        ring.store("ns", 5, "x")
        ring.store("ns", 5, "x")
        ring.leave(owner.node_id)
        assert ring.successor_of(5).items_at("ns", 5) == ["x", "x"]

    def test_leave_with_replication_does_not_double_copies(self):
        # The successor already holds replica copies; the departing
        # owner's transfer must top the bucket up, not append to it.
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        ring.store("ns", 5, "x")
        before = directory_census(ring)
        ring.leave(ring.successor_of(5).node_id)
        assert directory_census(ring) == before
        assert ring.successor_of(5).items_at("ns", 5) == ["x", "x"]


class TestRepairMultiplicity:
    def test_chord_repair_preserves_duplicates(self):
        ring = _small_ring(replication=2)
        ring.store("ns", 5, "x")
        ring.store("ns", 5, "x")
        before = directory_census(ring)
        ring.repair_replication()
        assert directory_census(ring) == before
        for holder in ring.replica_set_of(5):
            assert holder.items_at("ns", 5) == ["x", "x"]

    def test_cycloid_repair_preserves_duplicates(self):
        overlay = CycloidOverlay(3, durability=successor_replication(2))
        overlay.build_full()
        key = CycloidId(1, 2)
        overlay.store("ns", key, "x")
        overlay.store("ns", key, "x")
        before = directory_census(overlay)
        overlay.repair_replication()
        assert directory_census(overlay) == before
        key_id = overlay.linearize(key)
        for holder in overlay.replica_set_of(overlay.key_id(key)):
            assert holder.items_at("ns", key_id) == ["x", "x"]


class TestCycloidJoinTransfer:
    def test_join_does_not_duplicate_replicated_pieces(self):
        overlay = CycloidOverlay(3, durability=successor_replication(2))
        overlay.build_full()
        key = CycloidId(0, 4)
        owner_cid = overlay.closest_node(key).cid
        overlay.store("ns", key, "x")
        before = directory_census(overlay)

        overlay.leave(owner_cid)
        overlay.repair_replication()
        # Two surviving replicas now hold the piece; when the old owner
        # re-joins, both are donors for the key it reclaims.
        newcomer = overlay.join(owner_cid)
        assert directory_census(overlay) == before
        assert newcomer.items_at("ns", overlay.linearize(key)) == ["x"]


class TestDiscardAfterJoin:
    @pytest.mark.xfail(
        strict=True,
        reason="a join leaves the second copy outside the replica set, which "
        "discard misses and repair_replication re-spreads",
    )
    def test_discarded_piece_stays_gone(self):
        ring = ChordRing(6, durability=successor_replication(2))
        ring.build([0, 16, 32, 48])
        ring.store("ns", 10, "x")  # on 16 and 32
        ring.join(12)  # 12 takes 16's copy; 32's is now outside (12, 16)
        ring.discard("ns", 10, "x")
        ring.repair_replication()
        assert not directory_census(ring)
