"""Regression tests for churn-path state corruption and replica drift.

Covers four fixed bugs:

* ``ChordRing.leave`` / ``fail`` popped the node from the membership
  indexes *before* the last-node guard, so a refused removal left the
  ring corrupted;
* ``repair_replication`` (both overlays) collapsed duplicate identical
  pieces to one copy while re-placing replicas;
* ``CycloidOverlay.join`` summed the replica copies held by several
  donors onto the newcomer, duplicating data under ``replication >= 2``;
* a join left a copy off the replica set, which ``discard`` missed and
  repair re-spread (``TestDiscardAfterJoin``).
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.sim.durability import parse_policy, successor_replication
from repro.sim.invariants import check_overlay, check_replica_placement, directory_census


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
        ring.fail(9)  # the owner: repair re-spreads both copies
        assert ring.repair_replication() == 2
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
        overlay.fail(key)  # the owner: repair re-spreads both copies
        assert overlay.repair_replication() == 2
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
    """After joins every copy sits on its replica set, so a discard reaches
    all of them and repair has nothing to re-spread."""

    @pytest.mark.parametrize("spec", ["replication:2", "symmetric:2", "erasure:2+1"])
    @pytest.mark.parametrize("kind", ["chord", "cycloid"])
    def test_discarded_piece_stays_gone(self, kind, spec):
        rng = random.Random(7)
        if kind == "chord":
            overlay = ChordRing(10, durability=parse_policy(spec))
            ids, members, joins = list(range(1024)), 24, 17
        else:
            overlay = CycloidOverlay(4, durability=parse_policy(spec))
            ids, members, joins = [CycloidId(k, a) for a in range(16) for k in range(4)], 30, 12
        rng.shuffle(ids)
        overlay.build(ids[:members])
        for i in range(64):
            overlay.store("ns", overlay.key_of(rng.randrange(overlay.id_space_size)), f"v{i % 40}")
        overlay.repair_replication()
        for node_id in ids[members:members + joins]:
            overlay.join(node_id)
        check_replica_placement(overlay)
        for (namespace, key_id, item), count in directory_census(overlay).items():
            for _ in range(count):
                overlay.discard(namespace, overlay.key_of(key_id), item)
        overlay.repair_replication()
        assert not directory_census(overlay)
