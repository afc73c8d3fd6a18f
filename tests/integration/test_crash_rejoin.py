"""Regression tests: a crashed node's state must never be resurrected.

A crash (``fail``) destroys the node's memory — ``clear_storage`` runs and
the node object leaves the membership maps.  When the same identifier later
rejoins (``churn_join`` re-uses departed IDs), the overlay must hand it a
*fresh* node: anything it held before the crash is recoverable only through
replicas that survived elsewhere, never through the old node object
leaking back in.  These tests pin that behaviour for both overlays at
replication 1 (data genuinely gone) and replication 2 (data restored from
replicas, not from the corpse).
"""

from __future__ import annotations

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.sim.durability import successor_replication


class TestChordCrashRejoin:
    def test_rejoin_after_crash_is_empty_without_replication(self):
        ring = ChordRing(6)
        ring.build(range(0, 64, 4))
        key = 17  # owned by node 20
        owner = ring.store("ns", key, "payload")
        assert owner.node_id == 20
        old = ring.node(20)
        ring.fail(20)
        assert not old.alive
        assert old.directory_size() == 0  # memory cleared at crash time

        rejoined = ring.join(20)
        assert rejoined is not old  # a fresh node object, not the corpse
        assert rejoined.alive
        assert rejoined.directory_size() == 0  # r=1: the payload is gone
        assert "payload" not in [
            item for _, _, item in rejoined.stored_entries()
        ]

    def test_rejoin_receives_data_only_via_replicas(self):
        ring = ChordRing(6, durability=successor_replication(2))
        ring.build(range(0, 64, 4))
        key = 17
        ring.store("ns", key, "payload")  # at node 20, replica at 24
        ring.fail(20)
        ring.repair_replication()  # survivors re-home the copy

        rejoined = ring.join(20)
        ring.repair_replication()
        # The payload is back on the owner — restored from the replica at
        # 24, not resurrected from the crashed node's cleared memory.
        holders = {
            node.node_id
            for node in ring.nodes()
            for _, key_id, item in node.stored_entries()
            if item == "payload"
        }
        assert holders == {n.node_id for n in ring.replica_set_of(ring.key_id(key))}
        assert 20 in holders

    def test_crashed_node_object_stays_dead_after_rejoin(self):
        ring = ChordRing(6)
        ring.build(range(0, 64, 8))
        old = ring.node(8)
        ring.fail(8)
        ring.join(8)
        assert not old.alive  # the corpse is not revived in place
        assert ring.node(8) is not old
        ring.check_invariants()


class TestCycloidCrashRejoin:
    def test_rejoin_after_crash_is_empty_without_replication(self):
        overlay = CycloidOverlay(4)
        overlay.build_full()
        key = CycloidId(2, 5)
        owner = overlay.store("ns", key, "payload")
        cid = owner.cid
        old = overlay.node(cid)
        overlay.fail(cid)
        assert not old.alive
        assert old.directory_size() == 0

        rejoined = overlay.join(cid)
        assert rejoined is not old
        assert rejoined.directory_size() == 0

    def test_rejoin_receives_data_only_via_replicas(self):
        overlay = CycloidOverlay(4, durability=successor_replication(2))
        overlay.build_full()
        key = CycloidId(2, 5)
        owner = overlay.store("ns", key, "payload")
        overlay.fail(owner.cid)
        overlay.repair_replication()

        overlay.join(owner.cid)
        overlay.repair_replication()
        holders = {
            node.cid
            for node in overlay.nodes()
            for _, _, item in node.stored_entries()
            if item == "payload"
        }
        assert holders == {n.cid for n in overlay.replica_set_of(overlay.key_id(key))}
