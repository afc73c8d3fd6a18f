"""Tests for Chord join/leave: key transfer, repairs, lookup correctness."""

from __future__ import annotations

import random

import pytest

from repro.overlay.chord import ChordRing


@pytest.fixture
def ring() -> ChordRing:
    ring = ChordRing(7)
    ring.build(random.Random(13).sample(range(128), 48))
    return ring


class TestJoin:
    def test_join_adds_member(self, ring):
        vacant = next(i for i in range(128) if i not in ring.node_ids)
        ring.join(vacant)
        assert vacant in ring.node_ids

    def test_join_duplicate_rejected(self, ring):
        with pytest.raises(ValueError):
            ring.join(ring.node_ids[0])

    def test_join_takes_over_keys(self, ring):
        vacant = next(i for i in range(128) if i not in ring.node_ids)
        old_owner = ring.successor_of(vacant)
        ring.store("ns", vacant, "payload")
        assert old_owner.items_at("ns", vacant) == ["payload"]
        node = ring.join(vacant)
        assert node.items_at("ns", vacant) == ["payload"]
        assert old_owner.items_at("ns", vacant) == []

    def test_join_does_not_steal_other_keys(self, ring):
        ids = ring.node_ids
        keeper_key = ids[5]  # exactly on an existing node
        ring.store("ns", keeper_key, "keep")
        vacant = next(i for i in range(128) if i not in ids)
        ring.join(vacant)
        assert ring.successor_of(keeper_key).items_at("ns", keeper_key) == ["keep"]

    def test_neighbours_repaired_immediately(self, ring):
        vacant = next(i for i in range(128) if i not in ring.node_ids)
        node = ring.join(vacant)
        assert node.predecessor is ring.predecessor_of(vacant)
        assert node.predecessor.successor is node

    def test_lookups_correct_after_join(self, ring):
        r = random.Random(5)
        vacant = next(i for i in range(128) if i not in ring.node_ids)
        ring.join(vacant)
        for _ in range(100):
            start = ring.node(r.choice(ring.node_ids))
            key = r.randrange(128)
            assert ring.lookup(start, key).owner is ring.successor_of(key)


class TestLeave:
    def test_leave_removes_member(self, ring):
        victim = ring.node_ids[10]
        ring.leave(victim)
        assert victim not in ring.node_ids

    def test_leave_transfers_keys_to_successor(self, ring):
        victim_id = ring.node_ids[10]
        ring.store("ns", victim_id, "data")
        successor = ring.successor_of(victim_id + 1)
        ring.leave(victim_id)
        assert successor.items_at("ns", victim_id) == ["data"]

    def test_leave_marks_node_dead(self, ring):
        victim_id = ring.node_ids[3]
        victim = ring.node(victim_id)
        ring.leave(victim_id)
        assert not victim.alive

    def test_cannot_remove_last_node(self):
        ring = ChordRing(4)
        ring.build([7])
        with pytest.raises(ValueError):
            ring.leave(7)

    def test_lookups_correct_after_leaves_without_stabilize(self, ring):
        """Stale fingers are skipped; successor lists bridge the gaps."""
        r = random.Random(99)
        for _ in range(10):
            ring.leave(r.choice(ring.node_ids))
        for _ in range(150):
            start = ring.node(r.choice(ring.node_ids))
            key = r.randrange(128)
            assert ring.lookup(start, key).owner is ring.successor_of(key)

    def test_ring_invariants_hold_after_leaves(self, ring):
        r = random.Random(3)
        for _ in range(8):
            ring.leave(r.choice(ring.node_ids))
        ring.check_invariants()


class TestChurnStorm:
    def test_interleaved_churn_preserves_correctness_and_data(self, ring):
        r = random.Random(42)
        # Register sentinel data spread over the key space.
        for key in range(0, 128, 3):
            ring.store("storm", key, f"v{key}")
        departed: list[int] = []
        for step in range(120):
            if (r.random() < 0.5 or not departed) and ring.num_nodes > 4:
                victim = r.choice(ring.node_ids)
                ring.leave(victim)
                departed.append(victim)
            elif departed:
                ring.join(departed.pop(r.randrange(len(departed))))
            if step % 20 == 0:
                ring.stabilize_all()
        # Every sentinel is still reachable at the correct owner.
        for key in range(0, 128, 3):
            owner = ring.successor_of(key)
            assert owner.items_at("storm", key) == [f"v{key}"]
        # And routed lookups find the owners.
        for key in range(0, 128, 7):
            start = ring.node(r.choice(ring.node_ids))
            assert ring.lookup(start, key).owner is ring.successor_of(key)
        ring.check_invariants()

    def test_total_data_conserved_through_churn(self, ring):
        r = random.Random(17)
        for key in range(128):
            ring.store("conserve", key, key)
        total_before = sum(n.directory_size("conserve") for n in ring.nodes())
        departed = []
        for _ in range(60):
            if r.random() < 0.5 and ring.num_nodes > 4:
                victim = r.choice(ring.node_ids)
                ring.leave(victim)
                departed.append(victim)
            elif departed:
                ring.join(departed.pop())
        assert sum(n.directory_size("conserve") for n in ring.nodes()) == total_before

    def test_maintenance_messages_counted(self, ring):
        before = ring.network.stats.maintenance_messages
        ring.leave(ring.node_ids[0])
        assert ring.network.stats.maintenance_messages > before


class TestStabilize:
    def test_stabilize_restores_optimal_fingers(self, ring):
        r = random.Random(1)
        for _ in range(6):
            ring.leave(r.choice(ring.node_ids))
        ring.stabilize_all()
        for node in ring.nodes():
            for i, finger in enumerate(node.fingers):
                assert finger is ring.successor_of(node.node_id + (1 << i))
