"""Focused tests of Chord routing internals."""

from __future__ import annotations

import random

import pytest

from repro.overlay.chord import ChordRing
from repro.sim.durability import successor_replication


class TestClosestPrecedingFinger:
    def test_greedy_never_overshoots(self, full_ring):
        """Every hop of a lookup path must stay within (previous, key]."""
        r = random.Random(4)
        for _ in range(100):
            start = full_ring.node(r.randrange(64))
            key = r.randrange(64)
            result = full_ring.lookup(start, key)
            for frm, to in zip(result.path, result.path[1:]):
                # Each hop lands strictly closer to the key (clockwise).
                d_before = full_ring.space.clockwise_distance(frm, key)
                d_after = full_ring.space.clockwise_distance(to, key)
                assert d_after < d_before

    def test_path_halves_distance_typically(self, full_ring):
        """Finger routing roughly halves the clockwise distance per hop."""
        result = full_ring.lookup(full_ring.node(0), 63)
        assert result.hops <= 7  # popcount(63) + final = 6..7

    def test_first_hop_is_largest_applicable_finger(self, full_ring):
        start = full_ring.node(0)
        result = full_ring.lookup(start, 40)
        assert result.path[1] == 32  # finger[5] = successor(0 + 32)


class TestDegenerateRings:
    def test_two_node_ring_lookups(self):
        ring = ChordRing(5)
        ring.build([3, 19])
        for key in range(32):
            for start_id in (3, 19):
                owner = ring.lookup(ring.node(start_id), key).owner
                assert owner is ring.successor_of(key)

    def test_lookup_key_equal_to_node_id(self, sparse_ring):
        nid = sparse_ring.node_ids[5]
        result = sparse_ring.lookup(sparse_ring.node(nid), nid)
        assert result.owner.node_id == nid
        assert result.hops == 0

    def test_single_node_owns_everything(self):
        ring = ChordRing(4)
        ring.build([9])
        result = ring.lookup(ring.node(9), 2)
        assert result.owner.node_id == 9


class TestStaleFingerTolerance:
    def test_lookup_skips_dead_fingers(self):
        ring = ChordRing(7)
        ring.build(random.Random(2).sample(range(128), 50))
        r = random.Random(3)
        # Kill a third of the ring without any stabilization round.
        for _ in range(16):
            ring.leave(r.choice(ring.node_ids))
        for _ in range(200):
            start = ring.node(r.choice(ring.node_ids))
            key = r.randrange(128)
            assert ring.lookup(start, key).owner is ring.successor_of(key)

    def test_crashes_without_stabilize_still_resolve(self):
        ring = ChordRing(7, durability=successor_replication(2))
        ring.build(random.Random(8).sample(range(128), 60))
        r = random.Random(9)
        for _ in range(15):
            ring.fail(r.choice(ring.node_ids))
        for _ in range(150):
            start = ring.node(r.choice(ring.node_ids))
            key = r.randrange(128)
            assert ring.lookup(start, key).owner is ring.successor_of(key)


class TestReplicaSets:
    def test_replica_set_distinct_nodes(self):
        ring = ChordRing(6, durability=successor_replication(3))
        ring.build([1, 20, 40])
        replicas = ring.replica_set_of(5)
        assert len({n.node_id for n in replicas}) == 3

    def test_replica_set_capped_by_population(self):
        ring = ChordRing(6, durability=successor_replication(3))
        ring.build([1, 20])
        assert len(ring.replica_set_of(5)) == 2
