"""Edge cases of ``ChordRing.walk_arc``: wrap-around arcs, degenerate
rings, and truncation accounting under an active fault injector; and of
the arc directory its slice walks are read through."""

from __future__ import annotations

import pytest

from repro.core.resource import ResourceInfo
from repro.overlay.chord import ChordRing
from repro.sim.faults import ArcPartition, FaultInjector, FaultPlan


def _ring() -> ChordRing:
    ring = ChordRing(6)
    ring.build(range(0, 64, 8))
    return ring


class TestWrapAround:
    def test_arc_spanning_id_zero(self):
        ring = _ring()
        start = ring.successor_of(60)
        walk = ring.walk_arc(start, 60, 12)
        assert [n.node_id for n in walk] == [0, 8, 16]
        assert not walk.truncated and not walk.timed_out

    def test_wrapping_arc_covers_every_owner(self):
        ring = _ring()
        from_key, until_key = 60, 12
        walk = ring.walk_arc(ring.successor_of(from_key), from_key, until_key)
        owners = {n.node_id for n in walk}
        for key in [*range(60, 64), *range(0, 13)]:
            assert ring.successor_of(key).node_id in owners, key

    def test_arc_ending_just_behind_start_walks_full_ring(self):
        # Theorem 4.10's worst case: the arc spans (almost) the whole ring.
        ring = _ring()
        walk = ring.walk_arc(ring.successor_of(8), 8, 7)
        assert len(walk) == ring.num_nodes
        assert not walk.truncated


class TestDegenerateArcs:
    def test_from_key_equals_until_key(self):
        ring = _ring()
        start = ring.successor_of(20)
        walk = ring.walk_arc(start, 20, 20)
        assert list(walk) == [start]
        assert not walk.truncated

    def test_single_node_ring_short_arc(self):
        ring = ChordRing(4)
        ring.build([5])
        node = ring.node(5)
        # dist(9, 5) >= span: the loop never starts.
        walk = ring.walk_arc(node, 9, 3)
        assert list(walk) == [node]
        assert not walk.truncated

    def test_single_node_ring_self_successor_terminates(self):
        ring = ChordRing(4)
        ring.build([5])
        node = ring.node(5)
        # dist(4, 5) < span, but the node's successor is itself: the walk
        # must stop at the wrap instead of spinning.
        walk = ring.walk_arc(node, 4, 14)
        assert list(walk) == [node]
        assert not walk.truncated


class TestTruncationAccounting:
    def test_partition_truncates_and_counts(self):
        ring = _ring()
        # Cut the [32, 63] arc off: the walk cannot cross 24 -> 32, and
        # every failover candidate lies inside the partition too.
        injector = FaultInjector(FaultPlan(seed=1))
        injector.arm_partition(ArcPartition(32, 63, space=64))
        ring.network.faults = injector
        try:
            assert ring.faults_active
            walk = ring.walk_arc(ring.successor_of(0), 0, 40)
            assert walk.truncated
            assert walk.timed_out
            assert walk.reason == "unreachable successor chain"
            # The visited prefix is still the correct arc prefix.
            assert [n.node_id for n in walk] == [0, 8, 16, 24]
        finally:
            ring.network.faults = None

    def test_no_truncations_counted_on_clean_walks(self):
        ring = _ring()
        walk = ring.walk_arc(ring.successor_of(0), 0, 40)
        assert not walk.truncated and walk.reason == ""


class TestArcDirectory:
    """What the service machine's rings never reach: ids past 2**62 and a
    rebuilt ring.  The one indexing sweep is test_arc_directory.py."""

    def test_id_space_beyond_int64(self):
        # Holder ids are array('q'): wider rings are refused, the widest
        # admitted one fits.
        with pytest.raises(ValueError):
            ChordRing(70)
        ring = ChordRing(62)
        ring.build([3, 1 << 60, (1 << 61) + 5])
        ring.node(1 << 60).store("ns", 9, ResourceInfo("cpu", 2.0, "p"))
        walk = ring.walk_arc(ring.node(3), 3, 1 << 60)
        assert ring.arc_items(walk, "ns", "cpu") == [ResourceInfo("cpu", 2.0, "p")]

    def test_rebuilt_ring_starts_from_an_empty_directory(self):
        ring = _ring()
        ring.node(8).store("ns", 1, ResourceInfo("cpu", 2.0, "p"))
        everyone = ring.walk_arc(ring.node(0), 0, 63)
        assert ring.arc_items(everyone, "ns", "cpu")
        ring.build(range(0, 64, 8))
        assert ring.arc_items(ring.walk_arc(ring.node(0), 0, 63), "ns", "cpu") == []
