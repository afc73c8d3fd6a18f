"""Tests for the Chord ring: construction, lookup, walks, storage."""

from __future__ import annotations

import random
import statistics

import pytest

from repro.overlay.chord import ChordRing


class TestConstruction:
    def test_build_full_population(self, full_ring):
        assert full_ring.num_nodes == 64
        assert full_ring.node_ids == tuple(range(64))

    def test_build_deduplicates_and_wraps(self):
        ring = ChordRing(4)
        ring.build([1, 17, 5])  # 17 wraps to 1
        assert ring.node_ids == (1, 5)

    def test_build_empty_rejected(self):
        with pytest.raises(ValueError):
            ChordRing(4).build([])

    def test_ring_invariants_after_build(self, full_ring, sparse_ring):
        full_ring.check_invariants()
        sparse_ring.check_invariants()

    def test_fingers_point_to_true_successors(self, sparse_ring):
        for node in sparse_ring.nodes():
            for i, finger in enumerate(node.fingers):
                expected = sparse_ring.successor_of(node.node_id + (1 << i))
                assert finger is expected

    def test_successor_list_excludes_self_when_possible(self, sparse_ring):
        for node in sparse_ring.nodes():
            assert all(s.node_id != node.node_id for s in node.successor_list)

    def test_single_node_ring(self):
        ring = ChordRing(4)
        ring.build([9])
        node = ring.node(9)
        assert node.successor is node
        assert node.predecessor is None


class TestOracle:
    def test_successor_of_exact(self, sparse_ring):
        nid = sparse_ring.node_ids[3]
        assert sparse_ring.successor_of(nid).node_id == nid

    def test_successor_of_wraps(self, sparse_ring):
        top = sparse_ring.node_ids[-1]
        assert sparse_ring.successor_of(top + 1).node_id == sparse_ring.node_ids[0]

    def test_predecessor_of(self, sparse_ring):
        ids = sparse_ring.node_ids
        assert sparse_ring.predecessor_of(ids[2]).node_id == ids[1]

    def test_predecessor_wraps(self, sparse_ring):
        ids = sparse_ring.node_ids
        assert sparse_ring.predecessor_of(ids[0]).node_id == ids[-1]


class TestLookup:
    def test_lookup_reaches_owner_everywhere(self, sparse_ring, rng):
        for _ in range(300):
            start = sparse_ring.node(rng.choice(sparse_ring.node_ids))
            key = rng.randrange(sparse_ring.space.size)
            result = sparse_ring.lookup(start, key)
            assert result.owner is sparse_ring.successor_of(key)

    def test_lookup_from_owner_is_zero_hops(self, full_ring):
        result = full_ring.lookup(full_ring.node(5), 5)
        assert result.hops == 0
        assert result.owner.node_id == 5

    def test_path_starts_at_requester(self, full_ring):
        result = full_ring.lookup(full_ring.node(0), 40)
        assert result.path[0] == 0
        assert result.path[-1] == result.owner.node_id

    def test_hops_equals_path_edges(self, sparse_ring, rng):
        for _ in range(50):
            start = sparse_ring.node(rng.choice(sparse_ring.node_ids))
            result = sparse_ring.lookup(start, rng.randrange(128))
            assert result.hops == len(result.path) - 1

    def test_average_hops_near_half_log_n(self, full_ring, rng):
        """Stoica et al.: average lookup path is ~ (1/2) log2 n."""
        samples = []
        for _ in range(800):
            start = full_ring.node(rng.randrange(64))
            samples.append(full_ring.lookup(start, rng.randrange(64)).hops)
        mean = statistics.mean(samples)
        assert 2.0 < mean < 4.6  # log2(64)/2 = 3, plus the final hop

    def test_hops_bounded_by_log_n_plus_slack(self, full_ring, rng):
        for _ in range(300):
            start = full_ring.node(rng.randrange(64))
            assert full_ring.lookup(start, rng.randrange(64)).hops <= 8

    def test_network_counter_accumulates(self):
        ring = ChordRing(5)
        ring.build_full()
        before = ring.network.stats.routing_hops
        ring.lookup(ring.node(0), 17)
        assert ring.network.stats.routing_hops > before


class TestWalkArc:
    def test_walk_stops_at_arc_end_owner(self, sparse_ring):
        ids = sparse_ring.node_ids
        start = sparse_ring.node(ids[0])
        until = ids[4]
        walk = sparse_ring.walk_arc(start, ids[0], until)
        assert [n.node_id for n in walk] == list(ids[:5])

    def test_walk_single_node_when_start_owns_end(self, sparse_ring):
        ids = sparse_ring.node_ids
        start = sparse_ring.node(ids[2])
        walk = sparse_ring.walk_arc(start, ids[2], ids[2])
        assert walk == [start]

    def test_walk_wraps_around_ring(self, sparse_ring):
        ids = sparse_ring.node_ids
        start = sparse_ring.node(ids[-2])
        walk = sparse_ring.walk_arc(start, ids[-2], ids[1])
        assert [n.node_id for n in walk] == [ids[-2], ids[-1], ids[0], ids[1]]

    def test_walk_covers_every_node_owning_arc_keys(self, full_ring):
        start = full_ring.node(10)
        walk = full_ring.walk_arc(start, 10, 20)
        assert [n.node_id for n in walk] == list(range(10, 21))

    def test_full_space_arc_visits_every_node(self, sparse_ring):
        """Theorem 4.10's worst case: an arc covering the whole ID space
        walks the entire ring even though the arc's end key lands back in
        the first node's (wrapping) sector."""
        start = sparse_ring.successor_of(0)
        walk = sparse_ring.walk_arc(start, 0, sparse_ring.space.size - 1)
        assert len(walk) == sparse_ring.num_nodes

    def test_arc_start_behind_start_node(self, sparse_ring):
        """from_key usually precedes the start node's ID (the start is
        successor(from_key)); the span math must use the key, not the node."""
        ids = sparse_ring.node_ids
        from_key = (ids[3] + 1) % sparse_ring.space.size  # between nodes 3 and 4
        start = sparse_ring.successor_of(from_key)
        walk = sparse_ring.walk_arc(start, from_key, ids[6])
        assert [n.node_id for n in walk] == list(ids[4:7])


class TestStorage:
    def test_store_places_at_successor(self, sparse_ring):
        key = 77
        owner = sparse_ring.store("ns", key, "item")
        assert owner is sparse_ring.successor_of(key)
        assert owner.items_at("ns", key % sparse_ring.space.size) == ["item"]

    def test_routed_store_same_placement(self, sparse_ring, rng):
        for _ in range(30):
            key = rng.randrange(128)
            start = sparse_ring.node(rng.choice(sparse_ring.node_ids))
            result = sparse_ring.routed_store(start, "ns2", key, key)
            assert result.owner is sparse_ring.successor_of(key)

    def test_directory_sizes_count_pieces(self, full_ring):
        full_ring.store("d", 3, "a")
        full_ring.store("d", 3, "b")
        full_ring.store("other", 3, "c")
        assert full_ring.node(3).directory_size() == 3
        assert full_ring.node(3).directory_size("d") == 2

    def test_namespaces_isolated(self, full_ring):
        full_ring.store("n1", 9, "x")
        assert full_ring.node(9).items_at("n2", 9) == []


class TestOutlinks:
    def test_full_ring_outlinks_about_log_n(self, full_ring):
        counts = full_ring.outlink_counts()
        # 6 distinct fingers + predecessor + successor-list extras.
        assert all(6 <= c <= 10 for c in counts)

    def test_outlinks_exclude_self_and_dead(self):
        ring = ChordRing(4)
        ring.build_full()
        ring.leave(3)
        for node in ring.nodes():
            assert 3 not in node.outlinks()
            assert node.node_id not in node.outlinks()
