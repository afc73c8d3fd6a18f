"""Tests for the Cycloid overlay: IDs, routing tables, lookup, walks."""

from __future__ import annotations

import random
import statistics

import pytest

from repro.overlay.cycloid import CycloidId, CycloidOverlay


class TestConstruction:
    def test_capacity(self):
        assert CycloidOverlay(4).capacity == 64
        assert CycloidOverlay(8).capacity == 2048

    def test_build_full(self, full_overlay):
        assert full_overlay.num_nodes == 64
        assert len(full_overlay.node_ids) == 64

    def test_min_dimension_enforced(self):
        with pytest.raises(ValueError):
            CycloidOverlay(1)

    def test_build_empty_rejected(self):
        with pytest.raises(ValueError):
            CycloidOverlay(3).build([])

    def test_build_wraps_indices(self):
        overlay = CycloidOverlay(3)
        overlay.build([CycloidId(5, 9)])  # k wraps mod 3, a mod 8
        assert overlay.node_ids == (CycloidId(2, 1),)

    def test_cluster_members_ordered(self, sparse_overlay):
        for a in range(16):
            members = sparse_overlay.cluster_members(a)
            ks = [m.k for m in members]
            assert ks == sorted(ks)

    def test_invariants_after_build(self, full_overlay, sparse_overlay):
        full_overlay.check_invariants()
        sparse_overlay.check_invariants()


class TestRoutingTable:
    def test_full_overlay_constant_degree(self, full_overlay):
        for node in full_overlay.nodes():
            assert len(node.outlinks()) <= 7

    def test_cubical_neighbor_flips_responsible_bit(self, full_overlay):
        d = full_overlay.dimension
        for node in full_overlay.nodes():
            j = (node.k - 1) % d
            nbr = node.cubical_neighbor
            assert nbr is not None
            assert nbr.a == node.a ^ (1 << j)
            assert nbr.k == j

    def test_inside_leaf_are_cluster_neighbours(self, full_overlay):
        d = full_overlay.dimension
        for node in full_overlay.nodes():
            pred, succ = node.inside_leaf
            assert pred.cid == CycloidId((node.k - 1) % d, node.a)
            assert succ.cid == CycloidId((node.k + 1) % d, node.a)

    def test_outside_leaf_are_adjacent_cluster_tops(self, full_overlay):
        d = full_overlay.dimension
        size = full_overlay.cubical_space.size
        for node in full_overlay.nodes():
            prev_top, next_top = node.outside_leaf
            assert prev_top.cid == CycloidId(d - 1, (node.a - 1) % size)
            assert next_top.cid == CycloidId(d - 1, (node.a + 1) % size)

    def test_sparse_overlay_tables_live(self, sparse_overlay):
        for node in sparse_overlay.nodes():
            for entry in node.table_entries():
                assert entry.alive


class TestClosestNode:
    def test_exact_position(self, full_overlay):
        assert full_overlay.closest_node(CycloidId(2, 5)).cid == CycloidId(2, 5)

    def test_cluster_first_semantics(self, sparse_overlay):
        """The owner is in the nearest non-empty cluster, even if another
        cluster has a node with the exact cyclic index."""
        target = CycloidId(1, 7)
        owner = sparse_overlay.closest_node(target)
        nearest_cluster = sparse_overlay.nearest_cluster(7)
        assert owner.a == nearest_cluster

    def test_within_cluster_nearest_cyclic(self, sparse_overlay):
        for a in sparse_overlay._cluster_ids:
            ks = sparse_overlay._clusters[a]
            for k_t in range(sparse_overlay.dimension):
                owner = sparse_overlay.closest_node(CycloidId(k_t, a))
                d = sparse_overlay.dimension
                best = min(min((k - k_t) % d, (k_t - k) % d) for k in ks)
                got = min((owner.k - k_t) % d, (k_t - owner.k) % d)
                assert got == best

    def test_empty_overlay_rejected(self):
        overlay = CycloidOverlay(3)
        with pytest.raises(ValueError):
            overlay.nearest_cluster(0)


class TestLookup:
    def test_lookup_reaches_owner_full(self, full_overlay, rng):
        for _ in range(300):
            ids = full_overlay.node_ids
            start = full_overlay.node(ids[rng.randrange(len(ids))])
            target = CycloidId(rng.randrange(4), rng.randrange(16))
            result = full_overlay.lookup(start, target)
            assert result.owner is full_overlay.closest_node(target)

    def test_lookup_reaches_owner_sparse(self, sparse_overlay, rng):
        for _ in range(300):
            ids = sparse_overlay.node_ids
            start = sparse_overlay.node(ids[rng.randrange(len(ids))])
            target = CycloidId(rng.randrange(4), rng.randrange(16))
            result = sparse_overlay.lookup(start, target)
            assert result.owner is sparse_overlay.closest_node(target)

    def test_self_lookup_zero_hops(self, full_overlay):
        node = full_overlay.node(CycloidId(1, 3))
        assert full_overlay.lookup(node, CycloidId(1, 3)).hops == 0

    def test_average_hops_order_d(self):
        """Cycloid's lookup path is O(d); for a full overlay it empirically
        sits near d (the paper's Theorem 4.7 uses exactly d)."""
        overlay = CycloidOverlay(6)
        overlay.build_full()
        r = random.Random(2)
        ids = overlay.node_ids
        samples = []
        for _ in range(600):
            start = overlay.node(ids[r.randrange(len(ids))])
            target = CycloidId(r.randrange(6), r.randrange(64))
            samples.append(overlay.lookup(start, target).hops)
        mean = statistics.mean(samples)
        assert 4.0 < mean < 9.0  # d=6: expect ~6-7

    def test_hops_equals_path_edges(self, sparse_overlay, rng):
        ids = sparse_overlay.node_ids
        for _ in range(50):
            start = sparse_overlay.node(ids[rng.randrange(len(ids))])
            result = sparse_overlay.lookup(start, CycloidId(rng.randrange(4), rng.randrange(16)))
            assert result.hops == len(result.path) - 1

    def test_path_follows_links(self, full_overlay, rng):
        """Every edge of the reported path must be a routing-table link of
        the previous node — routing may not teleport."""
        ids = full_overlay.node_ids
        for _ in range(60):
            start = full_overlay.node(ids[rng.randrange(len(ids))])
            target = CycloidId(rng.randrange(4), rng.randrange(16))
            result = full_overlay.lookup(start, target)
            for frm, to in zip(result.path, result.path[1:]):
                node = full_overlay.node(frm)
                assert to in {e.cid for e in node.table_entries()}


class TestWalkCluster:
    def test_walk_covers_cyclic_sector(self, full_overlay):
        start = full_overlay.node(CycloidId(1, 5))
        walk = full_overlay.walk_cluster(start, 1, 3)
        assert [n.cid for n in walk] == [
            CycloidId(1, 5), CycloidId(2, 5), CycloidId(3, 5)
        ]

    def test_walk_single_when_start_owns_end(self, full_overlay):
        start = full_overlay.node(CycloidId(2, 5))
        assert full_overlay.walk_cluster(start, 2, 2) == [start]

    def test_walk_stays_in_cluster(self, sparse_overlay):
        for a in sparse_overlay._cluster_ids:
            members = sparse_overlay.cluster_members(a)
            start = members[0]
            walk = sparse_overlay.walk_cluster(start, start.k, (start.k + 2) % 4)
            assert all(n.a == a for n in walk)

    def test_walk_bounded_by_cluster_size(self, sparse_overlay):
        for a in sparse_overlay._cluster_ids:
            members = sparse_overlay.cluster_members(a)
            walk = sparse_overlay.walk_cluster(members[0], 0, 3)
            assert len(walk) <= len(members)


class TestStorage:
    def test_store_at_closest(self, sparse_overlay):
        key = CycloidId(2, 9)
        owner = sparse_overlay.store("ns", key, "item")
        assert owner is sparse_overlay.closest_node(key)

    def test_routed_store_matches_oracle_placement(self, sparse_overlay, rng):
        ids = sparse_overlay.node_ids
        for _ in range(40):
            key = CycloidId(rng.randrange(4), rng.randrange(16))
            start = sparse_overlay.node(ids[rng.randrange(len(ids))])
            result = sparse_overlay.routed_store(start, "ns", key, 1)
            assert result.owner is sparse_overlay.closest_node(key)

    def test_linearize_roundtrip(self, full_overlay):
        for cid in full_overlay.node_ids:
            assert full_overlay.delinearize(full_overlay.linearize(cid)) == cid
