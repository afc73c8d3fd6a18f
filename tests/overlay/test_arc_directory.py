"""An arc read never sees a stale arc directory.

The overlay's :class:`~repro.overlay.node.ArcDirectory` is derived state
that the node write paths keep current copy by copy.  One case per write
path on a ring whose namespace is already indexed, then the overlay-level
writes built from them: graceful-leave handover, the joiner's key
take-over, and ``repair_replication`` after a crash.  Each compares the
arc read with the chained per-node reads it stands for.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.baselines.mercury import MercuryService
from repro.core.resource import ResourceInfo
from repro.overlay.chord import ChordRing
from repro.overlay.node import ArcDirectory, OverlayNode
from repro.sim.durability import successor_replication
from repro.sim.invariants import directory_layout
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload

NS = "dir"
ATTRIBUTES = ("cpu", "mem")


def info(attribute: str, value: float, provider: str = "p") -> ResourceInfo:
    return ResourceInfo(attribute, value, provider)


def chained(walk, attribute: str) -> Counter:
    return Counter(
        item for node in walk for item in node.items_in(NS) if item.attribute == attribute
    )


def check_arcs(ring: ChordRing) -> None:
    """Full-ring and per-node arc reads equal the per-node reads."""
    first = ring.successor_of(0)
    everyone = ring.walk_arc(first, first.node_id, first.node_id - 1)
    assert len(everyone) == ring.num_nodes and everyone.contiguous
    for attribute in ATTRIBUTES:
        assert Counter(ring.arc_items(everyone, NS, attribute)) == chained(everyone, attribute)
        for node in everyone:
            alone = ring.walk_arc(node, node.node_id, node.node_id)
            assert Counter(ring.arc_items(alone, NS, attribute)) == chained(alone, attribute)


class TestWritePathsMaintain:
    @pytest.fixture()
    def ring(self) -> ChordRing:
        ring = ChordRing(6)
        ring.build(range(0, 64, 8))
        ring.node(8).store(NS, 1, info("cpu", 2.0))
        ring.node(8).store(NS, 1, info("mem", 5.0))
        ring.node(8).store(NS, 2, info("cpu", 4.0))
        ring.node(40).store(NS, 33, info("cpu", 6.0))
        check_arcs(ring)  # the namespace is indexed before the write under test
        return ring

    def test_store(self, ring):
        ring.node(24).store(NS, 20, info("cpu", 3.0))
        ring.node(8).store(NS, 1, info("cpu", 2.0))  # a second, equal copy
        walk = ring.walk_arc(ring.node(8), 8, 24)
        assert Counter(ring.arc_items(walk, NS, "cpu")) == Counter(
            {info("cpu", 2.0): 2, info("cpu", 4.0): 1, info("cpu", 3.0): 1}
        )
        check_arcs(ring)

    def test_store_of_an_attribute_new_to_the_namespace(self, ring):
        ring.node(16).store(NS, 9, info("disk", 1.0))
        walk = ring.walk_arc(ring.node(16), 16, 16)
        assert ring.arc_items(walk, NS, "disk") == [info("disk", 1.0)]

    def test_remove_item(self, ring):
        assert ring.node(8).remove_item(NS, 1, info("cpu", 2.0))
        walk = ring.walk_arc(ring.node(8), 8, 8)
        assert ring.arc_items(walk, NS, "cpu") == [info("cpu", 4.0)]
        check_arcs(ring)

    def test_remove_items(self, ring):
        ring.node(8).remove_items(NS, 1)
        walk = ring.walk_arc(ring.node(8), 8, 8)
        assert ring.arc_items(walk, NS, "cpu") == [info("cpu", 4.0)]
        assert ring.arc_items(walk, NS, "mem") == []
        check_arcs(ring)

    def test_clear_storage(self, ring):
        ring.node(8).clear_storage()
        walk = ring.walk_arc(ring.node(0), 0, 63)
        assert ring.arc_items(walk, NS, "cpu") == [info("cpu", 6.0)]
        assert ring.arc_items(walk, NS, "mem") == []
        ring.node(8).store(NS, 1, info("cpu", 9.0))
        check_arcs(ring)

    def test_namespace_first_stored_after_indexing(self, ring):
        ring.node(8).store("other", 1, info("cpu", 7.0))
        walk = ring.walk_arc(ring.node(8), 8, 8)
        assert ring.arc_items(walk, "other", "cpu") == [info("cpu", 7.0)]
        assert Counter(ring.arc_items(walk, NS, "cpu")) == chained(walk, "cpu")

    def test_wrapping_arc_reads_both_ends(self, ring):
        ring.node(56).store(NS, 50, info("cpu", 1.0))
        ring.node(0).store(NS, 60, info("cpu", 8.0))
        walk = ring.walk_arc(ring.node(56), 50, 4)
        assert [n.node_id for n in walk] == [56, 0, 8]
        assert Counter(ring.arc_items(walk, NS, "cpu")) == chained(walk, "cpu")
        assert len(ring.arc_items(walk, NS, "cpu")) == 4

    def test_rebuilt_ring_starts_from_an_empty_directory(self, ring):
        ring.build(range(0, 64, 8))
        walk = ring.walk_arc(ring.node(0), 0, 63)
        assert ring.arc_items(walk, NS, "cpu") == []
        ring.node(8).store(NS, 1, info("cpu", 2.0))
        check_arcs(ring)

    def test_id_space_beyond_int64(self):
        # Holder ids are array('q'): wider rings are refused, the widest
        # admitted one fits.
        with pytest.raises(ValueError):
            ChordRing(70)
        ring = ChordRing(62)
        ring.build([3, 1 << 60, (1 << 61) + 5])
        ring.node(1 << 60).store(NS, 9, info("cpu", 2.0))
        walk = ring.walk_arc(ring.node(3), 3, 1 << 60)
        assert ring.arc_items(walk, NS, "cpu") == [info("cpu", 2.0)]
        ring.node((1 << 61) + 5).store(NS, 1 << 61, info("cpu", 3.0))
        check_arcs(ring)

    def test_node_outside_any_overlay_posts_nowhere(self):
        node = OverlayNode("n")
        node.store(NS, 1, info("cpu", 2.0))
        node.remove_items(NS, 1)
        node.clear_storage()
        assert node.items_in(NS) == []


def load(ring: ChordRing, count: int = 120) -> None:
    rng = random.Random(11)
    for i in range(count):
        item = info(ATTRIBUTES[i % 2], float(rng.randrange(20)), f"p{i}")
        ring.store(NS, rng.randrange(ring.id_space_size), item)


class TestOverlayWritesLandInIndexedNamespace:
    def test_graceful_leave_and_rejoin(self):
        ring = ChordRing(6)
        ring.build(range(0, 64, 2))
        load(ring)
        check_arcs(ring)
        loaded = [n.node_id for n in ring.nodes() if n.directory_size(NS)]
        for node_id in loaded[:6]:
            ring.leave(node_id)  # handover stores + the leaver's clear_storage
            check_arcs(ring)
        for node_id in loaded[:6]:
            ring.join(node_id)  # take-over: remove_items on the donor + stores
            check_arcs(ring)

    def test_repair_after_crash(self):
        ring = ChordRing(6, durability=successor_replication(2))
        ring.build_full()
        load(ring)
        check_arcs(ring)
        victim = next(n.node_id for n in ring.nodes() if n.directory_size(NS))
        ring.fail(victim)
        check_arcs(ring)
        ring.repair_replication()
        check_arcs(ring)


def snapshot(ring: ChordRing) -> dict:
    """The arc directory's content, copied."""
    return {
        namespace: {attr: (list(ids), list(items)) for attr, (ids, items) in tables.items()}
        for namespace, tables in ring._arcs.items()
    }


class TestOneSweepIndex:
    """The first arc read indexes every namespace in one pass; from then
    on the write paths keep every namespace current, new ones included."""

    @pytest.fixture()
    def mercury(self) -> MercuryService:
        schema = AttributeSchema.synthetic(3)
        service = MercuryService.build(6, 24, schema, seed=5)
        service.register_all(GridWorkload(schema, 20, seed=5).resource_infos())
        return service

    def test_first_arc_read_indexes_every_hub(self, mercury, monkeypatch):
        ring = mercury.ring
        hubs = [mercury._hub(name) for name in mercury.schema.names]
        first = ring.successor_of(0)
        everyone = ring.walk_arc(first, first.node_id, first.node_id - 1)
        assert not ring._arcs
        ring.arc_items(everyone, hubs[0], mercury.schema.names[0])
        assert set(ring._arcs) == set(hubs)

        def no_second_sweep(self, nodes):  # pragma: no cover - must not run
            raise AssertionError("indexed twice")

        monkeypatch.setattr(ArcDirectory, "index", no_second_sweep)
        for hub, attribute in zip(hubs, mercury.schema.names):
            expected = Counter(
                item for node in everyone for item in node.items_in(hub, attribute)
            )
            assert expected
            assert Counter(ring.arc_items(everyone, hub, attribute)) == expected

    def test_namespace_first_stored_after_indexing_is_served(self, mercury, monkeypatch):
        ring = mercury.ring
        first = ring.successor_of(0)
        everyone = ring.walk_arc(first, first.node_id, first.node_id - 1)
        ring.arc_items(everyone, "fresh", "cpu")
        assert ring._arcs and "fresh" not in ring._arcs
        monkeypatch.setattr(ArcDirectory, "index", None)  # a second sweep would fail
        ring.store("fresh", 17, info("cpu", 3.0))
        ring.store("fresh", 40, info("cpu", 1.0, "q"))
        assert Counter(ring.arc_items(everyone, "fresh", "cpu")) == Counter(
            {info("cpu", 3.0): 1, info("cpu", 1.0, "q"): 1}
        )
        holder = ring.successor_of(17)
        alone = ring.walk_arc(holder, holder.node_id, holder.node_id)
        assert ring.arc_items(alone, "fresh", "cpu") == [info("cpu", 3.0)]

    def test_removals_of_absent_keys_change_nothing(self, mercury):
        ring = mercury.ring
        first = ring.successor_of(0)
        everyone = ring.walk_arc(first, first.node_id, first.node_id - 1)
        ring.arc_items(everyone, "any", "cpu")
        node = next(n for n in ring.nodes() if n.directory_size())
        (namespace, key_id), bucket = next(iter(node._store.items()))
        layout, arcs = directory_layout(ring), snapshot(ring)
        assert node.remove_items("absent", key_id) == []
        assert node.remove_items(namespace, key_id + ring.id_space_size) == []
        assert not node.remove_item("absent", key_id, bucket[0])
        assert not node.remove_item(namespace, key_id + ring.id_space_size, bucket[0])
        assert not node.remove_item(namespace, key_id, info("absent", 0.0))
        assert directory_layout(ring) == layout
        assert snapshot(ring) == arcs
