"""The arc directory's one indexing sweep.

The first arc read indexes every namespace in one pass; from then on the
node write paths keep every namespace current, new ones included, and
removals of absent keys or items leave it untouched.  What each write
path posts is checked after every step of the membership and service
state machines (``check_arcs``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.mercury import MercuryService
from repro.core.resource import ResourceInfo
from repro.overlay.chord import ChordRing
from repro.overlay.node import ArcDirectory
from repro.sim.invariants import directory_layout
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload


def info(attribute: str, value: float, provider: str = "p") -> ResourceInfo:
    return ResourceInfo(attribute, value, provider)


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
