"""A filtered directory read never sees a stale ordered view.

The view behind ``items_at`` / ``items_in`` with an attribute is derived
state flushed by every write to its namespace.  One case per write path on
a bare node, then the overlay-level writes that land on a node which has
already answered a filtered read: graceful-leave handover, the joiner's
key transfer, and ``repair_replication`` after a crash.
"""

from __future__ import annotations

import random
from collections import Counter
from math import inf
from operator import attrgetter

import pytest

from repro.core.resource import AttributeConstraint, ResourceInfo, select_matches
from repro.overlay.node import OverlayNode
from repro.sim.durability import successor_replication
from tests.overlay.test_overlay_contract import OVERLAY_CLASSES, make_overlay

NS = "dir"
ATTRIBUTES = ("cpu", "mem")


def info(attribute: str, value: float, provider: str = "p") -> ResourceInfo:
    return ResourceInfo(attribute, value, provider)


class TestWritePathsFlush:
    @pytest.fixture()
    def node(self) -> OverlayNode:
        node = OverlayNode("n")
        node.store(NS, 1, info("cpu", 2.0))
        node.store(NS, 1, info("mem", 5.0))
        node.store(NS, 2, info("cpu", 4.0))
        # Both kinds of view exist before the write under test.
        assert node.items_at(NS, 1, "cpu") == [info("cpu", 2.0)]
        assert node.items_in(NS, "cpu") == [info("cpu", 2.0), info("cpu", 4.0)]
        return node

    def test_store(self, node):
        node.store(NS, 1, info("cpu", 3.0))
        assert node.items_at(NS, 1, "cpu") == [info("cpu", 2.0), info("cpu", 3.0)]
        assert node.items_in(NS, "cpu", 2.5, inf) == [info("cpu", 3.0), info("cpu", 4.0)]

    def test_remove_item(self, node):
        assert node.remove_item(NS, 1, info("cpu", 2.0))
        assert node.items_at(NS, 1, "cpu") == []
        assert node.items_in(NS, "cpu") == [info("cpu", 4.0)]

    def test_remove_items(self, node):
        node.remove_items(NS, 2)
        assert node.items_at(NS, 2, "cpu") == []
        assert node.items_in(NS, "cpu") == [info("cpu", 2.0)]

    def test_clear_storage(self, node):
        node.clear_storage()
        assert node.items_at(NS, 1, "cpu") == []
        assert node.items_in(NS, "cpu") == []
        node.store(NS, 1, info("cpu", 9.0))
        assert node.items_in(NS, "cpu") == [info("cpu", 9.0)]

    def test_other_namespace_keeps_its_own_answer(self, node):
        node.store("other", 1, info("cpu", 7.0))
        assert node.items_in(NS, "cpu") == [info("cpu", 2.0), info("cpu", 4.0)]
        assert node.items_in("other", "cpu") == [info("cpu", 7.0)]

    def test_missing_namespace_and_bucket_read_empty(self, node):
        assert node.items_in("absent", "cpu") == []
        assert node.items_at(NS, 99, "cpu") == []
        node.store(NS, 99, info("cpu", 1.0))
        assert node.items_at(NS, 99, "cpu") == [info("cpu", 1.0)]


class TestViewsAgreeWithTheScan:
    """A filtered read is ``select_matches`` over the raw bucket, in value
    order — for single-attribute buckets (whose view keeps no attribute
    list) and mixed ones alike."""

    BOUNDS = ((-inf, inf), (3.0, 3.0), (2.0, 6.0), (6.5, 7.5), (8.0, inf), (-inf, -1.0))

    @staticmethod
    def _node(attributes: tuple[str, ...], seed: int) -> OverlayNode:
        rng = random.Random(seed)
        node = OverlayNode("n")
        for i in range(40):
            # Values from a small range, so buckets hold ties.
            item = info(rng.choice(attributes), float(rng.randrange(8)), f"p{i}")
            node.store(NS, rng.randrange(4), item)
        return node

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("attributes", [("cpu",), ("cpu", "mem"), ("cpu", "disk", "mem")])
    def test_filtered_reads_equal_the_scan(self, attributes, seed):
        node = self._node(attributes, seed)
        keys = sorted({key_id for _, key_id in node.bucket_counts()})
        for attribute in (*ATTRIBUTES, "disk", "absent"):
            for low, high in self.BOUNDS:
                constraint = AttributeConstraint(
                    attribute, None if low == -inf else low, None if high == inf else high
                )
                for key_id in keys:
                    want = sorted(
                        select_matches([node.items_at(NS, key_id)], constraint),
                        key=attrgetter("value"),
                    )
                    assert node.items_at(NS, key_id, attribute, low, high) == want
                want = sorted(
                    select_matches([node.items_in(NS)], constraint), key=attrgetter("value")
                )
                assert node.items_in(NS, attribute, low, high) == want
        single = len(attributes) == 1
        assert all((view[1] is None) == single for view in node._views[NS].values())


def load(overlay, count: int = 120) -> list[ResourceInfo]:
    rng = random.Random(11)
    infos = [
        info(ATTRIBUTES[i % 2], float(rng.randrange(20)), f"p{i}") for i in range(count)
    ]
    for item in infos:
        overlay.store(NS, overlay.key_of(rng.randrange(overlay.id_space_size)), item)
    return infos


def filtered_census(overlay, low: float = 5.0, high: float = 15.0) -> Counter:
    """Every node's filtered reads, each checked against the brute-force
    filter of its un-filtered read; returns what the namespace reads saw."""
    seen: Counter = Counter()
    for node in overlay.nodes():
        for attribute in ATTRIBUTES:
            got = node.items_in(NS, attribute, low, high)
            assert Counter(got) == Counter(
                i for i in node.items_in(NS)
                if i.attribute == attribute and low <= i.value <= high
            )
            seen.update(got)
            for namespace, key_id in node.bucket_counts():
                got = node.items_at(namespace, key_id, attribute, low, high)
                assert Counter(got) == Counter(
                    i for i in node.items_at(namespace, key_id)
                    if i.attribute == attribute and low <= i.value <= high
                )
    return seen


@pytest.mark.parametrize("cls", OVERLAY_CLASSES)
class TestOverlayWritesLandOnViewedNodes:
    def test_graceful_leave_and_rejoin(self, cls):
        overlay = make_overlay(cls)
        infos = load(overlay)
        want = Counter(i for i in infos if 5.0 <= i.value <= 15.0)
        assert filtered_census(overlay) == want  # every node now holds views
        loaded = [n.uid for n in overlay.nodes() if n.directory_size(NS)]
        for uid in loaded[:6]:
            overlay.leave(uid)
            assert filtered_census(overlay) == want
        for uid in loaded[:6]:
            overlay.join(uid)
            assert filtered_census(overlay) == want

    def test_repair_after_crash(self, cls):
        overlay = make_overlay(cls, full=True, durability=successor_replication(2))
        infos = load(overlay)
        want = Counter(i for i in infos if 5.0 <= i.value <= 15.0)
        doubled = Counter({item: 2 * count for item, count in want.items()})
        assert filtered_census(overlay) == doubled
        victim = next(n.uid for n in overlay.nodes() if n.directory_size(NS))
        overlay.fail(victim)
        overlay.repair_replication()
        assert filtered_census(overlay) == doubled
