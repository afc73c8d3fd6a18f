"""Bucket-level handover against the per-item loops it replaced.

``ChordRing.join`` and ``CycloidOverlay.join`` test each donor bucket's
owner before reading the bucket, and ``Overlay._depart`` places a one-item
bucket with one membership test.  The reference below is the three
methods as they were before, kept verbatim (Chord tested the owner once
per stored item, Cycloid built a ``Counter`` for every donor bucket, and
a departure built two ``Counter``s per bucket).  Twin overlays — one per
implementation, same ids, same durability — are loaded with multi-item
buckets and duplicate items and driven through the same seeded joins,
leaves, fails, stores, repairs and sweeps; after every step both must
agree on every node's directory (bucket order and item order,
``directory_layout``), on the ``ArcDirectory`` and on the maintenance
message count.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any

import pytest

from repro.core.resource import ResourceInfo
from repro.overlay.chord import ChordNode, ChordRing
from repro.overlay.cycloid import CycloidId, CycloidNode, CycloidOverlay
from repro.sim.durability import successor_replication
from repro.sim.invariants import directory_layout
from repro.utils.validation import require

# ----------------------------------------------------------------------
# The reference: the replaced handover, verbatim.
# ----------------------------------------------------------------------


def _seed_depart(self, node_id: Any, handover: bool) -> None:
    node_id = self._normalize_id(node_id)
    if node_id not in self._nodes:
        raise ValueError(
            f"node {node_id} is not a live member "
            f"(population {self.num_nodes})"
        )
    require(self.num_nodes > 1, "cannot remove the last ring node")
    node = self._nodes.pop(node_id)
    self._membership_remove(node_id)
    node.alive = False
    self.invalidate_routing_caches()
    if handover:
        for (namespace, key_id), pieces in node.bucket_counts().items():
            # With replication the heir usually holds replica copies
            # already; top up to the departing node's count instead of
            # duplicating, so identical items stay distinct pieces.
            heir = self._heir(node, key_id)
            held = Counter(heir.items_at(namespace, key_id))
            for item, count in pieces.items():
                for _ in range(count - held[item]):
                    heir.store(namespace, key_id, item)
        self.network.count_maintenance(2)  # departure notifications
    # A crashed node's memory is simply gone; neighbours detect the
    # failure via timeouts and repair locally.
    node.clear_storage()
    self._repair_neighbourhood(node)


class SeedChordRing(ChordRing):
    _depart = _seed_depart

    def join(self, node_id: int) -> ChordNode:
        node_id = self._normalize_id(node_id)
        require(node_id not in self._nodes, f"node {node_id} already present")
        had_members = bool(self._sorted_ids)
        node = ChordNode(node_id, self.bits, self._arcs)
        self._nodes[node_id] = node
        self._membership_add(node_id)
        self.invalidate_routing_caches()
        self._refresh_routing_state(node)
        self.network.count_maintenance(self.bits)  # building its state

        if had_members:
            succ = self.successor_of(node_id + 1)
            # Transfer the keys the newcomer is now responsible for.
            if succ is not node:
                moved = 0
                for namespace, key_id, item in succ.stored_entries():
                    if self.successor_of(key_id) is node:
                        succ.remove_items(namespace, key_id)  # removes bucket
                        node.store(namespace, key_id, item)
                        moved += 1
                if moved:
                    self.network.count_maintenance(1)
            self._repair_neighbourhood(node)
        return node


class SeedCycloidOverlay(CycloidOverlay):
    _depart = _seed_depart

    def join(self, cid: CycloidId) -> CycloidNode:
        cid = self._normalize_id(cid)
        require(cid not in self._nodes, f"node {cid} already present")
        node = CycloidNode(cid, self._arcs)
        had_members = bool(self._nodes)

        self._nodes[cid] = node
        self._membership_add(cid)
        self.invalidate_routing_caches()

        self._refresh_routing_state(node)
        self.network.count_maintenance(7)
        if had_members:
            # Keys the newcomer now owns may sit on several donors: its own
            # cluster's members (intra-cluster redistribution) and the
            # nearest non-empty cluster on either side (keys whose target
            # cluster was empty and had been pushed outward).
            donors: list[CycloidNode] = [
                member for member in self.cluster_members(cid.a) if member is not node
            ]
            for direction in (-1, +1):
                adjacent = self._cluster_neighbor(cid.a, direction)
                if adjacent is not None and adjacent != cid.a:
                    donors.extend(self.cluster_members(adjacent))
            moved = 0
            incoming: dict[tuple[str, int], Counter] = {}
            for donor in donors:
                for bucket_key, pieces in donor.bucket_counts().items():
                    if self.owner_of(bucket_key[1]) is not node:
                        continue
                    donor.remove_items(*bucket_key)
                    # Several donors can hold replica copies of the same
                    # piece; merge with max so the newcomer receives each
                    # piece's true multiplicity, not the sum over replicas.
                    bucket = incoming.setdefault(bucket_key, Counter())
                    for item, count in pieces.items():
                        if count > bucket[item]:
                            bucket[item] = count
            for (namespace, key_id), pieces in incoming.items():
                for item, count in pieces.items():
                    for _ in range(count):
                        node.store(namespace, key_id, item)
                        moved += 1
            if moved:
                self.network.count_maintenance(1)
        self._repair_neighbourhood(node)
        return node


# ----------------------------------------------------------------------
# Twins
# ----------------------------------------------------------------------
def _chord(cls, bits: int, count: int | None):
    size = 1 << bits
    ids = range(size) if count is None else random.Random(bits).sample(range(size), count)

    def build(copies: int):
        ring = cls(bits, durability=successor_replication(copies))
        ring.build(ids)
        return ring

    return build


def _cycloid(cls, dimension: int, count: int | None):
    ids = [CycloidId(k, a) for a in range(1 << dimension) for k in range(dimension)]
    if count is not None:
        ids = random.Random(dimension).sample(ids, count)

    def build(copies: int):
        overlay = cls(dimension, durability=successor_replication(copies))
        overlay.build(ids)
        return overlay

    return build


#: name -> (reference builder, subject builder)
PAIRS = {
    "chord-full": (_chord(SeedChordRing, 6, None), _chord(ChordRing, 6, None)),
    "chord-sparse": (_chord(SeedChordRing, 7, 40), _chord(ChordRing, 7, 40)),
    "cycloid-full": (_cycloid(SeedCycloidOverlay, 4, None), _cycloid(CycloidOverlay, 4, None)),
    "cycloid-sparse": (_cycloid(SeedCycloidOverlay, 4, 30), _cycloid(CycloidOverlay, 4, 30)),
}

#: A few keys under which many items pile up, so buckets hold several
#: items, some of them equal.
_ATTRIBUTES = ("cpu", "mem", "disk")


def _draw_store(rng: random.Random, overlay) -> tuple[str, Any, ResourceInfo]:
    key = overlay.key_of(rng.randrange(0, overlay.id_space_size, 3))
    item = ResourceInfo(rng.choice(_ATTRIBUTES), float(rng.randrange(4)), f"p{rng.randrange(3)}")
    return rng.choice(("ns-a", "ns-b")), key, item


def _observe(overlay) -> tuple:
    return (
        directory_layout(overlay),
        {ns: dict(tables) for ns, tables in overlay._arcs.items()},
        overlay.network.stats.maintenance_messages,
    )


def run_twins(name: str, copies: int, seed: int, events: int = 80) -> Counter:
    """Drive both twins through one seeded storm, comparing after every
    step; returns what the storm exercised."""
    reference, subject = (build(copies) for build in PAIRS[name])
    twins = (reference, subject)
    rng = random.Random(seed)
    for _ in range(60):
        entry = _draw_store(rng, subject)
        for overlay in twins:
            overlay.store(*entry)
    for overlay in twins:
        overlay._arcs.index(overlay._nodes.values())
    assert _observe(reference) == _observe(subject)
    departed: list = []
    seen: Counter = Counter()
    for step in range(events):
        ids = subject.node_ids
        roll = rng.random()
        if roll < 0.45 and len(ids) > 4:
            uid = ids[rng.randrange(len(ids))]
            op = "leave" if roll < 0.3 else "fail"
            held = subject.node(uid).buckets()
            seen["multi-item departures"] += any(len(bucket) > 1 for _, bucket in held)
            seen["one-item departures"] += any(len(bucket) == 1 for _, bucket in held)
            departed.append(uid)
            args: tuple = (uid,)
        elif roll < 0.7:
            if departed and rng.random() < 0.5:
                uid = departed.pop(rng.randrange(len(departed)))
            else:
                uid = subject.key_of(rng.randrange(subject.id_space_size))
            if uid in subject:
                continue
            op, args = "join", (uid,)
        elif roll < 0.85:
            op, args = "store", _draw_store(rng, subject)
        elif roll < 0.93:
            op, args = "repair_replication", ()
        else:
            op, args = "stabilize_all", ()
        for overlay in twins:
            getattr(overlay, op)(*args)
        assert _observe(reference) == _observe(subject), (step, op, args)
        if op == "join":
            received = subject.node(args[0]).buckets()
            seen["multi-item joins"] += any(len(bucket) > 1 for _, bucket in received)
    return seen


@pytest.mark.parametrize("copies", (1, 2, 3))
@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("seed", (0, 1))
def test_handover_matches_the_per_item_loops(name, copies, seed):
    seen = run_twins(name, copies, seed)
    assert seen["multi-item joins"], seen
    assert seen["multi-item departures"] and seen["one-item departures"], seen

