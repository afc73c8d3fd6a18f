"""The slice walk and the arc read against their per-node references.

With the routing caches on, a fault-free ``ChordRing.walk_arc`` is cut from
the membership index and Mercury's / MAAN's range reads answer from the
overlay's arc directory; ``routing_cache=False`` keeps the stepped pointer
walk and the chained per-node reads.  The property: over any interleaving
of register / deregister / join / leave / fail / ``repair_replication`` and
reads, on rings down to one node, the two agree — the same ``WalkResult``
node for node, the same items as multisets, the same ``QueryResult``
accounting.  Reads are interleaved with the writes so an arc directory that
misses a write is caught at the next read.  ``SingleHopRing`` never
disseminates here (no stabilize call: a zero budget), and must keep walking
its own pointers.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.maan import MaanService
from repro.baselines.mercury import MercuryService
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.overlay.chord import ChordRing
from repro.overlay.singlehop import SingleHopRing
from repro.sim.durability import successor_replication
from repro.workloads.attributes import AttributeSchema

SCHEMA = AttributeSchema.synthetic(3)
BITS = 6
SIZE = 1 << BITS

slow = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ring_id = st.integers(0, SIZE - 1)
attr_index = st.integers(0, len(SCHEMA) - 1)
#: A value as eighths of its attribute's domain: equal values are common.
eighths = st.integers(0, 8)
#: Arc lengths: degenerate, short, half, and one key short of the full ring.
arc_span = st.sampled_from((0, 1, 5, SIZE // 2, SIZE - 1))

op_st = st.one_of(
    st.tuples(st.just("register"), attr_index, eighths, st.integers(0, 5)),
    st.tuples(st.just("deregister"), st.integers(0, 40)),
    st.tuples(st.just("join"), ring_id),
    st.tuples(st.just("leave"), ring_id),
    st.tuples(st.just("fail"), ring_id),
    st.tuples(st.just("repair")),
    st.tuples(st.just("query"), attr_index, eighths, eighths, ring_id),
    st.tuples(st.just("walk"), st.integers(0, 2 * SIZE), ring_id, arc_span),
)


def value_of(index: int, eighth: int) -> float:
    spec = SCHEMA.specs[index]
    return spec.lo + (spec.hi - spec.lo) * eighth / 8


def reference(ring: ChordRing, call, *args):
    """``call(*args)`` on the reference path: stepped walk, per-node reads."""
    ring.routing_cache = False
    try:
        return call(*args)
    finally:
        ring.routing_cache = True


def check_walk(ring: ChordRing, start, from_key: int, until_key: int) -> None:
    sliced = ring.walk_arc(start, from_key, until_key)
    stepped = reference(ring, ring.walk_arc, start, from_key, until_key)
    assert list(sliced) == list(stepped)
    assert (sliced.truncated, sliced.retries, sliced.timed_out) == (
        stepped.truncated, stepped.retries, stepped.timed_out,
    )
    assert not stepped.contiguous
    assert sliced.contiguous is ring.successors_track_membership
    namespaces = {ns for node in ring.nodes() for ns, _, _ in node.stored_entries()}
    for namespace in namespaces:
        for attribute in SCHEMA.names:
            chained = Counter(
                item
                for node in stepped
                for item in node.items_in(namespace)
                if item.attribute == attribute
            )
            assert Counter(ring.arc_items(sliced, namespace, attribute)) == chained


def check_query(service, query: Query, start) -> None:
    ring = service.ring
    got = service.query(query, start)
    want = reference(ring, service.query, query, start)
    assert Counter(got.matches) == Counter(want.matches)
    assert (got.visited_nodes, got.complete) == (want.visited_nodes, want.complete)
    if ring.successors_track_membership:
        # (A single-hop lookup learns departures as it probes, so its
        # second run may retry less.)
        assert (got.hops, got.retries) == (want.hops, want.retries)


@pytest.mark.parametrize("ring_cls", (ChordRing, SingleHopRing))
@pytest.mark.parametrize("replication", (1, 2))
@pytest.mark.parametrize("service_cls", (MercuryService, MaanService))
@slow
@given(
    members=st.sets(ring_id, min_size=1, max_size=12),
    ops=st.lists(op_st, max_size=30),
)
def test_arc_reads_equal_per_node_reads(service_cls, replication, ring_cls, members, ops):
    ring = ring_cls(BITS, durability=successor_replication(replication))
    ring.build(members)
    service = service_cls(ring, SCHEMA, seed=0)
    registered: list[ResourceInfo] = []

    def member(pick: int):
        ids = ring.node_ids
        return ring.node(ids[pick % len(ids)])

    for op, *args in ops:
        if op == "register":
            index, eighth, provider = args
            info = ResourceInfo(SCHEMA.names[index], value_of(index, eighth), f"p{provider}")
            service.register(info, routed=False)
            registered.append(info)
        elif op == "deregister":
            if registered:
                service.deregister(registered.pop(args[0] % len(registered)))
        elif op == "join":
            if args[0] not in ring:
                ring.join(args[0])
        elif op in ("leave", "fail"):
            if ring.num_nodes > 1:
                getattr(ring, op)(member(args[0]).node_id)
        elif op == "repair":
            ring.repair_replication()
        elif op == "query":
            index, a, b, pick = args
            low, high = sorted((value_of(index, a), value_of(index, b)))
            constraint = AttributeConstraint.between(SCHEMA.names[index], low, high)
            check_query(service, Query(constraint), member(pick))
        else:
            pick, from_key, span = args
            # Even picks start where the engine does, odd ones anywhere.
            start = member(pick) if pick % 2 else ring.successor_of(from_key)
            check_walk(ring, start, from_key, (from_key + span) % SIZE)

    # Whatever the sequence drew: the full ring (wrapping unless it starts
    # at the lowest id) and the empty arc, over the final directories.
    start = member(len(ops))
    check_walk(ring, start, start.node_id, (start.node_id - 1) % SIZE)
    check_walk(ring, start, start.node_id, start.node_id)
