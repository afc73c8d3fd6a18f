"""Hypothesis property tests on the core invariants.

These cover the load-bearing correctness properties:

* Proposition 3.1 — range-query containment between the two roots;
* Chord: lookup(key) == successor(key) under arbitrary membership;
* Cycloid: lookup lands on the closest node under arbitrary membership;
* storage conservation under arbitrary churn sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lorm import LormService
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.workloads.attributes import AttributeSchema

SCHEMA = AttributeSchema.synthetic(4)
SPEC = SCHEMA.specs[0]

slow = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# Chord properties
# ---------------------------------------------------------------------------
class TestChordProperties:
    @slow
    @given(
        members=st.sets(st.integers(0, 63), min_size=1, max_size=40),
        start_idx=st.integers(0, 1000),
        key=st.integers(0, 63),
    )
    def test_lookup_always_lands_on_successor(self, members, start_idx, key):
        ring = ChordRing(6)
        ring.build(members)
        ids = ring.node_ids
        start = ring.node(ids[start_idx % len(ids)])
        assert ring.lookup(start, key).owner is ring.successor_of(key)

    @slow
    @given(
        members=st.sets(st.integers(0, 63), min_size=2, max_size=40),
        keys=st.lists(st.integers(0, 63), min_size=1, max_size=20),
        victims=st.data(),
    )
    def test_storage_conserved_under_leaves(self, members, keys, victims):
        ring = ChordRing(6)
        ring.build(members)
        for key in keys:
            ring.store("ns", key, key)
        leaves = victims.draw(
            st.integers(0, max(0, ring.num_nodes - 2)), label="leave-count"
        )
        for _ in range(leaves):
            ring.leave(ring.node_ids[0])
        assert sum(n.directory_size("ns") for n in ring.nodes()) == len(keys)
        for key in keys:
            assert key in ring.successor_of(key).items_at("ns", key)

    @slow
    @given(members=st.sets(st.integers(0, 63), min_size=1, max_size=40))
    def test_ring_invariants_for_any_membership(self, members):
        ring = ChordRing(6)
        ring.build(members)
        ring.check_invariants()


# ---------------------------------------------------------------------------
# Cycloid properties
# ---------------------------------------------------------------------------
cycloid_ids = st.builds(
    CycloidId, st.integers(0, 3), st.integers(0, 15)
)


class TestCycloidProperties:
    @slow
    @given(
        members=st.sets(cycloid_ids, min_size=1, max_size=40),
        start_idx=st.integers(0, 1000),
        target=cycloid_ids,
    )
    def test_lookup_lands_on_closest(self, members, start_idx, target):
        overlay = CycloidOverlay(4)
        overlay.build(members)
        ids = overlay.node_ids
        start = overlay.node(ids[start_idx % len(ids)])
        assert overlay.lookup(start, target).owner is overlay.closest_node(target)

    @slow
    @given(members=st.sets(cycloid_ids, min_size=1, max_size=40))
    def test_leaf_invariants_for_any_membership(self, members):
        overlay = CycloidOverlay(4)
        overlay.build(members)
        overlay.check_invariants()

    @slow
    @given(
        members=st.sets(cycloid_ids, min_size=2, max_size=40),
        keys=st.lists(cycloid_ids, min_size=1, max_size=15),
        leave_count=st.integers(0, 10),
    )
    def test_storage_conserved_under_leaves(self, members, keys, leave_count):
        overlay = CycloidOverlay(4)
        overlay.build(members)
        for key in keys:
            overlay.store("ns", key, str(key))
        for _ in range(min(leave_count, overlay.num_nodes - 1)):
            overlay.leave(overlay.node_ids[0])
        assert sum(n.directory_size("ns") for n in overlay.nodes()) == len(keys)
        for key in keys:
            owner = overlay.closest_node(key)
            assert str(key) in owner.items_at("ns", overlay.linearize(key))


# ---------------------------------------------------------------------------
# Proposition 3.1 — LORM range containment
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def lorm() -> LormService:
    service = LormService.build_full(4, SCHEMA, seed=77)
    return service


class TestProposition31:
    @slow
    @given(
        quantiles=st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
        value_q=st.floats(0.001, 0.999),
    )
    def test_in_range_value_stored_between_roots(self, lorm, quantiles, value_q):
        """Any stored value inside [π1, π2] lives on a node between
        root(ℋ(π1)) and root(ℋ(π2)) in the cluster's cyclic order."""
        q1, q2 = sorted(quantiles)
        dist = SPEC.distribution
        pi1, pi2 = dist.ppf(q1), dist.ppf(q2)
        value = dist.ppf(q1 + value_q * (q2 - q1))  # inside [pi1, pi2]

        vh = lorm.value_hash(SPEC.name)
        cluster = lorm.attr_key(SPEC.name)
        owner = lorm.overlay.closest_node(CycloidId(vh(value), cluster))
        root1 = lorm.overlay.closest_node(CycloidId(vh(pi1), cluster))
        root2 = lorm.overlay.closest_node(CycloidId(vh(pi2), cluster))
        assert root1.k <= owner.k <= root2.k

    @slow
    @given(
        values=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_range_walk_finds_exactly_matching_values(self, values, bounds):
        """End-to-end Proposition 3.1: a fresh LORM instance loaded with
        arbitrary values answers an arbitrary range query exactly."""
        service = LormService.build_full(4, SCHEMA, seed=5)
        dist = SPEC.distribution
        concrete = [dist.ppf(q) for q in values]
        for i, v in enumerate(concrete):
            service.register(ResourceInfo(SPEC.name, v, f"p{i}"), routed=False)
        q1, q2 = sorted(bounds)
        lo, hi = dist.ppf(q1), dist.ppf(q2)
        result = service.query(Query(AttributeConstraint.between(SPEC.name, lo, hi)))
        expected = {f"p{i}" for i, v in enumerate(concrete) if lo <= v <= hi}
        assert result.providers == expected
