"""MAAN — the single-DHT-based *decentralized* comparator (Cai et al., 2004).

MAAN registers each resource-information piece **twice** on one Chord ring:
once under the consistent hash of its attribute name and once under the
locality-preserving hash of its value.  Consequently (Theorem 4.2) its
total stored information is twice everyone else's, and every query needs
**two** lookups per attribute — attribute root and value root — doubling
its non-range hop count (Theorems 4.7/4.8).  Range queries walk ring
successors from ℋ(π1) to ℋ(π2); because values of *all* attributes are
spread over the whole ring, the walk spans the entire system
(Theorem 4.9's ``m(2 + n/4)`` visited nodes).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, ClassVar

from repro.baselines.base import ChordBackedService
from repro.core.resource import Query, QueryResult, ResourceInfo

__all__ = ["MaanService"]

_ATTR_NS = "maan:attr"
_VALUE_NS = "maan:value"


class MaanService(ChordBackedService):
    """Single-DHT decentralized discovery with split attribute/value maps."""

    name: ClassVar[str] = "MAAN"

    #: Attribute root first, then the value root (Theorems 4.7/4.8).
    lookups_per_attribute: ClassVar[int] = 2

    def max_visited_per_subquery(self) -> int:
        # Range: the attribute root plus a value-arc walk that can span
        # the whole ring (Theorem 4.9).
        return self.ring.num_nodes + 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """Two insertions: attribute map and value map (two pieces stored).

        A salting plan spreads the attribute-map insertion over all ``S``
        salted roots; the value map is untouched (its load spreads by
        value hashing already).
        """
        attr_keys = self.attr_store_keys(info.attribute)
        value_key = self.value_hash(info.attribute)(info.value)
        if not routed:
            for attr_key in attr_keys:
                self.ring.store(_ATTR_NS, attr_key, info)
            self.ring.store(_VALUE_NS, value_key, info)
            hops = 0
        else:
            origin = self.random_node()
            hops = 0
            for attr_key in attr_keys:
                hops += self.ring.routed_store(origin, _ATTR_NS, attr_key, info).hops
            hops += self.ring.routed_store(origin, _VALUE_NS, value_key, info).hops
            self.metrics.record("register.hops", hops)
        if self.hot_replicator is not None:
            self.hot_replicator.on_register(info, attr_keys[0])
        return hops

    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw all stored copies (attribute map roots and value map)."""
        removed = sum(
            self.ring.discard(_ATTR_NS, attr_key, info)
            for attr_key in self.attr_store_keys(info.attribute)
        )
        value_key = self.value_hash(info.attribute)(info.value)
        removed += self.ring.discard(_VALUE_NS, value_key, info)
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """Two lookups per attribute; range queries additionally walk the
        value arc across the whole ring."""
        start = self._resolve_start(start)
        constraint = q.constraint
        spec = self.schema.spec(q.attribute)
        vh = self.value_hash(q.attribute)

        # Lookup 1: the attribute root (checks its directory) — under a
        # mitigation, the requester's stable salted root or hot replica.
        attr_route, _, _ = self.attr_read_target(q.attribute, q.requester, _ATTR_NS)
        attr_lookup = self.ring.lookup(start, attr_route)
        if not attr_lookup.complete:
            return self._failed_result(attr_lookup)
        self.ring.network.count_directory_check(1)
        stats = self.load_stats
        if stats is not None:
            stats.record_serve(attr_lookup.owner.uid, q.attribute)
            stats.record_route_path(attr_lookup.path)

        if not q.is_range:
            # Lookup 2: the value root answers the point query.
            value_key = vh(constraint.low)
            value_lookup = self.ring.lookup(start, value_key)
            hops = attr_lookup.hops + value_lookup.hops
            retries = attr_lookup.retries + value_lookup.retries
            if not value_lookup.complete:
                self._record(hops, 1)
                return QueryResult(
                    matches=(), hops=hops, visited_nodes=1,
                    complete=False, retries=retries,
                    timed_out=value_lookup.timed_out,
                )
            matches = tuple(
                value_lookup.owner.items_at(
                    _VALUE_NS, value_key, q.attribute, *constraint.bounds
                )
            )
            self.ring.network.count_directory_check(1)
            if stats is not None:
                stats.record_serve(value_lookup.owner.uid, q.attribute)
                stats.record_route_path(value_lookup.path)
            self._record(hops, 2)
            return QueryResult(
                matches=matches, hops=hops, visited_nodes=2, retries=retries
            )

        # Lookup 2 + walk: value roots across the queried arc.
        low, high = constraint.bounds_within(spec.lo, spec.hi)
        k1, k2 = vh.hash_range(low, high)
        value_lookup = self.ring.lookup(start, k1)
        if not value_lookup.complete:
            hops = attr_lookup.hops + value_lookup.hops
            self._record(hops, 1)
            return QueryResult(
                matches=(), hops=hops, visited_nodes=1,
                complete=False,
                retries=attr_lookup.retries + value_lookup.retries,
                timed_out=value_lookup.timed_out,
            )
        walk = self.ring.walk_arc(value_lookup.owner, k1, k2)
        matches: tuple = ()
        if self.collect_matches:
            attribute = q.attribute
            low_value, high_value = constraint.bounds
            matches = tuple(chain.from_iterable(
                node.items_in(_VALUE_NS, attribute, low_value, high_value)
                for node in walk
            ))
        hops = attr_lookup.hops + value_lookup.hops + (len(walk) - 1)
        visited = 1 + len(walk)  # attribute root + every walked value node
        self.ring.network.count_hop(len(walk) - 1)
        self.ring.network.count_directory_check(len(walk))
        if stats is not None:
            stats.record_serves((node.uid for node in walk), q.attribute)
            stats.record_route_path(value_lookup.path)
        self._record(hops, visited)
        return QueryResult(
            matches=matches, hops=hops, visited_nodes=visited,
            complete=not walk.truncated,
            retries=attr_lookup.retries + value_lookup.retries + walk.retries,
            timed_out=walk.timed_out,
        )

    def _record(self, hops: int, visited: int) -> None:
        self.metrics.record_pair("query.hops", hops, "query.visited", visited)
