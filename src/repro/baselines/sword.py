"""SWORD — the single-DHT-based *centralized* comparator (Oppenheimer et
al., 2004; Chord substrate per the paper's setup).

SWORD pools all resource information of a given attribute at a single
directory node — the root of the consistent hash of the attribute name.
Point and range queries alike are answered entirely by that root, so a
range query visits exactly one node per attribute (Theorem 4.9's ``m``
visited nodes), at the price of extreme directory imbalance: with m=200
attributes, all 100k info pieces pile up on 200 of the 2048 nodes
(Figure 3(c)).
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.baselines.base import ChordBackedService
from repro.core.resource import Query, QueryResult, ResourceInfo

__all__ = ["SwordService"]

_NAMESPACE = "sword"


class SwordService(ChordBackedService):
    """Single-DHT centralized discovery: one directory node per attribute."""

    name: ClassVar[str] = "SWORD"

    def max_visited_per_subquery(self) -> int:
        # The attribute root answers alone, point or range (Theorem 4.9).
        return 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """Insert at the attribute root, ``successor(H(attribute))`` —
        or at all ``S`` salted roots under a salting plan."""
        keys = self.attr_store_keys(info.attribute)
        if not routed:
            for key in keys:
                self.ring.store(_NAMESPACE, key, info)
            hops = 0
        else:
            origin = self.random_node()
            hops = 0
            for key in keys:
                hops += self.ring.routed_store(origin, _NAMESPACE, key, info).hops
            self.metrics.record("register.hops", hops)
        if self.hot_replicator is not None:
            self.hot_replicator.on_register(info, keys[0])
        return hops

    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw the info from the attribute root(s)."""
        return sum(
            self.ring.discard(_NAMESPACE, key, info)
            for key in self.attr_store_keys(info.attribute)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """One lookup; the attribute root answers point and range queries
        alike from its pooled directory (no forwarding)."""
        start = self._resolve_start(start)
        constraint = q.constraint
        route_key, dir_ns, dir_key = self.attr_read_target(
            q.attribute, q.requester, _NAMESPACE
        )
        lookup = self.ring.lookup(start, route_key)
        if not lookup.complete:
            return self._failed_result(lookup)
        matches = tuple(
            lookup.owner.items_at(dir_ns, dir_key, q.attribute, *constraint.bounds)
        )
        self.ring.network.count_directory_check(1)
        if self.load_stats is not None:
            self.load_stats.record_serve(lookup.owner.uid, q.attribute)
            self.load_stats.record_route_path(lookup.path)
        self.metrics.record_pair("query.hops", lookup.hops, "query.visited", 1)
        return QueryResult(
            matches=matches, hops=lookup.hops, visited_nodes=1,
            retries=lookup.retries,
        )
