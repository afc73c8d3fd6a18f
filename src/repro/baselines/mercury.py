"""Mercury — the multi-DHT-based comparator (Bharambe et al., 2004).

Mercury maintains one *attribute hub* per attribute type; every grid node
joins every hub, and within a hub resource information is indexed by the
locality-preserving hash of its *value*, so range queries are resolved by
walking hub successors over the queried value arc.  Per the paper's setup,
hubs are Chord rings, and the record/pointer optimisation is disabled
("To make the different methods be comparable, we don't consider this
strategy").

Simulation note — since all m hubs have identical membership and are
structurally isomorphic, they are realised as *one* physical ring carrying
m per-attribute namespaces.  Placement, hop counts and per-node directory
content are exactly those of m separate rings whose node IDs coincide; the
only metric that differs is structural maintenance, which is therefore
scaled by m explicitly (each node maintains a full routing table *per
hub*), matching how the paper accounts Mercury's overhead in Theorem 4.1
and Figure 3(a).
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.baselines.base import ChordBackedService
from repro.core.resource import Query, QueryResult, ResourceInfo, select_matches

__all__ = ["MercuryService"]


class MercuryService(ChordBackedService):
    """Multi-DHT resource discovery: one value-indexed Chord hub per attribute."""

    name: ClassVar[str] = "Mercury"

    @staticmethod
    def _hub(attribute: str) -> str:
        return f"hub:{attribute}"

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """Insert into the attribute's hub at the value's root."""
        key = self.value_hash(info.attribute)(info.value)
        namespace = self._hub(info.attribute)
        if not routed:
            self.ring.store(namespace, key, info)
            return 0
        result = self.ring.routed_store(self.random_node(), namespace, key, info)
        self.metrics.record("register.hops", result.hops)
        return result.hops

    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw the info from its hub (owner and replicas)."""
        key = self.value_hash(info.attribute)(info.value)
        return self.ring.discard(self._hub(info.attribute), key, info)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """One hub lookup; range queries walk hub successors over the arc."""
        start = self._resolve_start(start)
        constraint = q.constraint
        spec = self.schema.spec(q.attribute)
        vh = self.value_hash(q.attribute)
        namespace = self._hub(q.attribute)

        if not q.is_range:
            key = vh(constraint.low)  # point: low == high
            lookup = self.ring.lookup(start, key)
            if not lookup.complete:
                return self._failed_result(lookup)
            matches = select_matches((lookup.owner.items_at(namespace, key),), constraint)
            self.ring.network.count_directory_check(1)
            if self.load_stats is not None:
                self.load_stats.record_serve(lookup.owner.uid, q.attribute)
                self.load_stats.record_route_path(lookup.path)
            self._record(lookup.hops, 1)
            return QueryResult(
                matches=matches, hops=lookup.hops, visited_nodes=1,
                retries=lookup.retries,
            )

        low, high = constraint.bounds_within(spec.lo, spec.hi)
        k1, k2 = vh.hash_range(low, high)
        lookup = self.ring.lookup(start, k1)
        if not lookup.complete:
            return self._failed_result(lookup)
        walk = self.ring.walk_arc(lookup.owner, k1, k2)
        matches: tuple = ()
        if self.collect_matches:
            matches = select_matches(
                (node.items_in(namespace) for node in walk), constraint
            )
        hops = lookup.hops + (len(walk) - 1)
        self.ring.network.count_hop(len(walk) - 1)
        self.ring.network.count_directory_check(len(walk))
        if self.load_stats is not None:
            self.load_stats.record_serves((node.uid for node in walk), q.attribute)
            self.load_stats.record_route_path(lookup.path)
        self._record(hops, len(walk))
        return QueryResult(
            matches=matches, hops=hops, visited_nodes=len(walk),
            complete=not walk.truncated,
            retries=lookup.retries + walk.retries,
            timed_out=walk.timed_out,
        )

    def _record(self, hops: int, visited: int) -> None:
        self.metrics.record_pair("query.hops", hops, "query.visited", visited)

    # ------------------------------------------------------------------
    # Structure metrics
    # ------------------------------------------------------------------
    def outlink_counts(self) -> list[int]:
        """Each node maintains a routing table in *every* hub (m of them)."""
        num_hubs = len(self.schema)
        return [num_hubs * links for links in super().outlink_counts()]

    def maintenance_scale(self) -> int:
        """Structural maintenance multiplier (one full DHT per attribute)."""
        return len(self.schema)
