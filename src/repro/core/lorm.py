"""LORM — Low-Overhead Range-query Multi-attribute resource discovery.

The paper's contribution (Section III): a single hierarchical Cycloid DHT
in which

* the **cubical index** of a resource ID is the consistent hash of the
  attribute name — so each *cluster* is responsible for one attribute;
* the **cyclic index** is the locality-preserving hash of the attribute
  value — so within a cluster, nodes partition the value range in order.

A resource ID is therefore ``rescID = (ℋ(π_a), H(a))`` and is stored at
its root via Cycloid's ``Insert``.  A non-range query is one Cycloid
lookup; a range query ``[π1, π2]`` routes to ``root(ℋ(π1), H(a))`` and
forwards along cluster successors until the node owning ``ℋ(π2)`` — by
Proposition 3.1 every node holding values in range lies between the two
roots, so the walk (at most ``d`` nodes, on average ``1 + d/4``) is
complete.  Multi-attribute queries resolve the per-attribute sub-queries
in parallel and join on provider address.
"""

from __future__ import annotations

from typing import Any, ClassVar

import numpy as np

from repro.baselines.base import DiscoveryService
from repro.core.resource import Query, QueryResult, ResourceInfo, select_matches
from repro.hashing.consistent import ConsistentHash
from repro.hashing.locality import LocalityPreservingHash
from repro.hashing.spread import spread_attribute_ids
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.sim.metrics import MetricsRegistry
from repro.utils.seeding import SeedFactory
from repro.workloads.attributes import AttributeSchema

__all__ = ["LormService"]

_NAMESPACE = "lorm"


class LormService(DiscoveryService):
    """LORM resource discovery on a Cycloid overlay.

    LORM also runs in a *flat* mode over any Chord-family ring substrate
    (plain Chord, single-hop, ReCord): the two-level resource ID
    ``(ℋ(value), H(attribute))`` is linearized onto the ring exactly the
    way Cycloid linearizes it (``cluster * d + cyclic``), so each
    attribute owns a contiguous ID arc and range queries become successor
    walks over that arc.  The mode is selected automatically from the
    substrate (anything without ``walk_cluster``); placement, oracle
    exactness and the per-cluster visit bound carry over unchanged.

    Examples
    --------
    >>> from repro.workloads.attributes import AttributeSchema
    >>> schema = AttributeSchema.synthetic(4)
    >>> service = LormService.build_full(dimension=4, schema=schema, seed=7)
    >>> info = ResourceInfo("cpu-mhz", 2400.0, "grid-node-00001")
    >>> _ = service.register(info)
    >>> from repro.core.resource import AttributeConstraint, Query
    >>> q = Query(AttributeConstraint.at_least("cpu-mhz", 2000.0))
    >>> service.query(q).providers
    frozenset({'grid-node-00001'})
    """

    name: ClassVar[str] = "LORM"

    def __init__(
        self,
        overlay: CycloidOverlay,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        lph_kind: str = "cdf",
        attr_placement: str = "spread",
        dimension: int | None = None,
    ) -> None:
        self.overlay = overlay
        #: Flat mode: the substrate is a Chord-family ring, not Cycloid —
        #: resource IDs are linearized onto the ring (see class docstring).
        self._flat = not hasattr(overlay, "walk_cluster")
        if self._flat:
            if dimension is None:
                raise ValueError("flat-substrate LORM needs an explicit dimension")
            self.dimension = dimension
        else:
            self.dimension = overlay.dimension
        self.schema = schema
        self.lph_kind = lph_kind
        #: See ChordBackedService.collect_matches — same accounting-only mode.
        self.collect_matches = True
        self.metrics = MetricsRegistry()
        self._seeds = SeedFactory(seed).fork("service:LORM")
        self._rng: np.random.Generator = self._seeds.numpy("queries")
        self._churn_rng: np.random.Generator = self._seeds.numpy("churn")
        #: H — consistent hash of attribute names onto the 2**d clusters.
        self.attr_hash = ConsistentHash(bits=self.dimension)
        #: "spread" assigns each attribute its own cluster (the paper's
        #: "each cluster is responsible for one attribute" model; requires
        #: m <= 2**d); "hash" is plain consistent hashing with collisions.
        self.attr_placement = attr_placement
        self._attr_ids: dict[str, int] | None = None
        self._value_hashes: dict[str, LocalityPreservingHash] = {}
        self._departed: list[CycloidId] = []

    @classmethod
    def build_full(
        cls,
        dimension: int,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        replication: int = 1,
        durability: Any | None = None,
        **kwargs: Any,
    ) -> "LormService":
        """LORM over a fully populated ``d * 2**d``-node Cycloid."""
        overlay = CycloidOverlay(dimension, replication=replication, durability=durability)
        overlay.build_full()
        return cls(overlay, schema, seed=seed, **kwargs)

    @classmethod
    def build_flat(
        cls,
        dimension: int,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        replication: int = 1,
        durability: Any | None = None,
        ring_factory: Any | None = None,
        population: int | None = None,
        **kwargs: Any,
    ) -> "LormService":
        """LORM over a flat ring substrate at the Cycloid population.

        The ring is just wide enough to host the ``d * 2**d`` linearized
        resource IDs; ``ring_factory`` picks the routing tier (defaults to
        plain :class:`~repro.overlay.chord.ChordRing`) and membership is
        sampled from the same seeded stream Chord-backed services use.
        """
        from repro.overlay.chord import ChordRing

        capacity = dimension * (1 << dimension)
        bits = max(2, (capacity - 1).bit_length())
        make = ring_factory if ring_factory is not None else ChordRing
        ring = make(bits, replication=replication, durability=durability)
        population = capacity if population is None else population
        if population >= ring.space.size:
            ring.build_full()
        else:
            rng = SeedFactory(seed).numpy(f"{cls.name}-membership")
            ids = rng.choice(ring.space.size, size=population, replace=False)
            ring.build(int(i) for i in ids)
        return cls(ring, schema, seed=seed, dimension=dimension, **kwargs)

    # ------------------------------------------------------------------
    # ID mapping
    # ------------------------------------------------------------------
    def value_hash(self, attribute: str) -> LocalityPreservingHash:
        """ℋ for ``attribute`` — onto the cyclic-index space ``[0, d)``."""
        vh = self._value_hashes.get(attribute)
        if vh is None:
            vh = self.schema.spec(attribute).value_hash(
                size=self.dimension, kind=self.lph_kind
            )
            self._value_hashes[attribute] = vh
        return vh

    def attr_key(self, attribute: str) -> int:
        """The cubical (cluster) index of ``attribute``."""
        if self.attr_placement == "hash":
            return self.attr_hash(attribute)
        if self._attr_ids is None:
            self._attr_ids = spread_attribute_ids(self.schema.names, self.attr_hash)
        try:
            return self._attr_ids[attribute]
        except KeyError:
            raise KeyError(
                f"attribute {attribute!r} is not in the globally-known schema "
                f"({len(self.schema)} attributes)"
            ) from None

    def resc_id(self, attribute: str, value: float) -> CycloidId:
        """``rescID = (ℋ(value), H(attribute))`` (Section III)."""
        return CycloidId(self.value_hash(attribute)(value), self.attr_key(attribute))

    def _store_key(self, attribute: str, value: float) -> Any:
        """The substrate-native storage key for ``(attribute, value)``.

        Native Cycloid uses the two-level rescID; a flat ring gets the
        same ID linearized the way Cycloid itself would
        (``cluster * d + cyclic``), so each attribute owns a contiguous
        arc of ``d`` ring IDs.
        """
        cyclic = self.value_hash(attribute)(value)
        cluster = self.attr_key(attribute)
        if self._flat:
            return cluster * self.dimension + cyclic
        return CycloidId(cyclic, cluster)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """``Insert(rescID, rescInfo)`` — one Cycloid insertion."""
        key = self._store_key(info.attribute, info.value)
        if not routed:
            self.overlay.store(_NAMESPACE, key, info)
            return 0
        result = self.overlay.routed_store(self.random_node(), _NAMESPACE, key, info)
        self.metrics.record("register.hops", result.hops)
        return result.hops

    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw the info from its rescID root (and replicas)."""
        key = self._store_key(info.attribute, info.value)
        return self.overlay.discard(_NAMESPACE, key, info)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """One Cycloid lookup; range queries walk the attribute's cluster."""
        start = self._resolve_start(start)
        constraint = q.constraint
        spec = self.schema.spec(q.attribute)
        vh = self.value_hash(q.attribute)
        cluster = self.attr_key(q.attribute)

        if not q.is_range:
            if self._flat:
                key = cluster * self.dimension + vh(constraint.low)
                stored_at = key
            else:
                key = CycloidId(vh(constraint.low), cluster)
                stored_at = self.overlay.linearize(key)
            lookup = self.overlay.lookup(start, key)
            if not lookup.complete:
                return self._failed_result(lookup)
            matches = select_matches(
                (lookup.owner.items_at(_NAMESPACE, stored_at),), constraint
            )
            self.overlay.network.count_directory_check(1)
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
        if self._flat:
            # The attribute's cyclic range is a contiguous ring arc under
            # the linearized ID — a successor walk covers it completely.
            key1 = cluster * self.dimension + k1
            key2 = cluster * self.dimension + k2
            lookup = self.overlay.lookup(start, key1)
            if not lookup.complete:
                return self._failed_result(lookup)
            walk = self.overlay.walk_arc(lookup.owner, key1, key2)
        else:
            lookup = self.overlay.lookup(start, CycloidId(k1, cluster))
            if not lookup.complete:
                return self._failed_result(lookup)
            walk = self.overlay.walk_cluster(lookup.owner, k1, k2)
        matches: tuple = ()
        if self.collect_matches:
            matches = select_matches(
                (node.items_in(_NAMESPACE) for node in walk), constraint
            )
        hops = lookup.hops + (len(walk) - 1)
        self.overlay.network.count_hop(len(walk) - 1)
        self.overlay.network.count_directory_check(len(walk))
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
    def structural_hop_bound(self) -> int:
        if self._flat:
            # Chord-family substrate: the classic halving ceiling.
            return self.overlay.bits + 1
        # Cycloid's lookup termination ceiling: the adaptive descend plus
        # the deterministic fallback sweep never exceed this on a live,
        # stabilized overlay.
        return 10 * self.overlay.dimension + 3 * self.overlay.num_clusters + 4

    def max_visited_per_subquery(self) -> int:
        # A range walk stays inside one cluster (Proposition 3.1), and a
        # cluster holds at most ``d`` nodes; the linearized arc on a flat
        # ring spans at most ``d`` IDs, so the same bound carries over.
        return self.dimension
