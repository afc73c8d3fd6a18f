"""Uniform discovery-service interface over all four approaches.

Every approach — LORM, Mercury, SWORD, MAAN — implements
:class:`DiscoveryService`: register resource information, resolve
single-attribute queries (point or range) with hop / visited-node
accounting, resolve multi-attribute queries as parallel sub-queries joined
on provider, and report the structural metrics of Figure 3 (per-node
outlinks and directory sizes).  The experiment harness and the equivalence
tests run identical workloads through this interface.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from typing import Any, ClassVar

import numpy as np

from repro.core.join import join_on_provider
from repro.core.resource import (
    MultiAttributeQuery,
    MultiQueryResult,
    Query,
    QueryResult,
    ResourceInfo,
)
from repro.hashing.consistent import ConsistentHash
from repro.hashing.locality import LocalityPreservingHash
from repro.hashing.spread import spread_attribute_ids
from repro.overlay.chord import ChordRing
from repro.sim.invariants import overlay_of
from repro.sim.metrics import MetricsRegistry
from repro.utils.seeding import SeedFactory
from repro.workloads.attributes import AttributeSchema

__all__ = ["DiscoveryService", "ChordBackedService"]


class DiscoveryService(ABC):
    """Abstract resource-discovery service (one per approach).

    Subclasses bind an overlay substrate and implement the placement and
    query strategies; accounting conventions are shared:

    * ``hops`` — overlay routing messages (Figure 4's logical hops);
    * ``visited_nodes`` — nodes that received the query and checked their
      directory (Figure 5/6b's metric).
    """

    #: Human-readable approach name used in reports ("LORM", "Mercury"…).
    name: ClassVar[str] = "abstract"

    #: Routed lookups per attribute sub-query (MAAN's dual attribute+value
    #: registration needs two; everyone else needs one — Theorem 4.2).
    lookups_per_attribute: ClassVar[int] = 1

    #: Optional hop-level :class:`~repro.obs.QueryTracer`.  ``None`` (the
    #: default, a plain class attribute so every subclass inherits it
    #: without ``__init__`` cooperation) keeps all traced code paths
    #: bypassed.
    tracer: Any | None = None

    #: The overlay network while a latency model is attached (``None``
    #: otherwise — a class attribute for the same reason as ``tracer``,
    #: so the no-latency hot path stays one ``is None`` check).
    _latency_net: Any | None = None

    #: Optional :class:`~repro.sim.loadstats.LoadStats` sink.  ``None``
    #: (the default, same class-attribute pattern as ``tracer``) keeps
    #: query paths free of load accounting — one ``is None`` check.
    load_stats: Any | None = None

    metrics: MetricsRegistry
    schema: AttributeSchema
    #: The query stream's RNG (entry-node draws); set by each substrate
    #: binding's constructor.
    _rng: np.random.Generator
    #: The churn stream's RNG (victim / rejoiner draws) and the departed
    #: node ids a later :meth:`churn_join` re-admits; same constructors.
    _churn_rng: np.random.Generator
    _departed: list

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Any | None) -> None:
        """Attach a :class:`~repro.obs.QueryTracer` to this service *and*
        its overlay substrate (``None`` detaches both).

        While attached, ``register`` / ``query`` / ``multi_query`` wrap
        their work in spans and the overlay emits one hop span per routed
        message; detached, the hot paths are byte-for-byte the untraced
        ones.
        """
        self.tracer = tracer
        overlay_of(self).tracer = tracer

    def attach_load_stats(self, stats: Any | None) -> None:
        """Attach a :class:`~repro.sim.loadstats.LoadStats` sink (``None``
        detaches it).  While attached, every resolved sub-query records
        serve load on the nodes that answered from their directory and
        route load on the intermediate hops; detached, the query paths are
        byte-for-byte the unmeasured ones."""
        self.load_stats = stats

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """Insert one resource-information piece; returns routing hops.

        ``routed=False`` places the item directly at its root (identical
        placement, no routing cost) — used to load paper-scale workloads
        quickly when only placement matters (Figure 3).
        """
        if self.tracer is None:
            return self._register_impl(info, routed=routed)
        with self.tracer.span(
            "register", f"{self.name}.register",
            attribute=info.attribute, routed=routed,
        ) as span:
            hops = self._register_impl(info, routed=routed)
            span.attrs["hops"] = hops
        return hops

    @abstractmethod
    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """Approach-specific placement behind :meth:`register`."""

    def register_all(self, infos: Iterable[ResourceInfo], *, routed: bool = True) -> int:
        """Register many infos; returns total hops."""
        return sum(self.register(info, routed=routed) for info in infos)

    @abstractmethod
    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw one previously registered info piece.

        Returns the number of stored copies removed (0 if absent).  Used
        by lease expiry: the paper's nodes "report available resources
        periodically", so reports that stop being renewed age out.
        """

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, q: Query, start: Any | None = None) -> QueryResult:
        """Resolve one single-attribute query from entry node ``start``
        (random when omitted)."""
        if self.tracer is None:
            if self._latency_net is None:
                return self._query_impl(q, start)
            return self._timed_query(q, start)
        with self.tracer.span(
            "subquery", f"{self.name}.query",
            attribute=q.attribute, range=q.is_range,
        ) as span:
            if self._latency_net is None:
                result = self._query_impl(q, start)
            else:
                result = self._timed_query(q, start)
                span.attrs["latency"] = result.latency
            span.attrs.update(
                hops=result.hops, visited=result.visited_nodes,
                complete=result.complete, retries=result.retries,
                matches=len(result.matches),
            )
        return result

    def _timed_query(self, q: Query, start: Any | None) -> QueryResult:
        """Resolve one sub-query under the attached latency model and stamp
        the requester-observed response time onto the result.

        The fault-path delivery loop accumulates the requester's waits
        (responses, timeout windows, backoffs) onto the network's
        ``route_clock``; this wrapper reads the per-query delta.  A query
        that never touched the timed loop (fault-free routing, or the
        injector's fast path) costs its hop chain under the model instead.
        """
        net = self._latency_net
        before = net.route_clock
        result = self._query_impl(q, start)
        elapsed = net.route_clock - before
        if elapsed == 0.0 and result.hops:
            elapsed = net.latency_model.route(result.hops)
        self.metrics.record("query.latency", elapsed)
        return dataclasses.replace(result, latency=elapsed)

    @abstractmethod
    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """Approach-specific resolution behind :meth:`query`."""

    def multi_query(
        self, mq: MultiAttributeQuery, start: Any | None = None
    ) -> MultiQueryResult:
        """Resolve an m-attribute query: parallel sub-queries + join.

        All sub-queries originate at the same requester entry node, are
        conceptually resolved in parallel, and their results are joined on
        provider address (Section III).
        """
        if self.tracer is None:
            return self._multi_query_impl(mq, start)
        with self.tracer.span(
            "query", f"{self.name}.multi_query",
            attributes=mq.num_attributes,
        ) as span:
            result = self._multi_query_impl(mq, start)
            span.attrs.update(
                total_hops=sum(r.hops for r in result.sub_results),
                total_visited=sum(r.visited_nodes for r in result.sub_results),
                providers=len(result.providers),
                complete=result.complete,
            )
            if self._latency_net is not None:
                span.attrs["latency"] = result.latency
        return result

    def _multi_query_impl(
        self, mq: MultiAttributeQuery, start: Any | None = None
    ) -> MultiQueryResult:
        start = self._resolve_start(start)
        sub_results = tuple(self.query(q, start) for q in mq.sub_queries())
        providers = join_on_provider([r.matches for r in sub_results])
        self.metrics.record_pair(
            "multi_query.total_hops", sum(r.hops for r in sub_results),
            "multi_query.total_visited", sum(r.visited_nodes for r in sub_results),
        )
        result = MultiQueryResult(providers=providers, sub_results=sub_results)
        if not result.complete:
            self.metrics.incr("multi_query.incomplete")
        if result.retries:
            self.metrics.record("multi_query.retries", result.retries)
        if self._latency_net is not None:
            self.metrics.record("multi_query.latency", result.latency)
        return result

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def configure_faults(self, injector: Any, policy: Any | None = None) -> None:
        """Attach a fault injector (and optional lookup policy) to the
        service's overlay network; ``injector=None`` detaches it.

        While an injector is active, lookups run without oracle
        assistance and can return ``complete=False`` results.
        """
        overlay = overlay_of(self)
        overlay.network.faults = injector
        if policy is not None:
            overlay.lookup_policy = policy

    def configure_latency(self, model: Any | None) -> None:
        """Attach a :class:`~repro.sim.latency.LatencyModel` to the
        service's overlay network (``None`` detaches it).

        While attached, queries come back with a measured ``latency`` and
        the RTT estimators start learning; detached (the default), no
        randomness is drawn and query results are byte-identical to the
        pre-latency world.  Attaching resets the RTT book so back-to-back
        measurement cells never share estimator state.
        """
        net = overlay_of(self).network
        net.latency_model = model
        net.reset_rtt()
        self._latency_net = net if model is not None else None

    # ------------------------------------------------------------------
    # Structure metrics (Figure 3)
    # ------------------------------------------------------------------
    def random_node(self) -> Any:
        """A uniformly random live node (query entry point)."""
        overlay = overlay_of(self)
        ids = overlay.node_ids
        return overlay.node(ids[int(self._rng.integers(len(ids)))])

    def _resolve_start(self, start: Any | None) -> Any:
        return start if start is not None else self.random_node()

    def _failed_result(self, lookup: Any) -> QueryResult:
        """A lookup that never reached an owner: honest empty partial."""
        self.metrics.record_pair("query.hops", lookup.hops, "query.visited", 0)
        return QueryResult(
            matches=(), hops=lookup.hops, visited_nodes=0,
            complete=False, retries=lookup.retries, timed_out=lookup.timed_out,
        )

    def directory_sizes(self) -> list[int]:
        """Per-node resource-information piece counts."""
        return overlay_of(self).directory_sizes()

    def outlink_counts(self) -> list[int]:
        """Per-node maintained-neighbour counts (Mercury multiplies by the
        number of hubs, as each node participates in every hub)."""
        return overlay_of(self).outlink_counts()

    def num_nodes(self) -> int:
        """Current live population."""
        return overlay_of(self).num_nodes

    def total_info_pieces(self) -> int:
        """System-wide stored pieces (MAAN stores 2 per info, Theorem 4.2)."""
        return sum(self.directory_sizes())

    # ------------------------------------------------------------------
    # Structural bounds (differential-harness support)
    # ------------------------------------------------------------------
    @abstractmethod
    def structural_hop_bound(self) -> int:
        """Worst-case hops of one routed lookup on the *stabilized*,
        fault-free overlay at its current population.  A hard structural
        ceiling (not the theorem average) — any fault-free lookup
        exceeding it indicates corrupted routing state."""

    @abstractmethod
    def max_visited_per_subquery(self) -> int:
        """Worst-case visited nodes of one attribute sub-query (point or
        range) at the current population."""

    def subquery_hop_bound(self) -> int:
        """Worst-case hops of one attribute sub-query: its routed
        lookup(s) plus at most one forwarding hop per visited node."""
        return (
            self.lookups_per_attribute * self.structural_hop_bound()
            + self.max_visited_per_subquery()
        )

    # ------------------------------------------------------------------
    # Churn (Section V-C)
    # ------------------------------------------------------------------
    def _churn_depart(self, depart: Callable[[Any], Any]) -> bool:
        """Draw a victim from ``_churn_rng`` and remove it through
        ``depart`` (the overlay's ``leave`` or ``fail``); False at a
        population of two."""
        overlay = overlay_of(self)
        if overlay.num_nodes <= 2:
            return False
        ids = overlay.node_ids
        victim = ids[int(self._churn_rng.integers(len(ids)))]
        depart(victim)
        self._departed.append(victim)
        return True

    def churn_leave(self) -> bool:
        """A random live node departs gracefully; False if impossible."""
        return self._churn_depart(overlay_of(self).leave)

    def churn_join(self) -> bool:
        """A previously departed node rejoins; False if none is vacant."""
        if not self._departed:
            return False
        idx = int(self._churn_rng.integers(len(self._departed)))
        overlay_of(self).join(self._departed.pop(idx))
        return True

    def churn_fail(self) -> bool:
        """A random live node *crashes* (no key hand-off); False if
        impossible.  Whether data survives depends on the overlay's
        replication factor."""
        return self._churn_depart(overlay_of(self).fail)

    def stabilize(self, budget: Any | None = None) -> Any:
        """One periodic stabilization round.

        ``budget=None`` is the seed behaviour — a global sweep re-deriving
        every node's routing state.  A :class:`~repro.sim.maintenance.
        MaintenanceBudget` instead spends one bounded maintenance round
        (stabilize / refresh / replica-repair caps) and returns its
        :class:`~repro.sim.maintenance.MaintenanceReport`.
        """
        if budget is None:
            overlay_of(self).stabilize_all()
            return None
        return self.maintenance_round().run(budget)

    def maintenance_round(self) -> Any:
        """The service's lazily created budgeted-maintenance round (one
        round-robin cursor state per service)."""
        from repro.sim.maintenance import MaintenanceRound

        round_ = getattr(self, "_maintenance_round", None)
        if round_ is None:
            round_ = MaintenanceRound(overlay_of(self))
            self._maintenance_round = round_
        return round_


class ChordBackedService(DiscoveryService):
    """Common machinery for the Chord-based approaches.

    Owns the ring, the consistent hash ``H`` over attribute names, lazily
    constructed per-attribute locality-preserving hashes ``ℋ``, the query
    RNG and the churn bookkeeping.
    """

    #: Optional :class:`~repro.core.hotspot.SaltPlan` spreading attribute
    #: roots over salted replicas.  Must be set at construction (it
    #: changes placement), hence a ctor kwarg; ``None`` keeps the seed
    #: single-root placement byte-identical.
    salting: Any | None = None

    #: Optional :class:`~repro.core.hotspot.DynamicReplicator` (attached
    #: via :meth:`attach_hot_replicator`; ``None`` keeps root reads on
    #: the native owner).
    hot_replicator: Any | None = None

    def __init__(
        self,
        ring: ChordRing,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        lph_kind: str = "cdf",
        attr_placement: str = "spread",
        salting: Any | None = None,
    ) -> None:
        self.ring = ring
        self.salting = salting
        self.schema = schema
        self.lph_kind = lph_kind
        #: When False, range queries skip gathering the matching infos and
        #: only produce accounting (hops / visited nodes).  The paper-scale
        #: range benchmarks measure visited-node counts over millions of
        #: node visits; collecting matches there is pure overhead.
        self.collect_matches = True
        self.metrics = MetricsRegistry()
        self._seeds = SeedFactory(seed).fork(f"service:{self.name}")
        self._rng: np.random.Generator = self._seeds.numpy("queries")
        self._churn_rng: np.random.Generator = self._seeds.numpy("churn")
        self.attr_hash = ConsistentHash(bits=ring.bits)
        #: "spread" gives every attribute a distinct root ID (the paper's
        #: model — see repro.hashing.spread); "hash" is plain consistent
        #: hashing with collisions.
        self.attr_placement = attr_placement
        self._attr_ids: dict[str, int] | None = None
        self._value_hashes: dict[str, LocalityPreservingHash] = {}
        self._departed: list[int] = []

    @classmethod
    def build_full(
        cls,
        bits: int,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        replication: int = 1,
        durability: Any | None = None,
        ring_factory: Any | None = None,
        **kwargs: Any,
    ) -> "ChordBackedService":
        """A service over a fully populated ``2**bits``-node ring.

        ``ring_factory`` selects the routing tier (plain Chord by
        default; single-hop and ReCord substrates plug in here).
        """
        make = ring_factory if ring_factory is not None else ChordRing
        ring = make(bits, replication=replication, durability=durability)
        ring.build_full()
        return cls(ring, schema, seed=seed, **kwargs)

    @classmethod
    def build(
        cls,
        bits: int,
        num_nodes: int,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        replication: int = 1,
        durability: Any | None = None,
        ring_factory: Any | None = None,
        **kwargs: Any,
    ) -> "ChordBackedService":
        """A service over ``num_nodes`` uniformly placed ring nodes."""
        rng = SeedFactory(seed).numpy(f"{cls.name}-membership")
        make = ring_factory if ring_factory is not None else ChordRing
        ring = make(bits, replication=replication, durability=durability)
        ids = rng.choice(ring.space.size, size=min(num_nodes, ring.space.size), replace=False)
        ring.build(int(i) for i in ids)
        return cls(ring, schema, seed=seed, **kwargs)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def attr_key(self, attribute: str) -> int:
        """The ring ID of ``attribute``'s root (``H(a)``, spread or plain)."""
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

    def attach_hot_replicator(self, replicator: Any | None) -> None:
        """Attach a :class:`~repro.core.hotspot.DynamicReplicator`
        (``None`` detaches; any placed replicas are dropped first so the
        service returns to its unmitigated read path)."""
        if replicator is None and self.hot_replicator is not None:
            self.hot_replicator.clear()
        self.hot_replicator = replicator

    def attr_store_keys(self, attribute: str) -> tuple[int, ...]:
        """Every ring key a registration for ``attribute``'s directory
        writes: the native root, or all ``S`` salted roots.  Salted roots
        use the plain consistent hash of the salted name (spread
        placement only covers schema attributes)."""
        if self.salting is not None and self.salting.applies_to(attribute):
            return tuple(
                self.attr_hash(name) for name in self.salting.salted_names(attribute)
            )
        return (self.attr_key(attribute),)

    def attr_read_target(
        self, attribute: str, requester: str, namespace: str
    ) -> tuple[int, str, int]:
        """``(route_key, directory_namespace, directory_key)`` for one
        attribute-root read by ``requester``.

        Unmitigated, all three collapse to the native root.  Under a
        :attr:`salting` plan the requester's stable salted root is both
        route and directory key.  Under an attached
        :attr:`hot_replicator`, a replicated attribute may route to a
        replica node's own id while the directory key stays the native
        root (replica copies live under the replicator's namespace).
        """
        key = self.attr_key(attribute)
        if self.salting is not None and self.salting.applies_to(attribute):
            name = self.salting.salted_names(attribute)[
                self.salting.choose(attribute, requester)
            ]
            salted = self.attr_hash(name)
            return salted, namespace, salted
        if self.hot_replicator is not None:
            target = self.hot_replicator.route_for(attribute, requester)
            if target is not None:
                return target, self.hot_replicator.replica_namespace, key
        return key, namespace, key

    def value_hash(self, attribute: str) -> LocalityPreservingHash:
        """The locality-preserving hash ℋ for ``attribute`` on this ring."""
        vh = self._value_hashes.get(attribute)
        if vh is None:
            vh = self.schema.spec(attribute).value_hash(
                size=self.ring.space.size, kind=self.lph_kind
            )
            self._value_hashes[attribute] = vh
        return vh

    def structural_hop_bound(self) -> int:
        # Closest-preceding-finger routing at least halves the clockwise
        # distance per hop, so ``bits`` hops reach the key's predecessor
        # and one more lands on the owner.
        return self.ring.bits + 1

    def max_visited_per_subquery(self) -> int:
        # A range walk can cover the whole ring (Theorem 4.10's worst case).
        return self.ring.num_nodes
