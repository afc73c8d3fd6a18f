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

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from typing import Any, ClassVar

import numpy as np

from repro.core.join import join_on_provider
from repro.core.resource import (
    MultiAttributeQuery,
    MultiQueryResult,
    Query,
    QueryResult,
    ResourceInfo,
    select_matches,
)
from repro.hashing.consistent import ConsistentHash
from repro.hashing.locality import LocalityPreservingHash
from repro.hashing.spread import spread_attribute_ids
from repro.overlay.chord import ChordRing
from repro.sim.metrics import MetricsRegistry
from repro.utils.seeding import SeedFactory
from repro.workloads.attributes import AttributeSchema

__all__ = ["DiscoveryService", "ChordBackedService", "build_ring"]


def build_ring(
    bits: int,
    num_nodes: int,
    *,
    seed: int,
    stream: str,
    durability: Any | None = None,
    ring_factory: Any | None = None,
) -> ChordRing:
    """A stabilized ``2**bits``-ID ring of ``num_nodes`` nodes placed
    uniformly from the seeded ``stream`` (every ID when ``num_nodes``
    reaches the space size); ``ring_factory`` picks the routing tier."""
    make = ring_factory if ring_factory is not None else ChordRing
    ring = make(bits, durability=durability)
    if num_nodes >= ring.space.size:
        ring.build_full()
    else:
        rng = SeedFactory(seed).numpy(stream)
        ids = rng.choice(ring.space.size, size=num_nodes, replace=False)
        ring.build(int(i) for i in ids)
    return ring


class DiscoveryService(ABC):
    """Abstract resource-discovery service (one per approach).

    Subclasses bind an overlay substrate and state where an info lives
    (``_placer``) and the sub-query plan (``_plan``); registration,
    withdrawal and the bulk load that read the placements, the engine
    that runs a plan, and the accounting conventions are shared:

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

    #: Optional :class:`~repro.sim.loadstats.LoadStats` sink.  ``None``
    #: (the default, same class-attribute pattern as ``tracer``) keeps
    #: query paths free of load accounting — one ``is None`` check.
    load_stats: Any | None = None

    def __init__(
        self,
        overlay: Any,
        schema: AttributeSchema,
        *,
        attr_bits: int,
        value_space: int,
        seed: int = 0,
        lph_kind: str = "cdf",
        attr_placement: str = "spread",
    ) -> None:
        #: The overlay substrate (a Chord-family ring or Cycloid).
        self.overlay = overlay
        self.schema = schema
        self.lph_kind = lph_kind
        #: When False, range queries skip gathering the matching infos and
        #: only produce accounting (hops / visited nodes).  The paper-scale
        #: range benchmarks measure visited-node counts over millions of
        #: node visits; collecting matches there is pure overhead.
        self.collect_matches = True
        #: The overlay network while a latency model is attached, else
        #: ``None`` — an instance attribute, as every sub-query reads it
        #: twice (:meth:`query`, :meth:`_result`).
        self._latency_net: Any | None = None
        #: ``_latency_net.route_clock`` when the current sub-query began.
        self._clock_start = 0.0
        self.metrics = MetricsRegistry()
        self._seeds = SeedFactory(seed).fork(f"service:{self.name}")
        #: The query stream's RNG (entry-node draws).
        self._rng: np.random.Generator = self._seeds.numpy("queries")
        #: The churn stream's RNG (victim / rejoiner draws) and the departed
        #: node ids a later :meth:`churn_join` re-admits.
        self._churn_rng: np.random.Generator = self._seeds.numpy("churn")
        self._departed: list = []
        #: H — consistent hash of attribute names onto ``2**attr_bits``
        #: roots (ring IDs; clusters for LORM).
        self.attr_hash = ConsistentHash(bits=attr_bits)
        #: "spread" gives every attribute a distinct root ID (the paper's
        #: model — see repro.hashing.spread; needs m <= 2**attr_bits);
        #: "hash" is plain consistent hashing with collisions.
        self.attr_placement = attr_placement
        self._attr_ids: dict[str, int] | None = None
        #: Size of the space ℋ maps values onto (ring IDs; the cyclic
        #: indices ``[0, d)`` for LORM).
        self._value_space = value_space
        self._value_hashes: dict[str, LocalityPreservingHash] = {}
        #: ``_placer(attribute)`` per attribute seen (the root ID, ℋ and
        #: the namespace are fixed for the service's life).
        self._placers: dict[str, Callable[[float], tuple]] = {}

    # ------------------------------------------------------------------
    # ID mapping
    # ------------------------------------------------------------------
    def attr_key(self, attribute: str) -> int:
        """``H(attribute)``: the attribute's root ID (spread or plain)."""
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

    def value_hash(self, attribute: str) -> LocalityPreservingHash:
        """The locality-preserving hash ℋ for ``attribute``."""
        vh = self._value_hashes.get(attribute)
        if vh is None:
            vh = self.schema.spec(attribute).value_hash(
                size=self._value_space, kind=self.lph_kind
            )
            self._value_hashes[attribute] = vh
        return vh

    def _value_target(self, q: Query) -> tuple[int, tuple[int, int] | None]:
        """Where ℋ places the queried value(s): ``(key, None)`` for a point
        query; ``(k1, (k1, k2))`` — route to the low end, walk to the
        high — for a range."""
        vh = self.value_hash(q.attribute)
        constraint = q.constraint
        if not q.is_range:
            return vh(constraint.low), None
        spec = self.schema.spec(q.attribute)
        arc = vh.hash_range(*constraint.bounds_within(spec.lo, spec.hi))
        return arc[0], arc

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
        self.overlay.tracer = tracer

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
    def _placer(self, attribute: str) -> Callable[[float], tuple]:
        """Where infos of ``attribute`` live, as a function of the value:
        ``value -> ((namespace, key), ...)``, every overlay key a
        registration writes, in write order, ``key`` in the overlay's own
        key type.  The binding's one statement of its placement — all the
        per-attribute work (root ID, ℋ, namespace) is done here, once per
        attribute, so the returned function costs the value hash alone."""

    def _placements(self, info: ResourceInfo) -> tuple:
        """The ``(namespace, key)`` pairs ``info`` is stored under —
        what :meth:`register`, :meth:`deregister` and the bulk
        :meth:`register_all` all read."""
        place = self._placers.get(info.attribute)
        if place is None:
            place = self._placers[info.attribute] = self._placer(info.attribute)
        return place(info.value)

    def _register_impl(self, info: ResourceInfo, *, routed: bool = True) -> int:
        """One insertion per placement behind :meth:`register`: stored
        directly, or routed from one random origin."""
        placements = self._placements(info)
        overlay = self.overlay
        hops = 0
        if not routed:
            for namespace, key in placements:
                overlay.store(namespace, key, info)
        else:
            origin = self.random_node()
            for namespace, key in placements:
                hops += overlay.routed_store(origin, namespace, key, info).hops
            self.metrics.record("register.hops", hops)
        self._on_registered(info, placements)
        return hops

    def _on_registered(self, info: ResourceInfo, placements: tuple) -> None:
        """Called after ``info`` was stored under ``placements``."""

    def register_all(self, infos: Iterable[ResourceInfo], *, routed: bool = True) -> int:
        """Register many infos, in order; returns total hops.

        Unrouted and untraced — a bulk load — the placements go to the
        overlay as one stream (:meth:`~repro.overlay.base.Overlay.
        store_all`), which resolves each distinct key once.
        Ordering contract: the outcome is that of ``register(info,
        routed=False)`` per info, observably — per node the same namespace
        order, key order and bucket order (placements are streamed info by
        info in the order given, never regrouped by attribute), and the
        same message counts.
        """
        if routed or self.tracer is not None:
            return sum(self.register(info, routed=routed) for info in infos)
        self.overlay.store_all(self._placement_stream(infos))
        return 0

    def _placement_stream(self, infos: Iterable[ResourceInfo]) -> Iterator[tuple]:
        """``(namespace, key, info)`` per placement of each of ``infos``."""
        placements_of = self._placements
        registered = self._on_registered
        for info in infos:
            placements = placements_of(info)
            for namespace, key in placements:
                yield namespace, key, info
            registered(info, placements)

    def deregister(self, info: ResourceInfo) -> int:
        """Withdraw one previously registered info piece from every
        placement (owner and replicas).

        Returns the number of stored copies removed (0 if absent).  Used
        by lease expiry: the paper's nodes "report available resources
        periodically", so reports that stop being renewed age out.
        """
        discard = self.overlay.discard
        return sum(discard(namespace, key, info) for namespace, key in self._placements(info))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, q: Query, start: Any | None = None) -> QueryResult:
        """Resolve one single-attribute query from entry node ``start``
        (random when omitted)."""
        net = self._latency_net
        if net is not None:
            # The requester clock at the query's start: ``_result`` stamps
            # the delta onto the result.
            self._clock_start = net.route_clock
        if self.tracer is None:
            return self._query_impl(q, start)
        with self.tracer.span(
            "subquery", f"{self.name}.query",
            attribute=q.attribute, range=q.is_range,
        ) as span:
            result = self._query_impl(q, start)
            if net is not None:
                span.attrs["latency"] = result.latency
            span.attrs.update(
                hops=result.hops, visited=result.visited_nodes,
                complete=result.complete, retries=result.retries,
                matches=len(result.matches),
            )
        return result

    @abstractmethod
    def _plan(self, q: Query) -> tuple:
        """The sub-query as data: an ordered tuple of routed reads
        ``(route_key, arc, read)``, ``lookups_per_attribute`` of them.

        ``route_key`` is the key the step's lookup routes to, in the
        overlay's own key type.  ``arc`` is ``None`` when the key's owner
        answers alone, or the ``(lo, hi)`` storage-key bounds of the
        overlay's range walk from the owner (last step only).  ``read`` is
        ``None`` for a visit that returns nothing (MAAN's attribute root),
        else ``(namespace, directory_key, ordered)``: the owner's bucket
        ``directory_key`` — or, on a walk, every visited node's whole
        ``namespace`` — read through the ordered per-node view
        (``ordered``) or scanned.  A walk that came back ``contiguous``
        (hence complete) is read as one arc of the overlay's arc
        directory instead of node by node (same items, grouped by holder).
        """

    def _query_impl(self, q: Query, start: Any | None = None) -> QueryResult:
        """Run ``_plan(q)``: per step one routed lookup, the optional
        walk, the directory read, then hop / visited / load accounting.  A
        lookup that never reaches an owner ends the sub-query as an honest
        partial: what earlier steps visited, no matches, ``complete=False``.
        """
        start = self._resolve_start(start)
        overlay = self.overlay
        network = overlay.network
        stats = self.load_stats
        matches: tuple = ()
        hops = visited = retries = 0
        complete, timed_out = True, False
        for route_key, arc, read in self._plan(q):
            lookup = overlay.lookup(start, route_key)
            hops += lookup.hops
            retries += lookup.retries
            if not lookup.complete:
                matches, complete, timed_out = (), False, lookup.timed_out
                break
            if arc is None:
                nodes = (lookup.owner,)
            else:
                # Resolved per call: the walk is published under the
                # overlay's own name, and callers may wrap the instance.
                nodes = getattr(overlay, overlay.walk_name)(lookup.owner, *arc)
                hops += len(nodes) - 1
                retries += nodes.retries
                complete, timed_out = not nodes.truncated, nodes.timed_out
                network.count_hop(len(nodes) - 1)
            if read is not None and (arc is None or self.collect_matches):
                namespace, key, ordered = read
                if arc is not None and nodes.contiguous:
                    # The walked nodes are one run of ring members: read
                    # what they hold as an arc, not node by node.
                    matches = select_matches(
                        (overlay.arc_items(nodes, namespace, q.attribute),),
                        q.constraint,
                    )
                elif ordered:
                    attribute, (low, high) = q.attribute, q.constraint.bounds
                    matches = tuple(
                        lookup.owner.items_at(namespace, key, attribute, low, high)
                        if arc is None
                        else chain.from_iterable(
                            node.items_in(namespace, attribute, low, high)
                            for node in nodes
                        )
                    )
                else:
                    matches = select_matches(
                        (lookup.owner.items_at(namespace, key),)
                        if arc is None
                        else (node.items_in(namespace) for node in nodes),
                        q.constraint,
                    )
            visited += len(nodes)
            if stats is not None:
                stats.record_serves((node.uid for node in nodes), q.attribute)
                stats.record_route_path(lookup.path)
        return self._result(matches, hops, visited, complete, retries, timed_out)

    def _result(
        self,
        matches: tuple,
        hops: int,
        visited: int,
        complete: bool,
        retries: int,
        timed_out: bool,
    ) -> QueryResult:
        """Record the sub-query's ``query.hops`` / ``query.visited`` sample
        and build the result that reports the same numbers.

        Under a latency model the result also carries the
        requester-observed response time, recorded as ``query.latency``:
        the ``route_clock`` delta since :meth:`query` began — the timed
        sender's response waits, timeout windows and backoffs — or, for a
        query that never touched the timed loop (fault-free routing, or
        the injector's fast path), its hop chain under the model.
        """
        self.metrics.record_pair("query.hops", hops, "query.visited", visited)
        net = self._latency_net
        if net is None:
            return QueryResult(matches, hops, visited, complete, retries, timed_out)
        elapsed = net.route_clock - self._clock_start
        if elapsed == 0.0 and hops:
            elapsed = net.latency_model.route(hops)
        self.metrics.record("query.latency", elapsed)
        return QueryResult(matches, hops, visited, complete, retries, timed_out, elapsed)

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
        overlay = self.overlay
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
        net = self.overlay.network
        net.latency_model = model
        net.reset_rtt()
        self._latency_net = net if model is not None else None

    # ------------------------------------------------------------------
    # Structure metrics (Figure 3)
    # ------------------------------------------------------------------
    def random_node(self) -> Any:
        """A uniformly random live node (query entry point)."""
        overlay = self.overlay
        ids = overlay.node_ids
        return overlay.node(ids[int(self._rng.integers(len(ids)))])

    def _resolve_start(self, start: Any | None) -> Any:
        return start if start is not None else self.random_node()

    def directory_sizes(self) -> list[int]:
        """Per-node resource-information piece counts."""
        return self.overlay.directory_sizes()

    def outlink_counts(self) -> list[int]:
        """Per-node maintained-neighbour counts (Mercury multiplies by the
        number of hubs, as each node participates in every hub)."""
        return self.overlay.outlink_counts()

    def maintenance_scale(self) -> int:
        """Structural maintenance multiplier: how many full DHTs each node
        takes part in."""
        return 1

    def num_nodes(self) -> int:
        """Current live population."""
        return self.overlay.num_nodes

    def total_info_pieces(self) -> int:
        """System-wide stored pieces (MAAN stores 2 per info, Theorem 4.2)."""
        return sum(self.directory_sizes())

    # ------------------------------------------------------------------
    # Structural bounds (differential-harness support)
    # ------------------------------------------------------------------
    def structural_hop_bound(self) -> int:
        """Worst-case hops of one routed lookup on the *stabilized*,
        fault-free overlay at its current population.  A hard structural
        ceiling (not the theorem average) — any fault-free lookup
        exceeding it indicates corrupted routing state."""
        return self.overlay.structural_hop_bound()

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
        overlay = self.overlay
        if overlay.num_nodes <= 2:
            return False
        ids = overlay.node_ids
        victim = ids[int(self._churn_rng.integers(len(ids)))]
        depart(victim)
        self._departed.append(victim)
        return True

    def churn_leave(self) -> bool:
        """A random live node departs gracefully; False if impossible."""
        return self._churn_depart(self.overlay.leave)

    def churn_join(self) -> bool:
        """A previously departed node rejoins; False if none is vacant."""
        if not self._departed:
            return False
        idx = int(self._churn_rng.integers(len(self._departed)))
        self.overlay.join(self._departed.pop(idx))
        return True

    def churn_fail(self) -> bool:
        """A random live node *crashes* (no key hand-off); False if
        impossible.  Whether data survives depends on the overlay's
        replication factor."""
        return self._churn_depart(self.overlay.fail)

    def stabilize(self, budget: Any | None = None) -> int | None:
        """One periodic stabilization round.

        ``budget=None`` is the seed behaviour — a global sweep bringing
        every node's routing state up to date.  A :class:`~repro.sim.maintenance.
        MaintenanceBudget` instead spends one bounded maintenance round
        (stabilize / refresh / replica-repair caps) and returns the number
        of replica copies it moved.
        """
        if budget is None:
            self.overlay.stabilize_all()
            return None
        return self.maintenance_round().run(budget)

    def maintenance_round(self) -> Any:
        """The service's lazily created budgeted-maintenance round (one
        round-robin cursor state per service)."""
        from repro.sim.maintenance import MaintenanceRound

        round_ = getattr(self, "_maintenance_round", None)
        if round_ is None:
            round_ = MaintenanceRound(self.overlay)
            self._maintenance_round = round_
        return round_


class ChordBackedService(DiscoveryService):
    """Common machinery for the Chord-based approaches: the seeded ring
    builders and the attribute-root mitigations (salted roots, hot-root
    replicas) that SWORD and MAAN share.
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
        super().__init__(
            ring, schema, attr_bits=ring.bits, value_space=ring.space.size,
            seed=seed, lph_kind=lph_kind, attr_placement=attr_placement,
        )
        #: The substrate again, under the name ring-level callers read.
        self.ring = ring
        self.salting = salting

    @classmethod
    def build_full(
        cls, bits: int, schema: AttributeSchema, **kwargs: Any
    ) -> "ChordBackedService":
        """A service over a fully populated ``2**bits``-node ring
        (keywords as for :meth:`build`)."""
        return cls.build(bits, 1 << bits, schema, **kwargs)

    @classmethod
    def build(
        cls,
        bits: int,
        num_nodes: int,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        durability: Any | None = None,
        ring_factory: Any | None = None,
        **kwargs: Any,
    ) -> "ChordBackedService":
        """A service over ``num_nodes`` uniformly placed ring nodes.

        ``ring_factory`` selects the routing tier (plain Chord by
        default; single-hop and ReCord substrates plug in here).
        """
        ring = build_ring(
            bits, num_nodes, seed=seed, stream=f"{cls.name}-membership",
            durability=durability, ring_factory=ring_factory,
        )
        return cls(ring, schema, seed=seed, **kwargs)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def attach_hot_replicator(self, replicator: Any | None) -> None:
        """Attach a :class:`~repro.core.hotspot.DynamicReplicator`
        (``None`` detaches; any placed replicas are dropped first so the
        service returns to its unmitigated read path)."""
        if replicator is None and self.hot_replicator is not None:
            self.hot_replicator.clear()
        self.hot_replicator = replicator

    def _on_registered(self, info: ResourceInfo, placements: tuple) -> None:
        """Mirror the registration onto the attribute's hot replicas, under
        its root key — an attribute-rooted binding's first placement."""
        if self.hot_replicator is not None:
            self.hot_replicator.on_register(info, placements[0][1])

    def attr_store_keys(self, attribute: str) -> tuple[int, ...]:
        """Every ring key a registration for ``attribute``'s directory
        writes: the native root, or all ``S`` salted roots.  Salted roots
        use the plain consistent hash of the salted name (spread
        placement only covers schema attributes)."""
        if self.salting is not None:
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
        if self.salting is not None:
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

    def max_visited_per_subquery(self) -> int:
        # A range walk can cover the whole ring (Theorem 4.10's worst case).
        return self.ring.num_nodes
