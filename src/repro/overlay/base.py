"""The overlay-level base class shared by every object-graph DHT.

:class:`Overlay` is to :class:`~repro.overlay.chord.ChordRing` and
:class:`~repro.overlay.cycloid.CycloidOverlay` what
:class:`~repro.overlay.node.OverlayNode` is to their nodes: everything
that does not depend on the overlay's *geometry* lives here exactly once —
the ``lookup`` dispatch, the traced wrapper, the lossy fault-path route,
the walk-span wrapper, key storage, replica repair, the depart half of
churn, and the maintenance steps.

A concrete overlay supplies only geometry, as small hooks: the owner
oracle and the native-key <-> storage-key mapping (``owner_of`` /
``key_id`` / ``key_of`` / ``uid_of`` / ``id_space_size``), the fault-free
hop loop ``_lookup_plain``, the fault path's hop step ``_fault_step``
(stop test + preference list in one pass), ``edge_kind``, the range walk
``_walk_impl``, the two routing-table refresh halves ``_refresh_near`` /
``_refresh_far``, ``join`` with ``_membership_add`` / ``_membership_remove``
(which also mark the stale set ``stabilize_all`` re-derives) and
``_repair_neighbourhood``, and ``check_invariants``.
``docs/architecture.md`` ("The overlays") tabulates skeleton vs hooks.

The fault-free hop loops stay in the subclasses on purpose: Chord's local
stop test, Cycloid's revisit -> clockwise fallback and the single-hop
tier's probe retries are different algorithms, and they are the hottest
lines in the simulator.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable
from typing import Any

from repro.overlay.node import (
    ArcDirectory,
    LookupResult,
    OverlayNode,
    WalkResult,
    trace_fault_step,
)
from repro.sim.durability import DurabilityPolicy, successor_replication
from repro.sim.faults import DEFAULT_POLICY, LookupPolicy
from repro.sim.maintenance import RepairProgress, place_bucket, repair_buckets
from repro.sim.network import SimulatedNetwork
from repro.utils.validation import require

__all__ = ["Overlay"]


class Overlay:
    """Geometry-independent skeleton of a simulated DHT overlay.

    Subclasses set whatever attributes the durability policy's
    ``validate`` reads (Cycloid's ``dimension``; Chord's
    ``successor_list_len`` is a class constant) *before* calling this
    constructor.
    """

    #: Span-name prefix (``"<kind>.lookup"`` / ``"<kind>.walk"``).
    kind: str
    #: The routing-table entry a range-walk step follows (hop attribution).
    walk_edge: str
    #: The name :meth:`walk` is published under (``walk_arc`` /
    #: ``walk_cluster``) — callers resolve it on the instance per call.
    walk_name: str

    def __init__(self, durability: DurabilityPolicy | None, routing_cache: bool) -> None:
        self.network = SimulatedNetwork()
        #: Whether the subclasses keep their routing rows (Chord's finger
        #: rows, Cycloid's slot rows) and narrow the sweep to a stale set.
        #: ``False`` is the reference path the equivalence tests diff
        #: against: every row is re-derived per hop, every sweep is full.
        self.routing_cache = routing_cache
        #: The durability policy governing where a key's copies/fragments
        #: live and when a piece still decodes.  ``None`` is the paper's
        #: model, ``successor_replication(1)``: every key on its owner
        #: alone.
        self.durability = (
            durability if durability is not None else successor_replication(1)
        )
        self.durability.validate(self)
        #: Requester behaviour under injected faults (retries, timeouts,
        #: failover).  Irrelevant — and never consulted — while the network
        #: has no active fault injector.
        self.lookup_policy: LookupPolicy = DEFAULT_POLICY
        self._nodes: dict[Any, OverlayNode] = {}
        #: :attr:`node_ids` of the current membership (``None``: not
        #: derived yet).  Part of the membership index, so kept by whoever
        #: edits that — ``build`` and the ``_membership_add`` /
        #: ``_membership_remove`` hooks reset it, or patch it in place of a
        #: re-derivation that costs more than the event did.
        self._node_ids: tuple | None = None
        #: The stale set: ids of the nodes whose routing entries a
        #: membership event since the last :meth:`stabilize_all` can have
        #: left behind the membership oracle; ``None`` means every node.
        #: ``_membership_add`` / ``_membership_remove`` grow it (geometry),
        #: ``build`` and the sweep empty it.
        self._stale: set | None = None
        #: Which node holds what, by integer ring id — shared with every
        #: node this overlay creates, read by :meth:`arc_items`.
        self._arcs = ArcDirectory(self.uid_of)
        #: Optional hop-level span tracer (:class:`repro.obs.spans.
        #: QueryTracer`).  ``None`` (the default) keeps the routing hot
        #: paths untouched beyond one ``is None`` dispatch per lookup/walk.
        self.tracer: Any | None = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Current live population."""
        return len(self._nodes)

    def node(self, node_id: Any) -> OverlayNode:
        """The live node with identifier ``node_id``."""
        return self._nodes[node_id]

    def __contains__(self, node_id: Any) -> bool:
        """Whether ``node_id`` is a live member (O(1))."""
        return node_id in self._nodes

    @property
    def node_ids(self) -> tuple:
        """Live node IDs in the overlay's native order (``_ordered_ids``),
        one tuple per membership: entry-node selection reads this on every
        query."""
        ids = self._node_ids
        if ids is None:
            ids = self._node_ids = tuple(self._ordered_ids())
        return ids

    def invalidate_routing_caches(self) -> None:
        """Drop every routing row the subclass memoises (Chord's finger
        rows, Cycloid's slot rows).

        ``build`` calls it.  Otherwise a membership event drops only the
        rows of the departed node and of the stale set (every row when
        ``_stale is None``), and a refresh pops the row it rewrites; owners
        and replica sets are never memoised.  Public so external code that
        edits routing tables in place (e.g. tests staging stale fingers)
        can restore coherence.
        """

    # ------------------------------------------------------------------
    # Routed lookup
    # ------------------------------------------------------------------
    @property
    def faults_active(self) -> bool:
        """Whether the shared network currently injects faults."""
        return self.network.faults_active

    def lookup(self, start: OverlayNode, key: Any) -> LookupResult:
        """Route from ``start`` to the owner of ``key`` using only links.

        Fault-free, this is the overlay's own greedy route
        (``_lookup_plain``).  With a fault injector active the route runs
        under :attr:`lookup_policy`: every hop message can be lost, retries
        and alternate-entry failover apply, the membership oracle is never
        consulted, and an unfinishable route returns a ``complete=False``
        result instead of raising or silently succeeding.
        """
        key = self._route_key(key)
        if self.tracer is not None:
            return self._lookup_traced(start, key)
        if self.faults_active:
            return self._lookup_faulty(start, key, self.lookup_policy)
        return self._lookup_plain(start, key)

    def _route_key(self, key: Any) -> Any:
        """``key`` as the route (and its LOOKUP span) should see it."""
        return key

    def _lookup_traced(self, start: OverlayNode, key: Any) -> LookupResult:
        """Route with span tracing: identical result, plus one LOOKUP span
        with per-hop child spans.

        Fault-free routes are traced *post hoc* from the result path (the
        hot loop stays branch-free); the fault path emits hops and
        drop/retry/failover/timeout annotations live as they happen.
        """
        tracer = self.tracer
        with tracer.span(
            "lookup", f"{self.kind}.lookup", origin=start.uid, key=key
        ) as span:
            if self.faults_active:
                result = self._lookup_faulty(
                    start, key, self.lookup_policy, tracer=tracer
                )
            else:
                result = self._lookup_plain(start, key)
                prev = start
                for uid in result.path[1:]:
                    node = self._nodes[uid]
                    tracer.hop(prev.uid, uid, self.edge_kind(prev, node))
                    prev = node
            span.attrs.update(
                owner=result.owner.uid, hops=result.hops,
                complete=result.complete, retries=result.retries,
                timed_out=result.timed_out,
            )
        return result

    def _lookup_faulty(
        self,
        start: OverlayNode,
        key: Any,
        policy: LookupPolicy,
        tracer: Any | None = None,
    ) -> LookupResult:
        """The fault-path route: local stop test, lossy hops, failover.

        Never touches the membership oracle — ``_fault_step`` judges from
        (possibly stale) local state alone whether ``cur`` owns the key and
        else which next hops to try, and when none of them answers within
        the policy's retry budget the lookup *fails* with
        ``complete=False``.  The believed
        owner can legitimately differ from the true one while routing
        state is degraded — the caller sees that as missing matches, not
        as a wrong "complete" claim from the oracle.
        """
        cur = start
        hops = 0
        retries = 0
        path = [cur.uid]
        budget = self._fault_hop_budget()
        drops: list[tuple[int, int]] = []
        hedges: list[tuple[int, bool]] = []
        on_drop = None if tracer is None else (
            lambda dst_id, attempt: drops.append((dst_id, attempt))
        )
        on_hedge = None if tracer is None else (
            lambda dst_id, won: hedges.append((dst_id, won))
        )
        network = self.network
        stats = network.stats
        send = network.sender(policy, on_drop, on_hedge)
        # The sender's network id; after a hop, the chosen candidate's own.
        src_id = self.uid_of(cur)
        while True:
            candidates = self._fault_step(cur, key, policy)
            if candidates is None:
                return LookupResult(
                    owner=cur, hops=hops, path=tuple(path), retries=retries
                )
            if hops >= budget:
                # Hop budget exhausted: the requester gives up.
                return LookupResult(
                    owner=cur, hops=hops, path=tuple(path),
                    complete=False, retries=retries,
                )
            nxt, used, skipped = send(src_id, candidates)
            retries += used
            if tracer is not None:
                advanced = nxt is not None and nxt is not cur
                trace_fault_step(
                    tracer,
                    cur.uid,
                    nxt.uid if advanced else None,
                    self.edge_kind(cur, nxt) if advanced else "",
                    used, skipped, drops, hedges,
                )
            if nxt is None or nxt is cur:
                # Every candidate timed out (or none exist): the route is
                # stuck and the lookup honestly fails.
                return LookupResult(
                    owner=cur, hops=hops, path=tuple(path),
                    complete=False, retries=retries, timed_out=True,
                )
            cur = nxt
            src_id = candidates[skipped][0]
            hops += 1
            path.append(cur.uid)
            stats.routing_hops += 1
            stats.messages += 1

    # ------------------------------------------------------------------
    # Range walk
    # ------------------------------------------------------------------
    def walk(self, start: OverlayNode, lo: int, hi: int) -> WalkResult:
        """The overlay's range walk from ``start`` over ``[lo, hi]`` — see
        the subclass's ``_walk_impl``; with a tracer attached the walk is
        wrapped in a WALK span whose hop children are the walk steps.

        Published under the overlay's own name (``walk_arc`` /
        ``walk_cluster``).
        """
        if self.tracer is None:
            return self._walk_impl(start, lo, hi)
        tracer = self.tracer
        with tracer.span(
            "walk", f"{self.kind}.walk", origin=start.uid, **self._walk_attrs(lo, hi)
        ) as span:
            result = self._walk_impl(start, lo, hi)
            prev = result[0]
            for node in result[1:]:
                tracer.hop(prev.uid, node.uid, self.walk_edge)
                prev = node
            for _ in range(result.retries):
                tracer.event("retry")
            if result.truncated:
                tracer.event("truncated", reason=result.reason)
            if result.timed_out:
                tracer.event("timeout")
            span.attrs.update(
                visited=len(result), truncated=result.truncated,
                retries=result.retries,
            )
        return result

    def _walk_sender(self):
        """The lossy walk's sender under :attr:`lookup_policy`; with a
        tracer attached, every failed attempt and every hedge fired becomes
        a ``drop`` / ``hedge`` event of the open WALK span, as a lookup's
        do of its hop spans."""
        tracer = self.tracer
        if tracer is None:
            return self.network.sender(self.lookup_policy)
        return self.network.sender(
            self.lookup_policy,
            lambda dst_id, attempt: tracer.event("drop", target=dst_id, attempt=attempt),
            lambda dst_id, won: tracer.event("hedge", target=dst_id, won=won),
        )

    def _truncate_walk(self, result: WalkResult, reason: str) -> None:
        """Flag ``result`` truncated (first reason wins)."""
        if not result.truncated:
            result.truncated = True
            result.reason = reason

    def arc_items(self, walk: WalkResult, namespace: str, attribute: str) -> list:
        """Every ``attribute`` item the nodes of a ``contiguous`` walk hold
        in ``namespace`` — the multiset their chained
        ``items_in(namespace)`` reads would yield, grouped by holder in
        walk order, in time proportional to the answer."""
        arcs = self._arcs
        if not arcs:
            arcs.index(self._nodes.values())
        return arcs.arc(namespace, attribute, self.uid_of(walk[0]), self.uid_of(walk[-1]))

    # ------------------------------------------------------------------
    # Key storage (routed through the overlay)
    # ------------------------------------------------------------------
    def replica_set_of(self, key_id: int) -> list:
        """The nodes that should hold storage key ``key_id`` under the
        durability policy (default: its owner plus the next ``replication -
        1`` native successors), owner first — a fresh list per call."""
        return self.durability.holders(self, key_id)

    def native_holders(self, key_id: int, count: int) -> list:
        """``count`` native successor holders of storage key ``key_id`` —
        what :class:`~repro.sim.durability.SuccessorPlacement` delegates
        to."""
        return self._native_holders(self.key_of(key_id), count)

    def store(self, namespace: str, key: Any, item: Any) -> OverlayNode:
        """Place ``item`` at the owner of ``key`` (oracle placement).

        With more than one holder the owner pushes copies to the rest of
        the replica set (counted as maintenance messages).
        """
        key_id = self.key_id(key)
        replicas = self.replica_set_of(key_id)
        for holder in replicas:
            holder.store(namespace, key_id, item)
        if len(replicas) > 1:
            self.network.count_maintenance(len(replicas) - 1)
        return replicas[0]

    def store_all(self, entries: Iterable[tuple[str, Any, Any]]) -> None:
        """:meth:`store` every ``(namespace, key, item)`` of ``entries``, in
        order, resolving each distinct ``key`` once — to its storage id and
        its holders — however many items and namespaces are stored under it.

        Ordering contract: what every node ends up holding is what the
        same stream through :meth:`store` leaves, observably — the same
        ``(namespace, key_id)`` order in its ``_store``, the same item
        order inside a bucket, the same view
        flushes and arc-directory posts.  By construction: every copy goes
        through :meth:`OverlayNode.store` on the same holder at the same
        point of the stream; only the resolution and the maintenance
        count — posted once, with the total — are shared.

        The cyclic collector is paused for the load (and left as found):
        a load builds only acyclic buckets, so a pass would find nothing.
        """
        copies = 0
        resolved: dict[Any, tuple[int, list]] = {}
        collecting = gc.isenabled()
        gc.disable()
        try:
            for namespace, key, item in entries:
                try:
                    key_id, holders = resolved[key]
                except KeyError:
                    key_id = self.key_id(key)
                    holders = self.replica_set_of(key_id)
                    resolved[key] = key_id, holders
                for holder in holders:
                    holder.store(namespace, key_id, item)
                copies += len(holders) - 1
        finally:
            # Also when the stream raises: count what was stored.
            if copies:
                self.network.count_maintenance(copies)
            if collecting:
                gc.enable()

    def routed_store(
        self, start: OverlayNode, namespace: str, key: Any, item: Any
    ) -> LookupResult:
        """Insert via a routed lookup from ``start`` (counts hops)."""
        result = self.lookup(start, key)
        key_id = self.key_id(key)
        result.owner.store(namespace, key_id, item)
        for holder in self.replica_set_of(key_id)[1:]:
            if holder is not result.owner:
                holder.store(namespace, key_id, item)
                self.network.count_maintenance(1)
        return result

    def discard(self, namespace: str, key: Any, item: Any) -> int:
        """Remove ``item``'s copies from the key's replica set.

        Returns the number of copies removed.  Used by lease expiry
        (``repro.core.refresh``): a provider's stale report is withdrawn
        from the owner and every replica.
        """
        key_id = self.key_id(key)
        removed = 0
        for holder in self.replica_set_of(key_id):
            if holder.remove_item(namespace, key_id, item):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Replica repair
    # ------------------------------------------------------------------
    def repair_replication(self) -> int:
        """Restore every key to exactly its replica set; returns copies moved.

        Models the periodic replica-maintenance pass after joins, leaves
        and failures: :func:`~repro.sim.maintenance.place_bucket` over
        every bucket, which is :meth:`repair_replication_step` without a
        budget, called directly so that a churn guard checks the sweep
        once.  Only copies added or removed count, as maintenance
        messages; an erasure policy purges undecodable fragments rather
        than resurrecting lost data.
        """
        return repair_buckets(self).copies_moved

    def repair_replication_step(
        self,
        budget: int | None = None,
        after: tuple[str, int] | None = None,
    ) -> RepairProgress:
        """Anti-entropy replica repair of up to ``budget`` key buckets.

        Buckets are visited in sorted ``(namespace, key_id)`` order
        starting strictly after ``after`` (``None`` starts from the
        beginning); each repaired bucket ends up exactly on its replica
        set, like one key's worth of :meth:`repair_replication`.
        ``budget=None`` repairs every bucket in one call.  Returns a
        :class:`~repro.sim.maintenance.RepairProgress` whose ``next_after``
        is the resume cursor (``None`` once the sweep wrapped).
        """
        return repair_buckets(self, budget, after)

    # ------------------------------------------------------------------
    # Churn: the depart half (``join`` is geometry)
    # ------------------------------------------------------------------
    def leave(self, node_id: Any) -> None:
        """Graceful departure: every bucket hands off to its new replica
        set, neighbours repair.

        Matches the paper's churn model, in which "there were no failures in
        all test cases" — departures hand their state off before leaving.
        """
        self._depart(node_id, handover=True)

    def fail(self, node_id: Any) -> None:
        """Crash failure: the node vanishes *without* handing off its keys.

        Keys whose only copy lived on the crashed node are lost (the
        default one copy per key); with ``replication >= 2`` the
        surviving replicas keep every key readable, and the next
        :meth:`repair_replication` restores the full replica count.
        """
        self._depart(node_id, handover=False)

    def _depart(self, node_id: Any, handover: bool) -> None:
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
        if handover:
            # The leaver stands for the old replica set of every bucket it
            # held: a leave drops it from a set and changes nothing else.
            keys = [bucket_key for bucket_key, _ in node.buckets()]
            self._place_after(keys, {key_id: (node,) for _, key_id in keys})
            self.network.count_maintenance(2)  # departure notifications
        # A crashed node's memory is simply gone; neighbours detect the
        # failure via timeouts and repair locally.
        node.clear_storage()
        self._repair_neighbourhood(node)

    def _replica_sets(self, nodes: Iterable[OverlayNode]) -> tuple[list, dict]:
        """The buckets ``nodes`` hold, each once, in store order, and the
        replica set of each key id among them: what a join reads before it
        changes the membership."""
        keys = list(dict.fromkeys(key for node in nodes for key, _ in node.buckets()))
        return keys, {key_id: self.replica_set_of(key_id) for _, key_id in set(keys)}

    def _place_after(self, keys: list, before: dict) -> int:
        """Run :func:`~repro.sim.maintenance.place_bucket` after a join or
        graceful leave over each bucket of ``keys`` whose replica set
        changed, over its set before the event (``before``, by key id) and
        its set now; returns the copies moved.  Each set is resolved once
        per key id, and a node in neither set is left as it is."""
        threshold = self.durability.threshold
        after = {key_id: self.replica_set_of(key_id) for key_id in before}
        moved = 0
        for bucket_key in keys:
            old, new = before[bucket_key[1]], after[bucket_key[1]]
            if old != new:
                holders = [
                    (node, bucket)
                    for node in (*old, *[node for node in new if node not in old])
                    if (bucket := node.items_at(*bucket_key))
                ]
                moved += place_bucket(bucket_key, holders, new, threshold)
        return moved

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _refresh_routing_state(self, node: OverlayNode) -> None:
        """Derive all of ``node``'s routing entries from the membership
        oracle."""
        self._refresh_near(node)
        self._refresh_far(node)

    def stabilize_step(self, node: OverlayNode) -> None:
        """One stabilization step: refresh ``node``'s neighbour links
        (Chord's ``stabilize``/``notify`` exchange; Cycloid's leaf sets).

        The unit of the maintenance scheduler's *stabilize* budget; a full
        :meth:`stabilize_all` pass is the budget-unlimited special case.
        Counts one maintenance message.
        """
        if not node.alive:
            return
        self._refresh_near(node)
        self.network.count_maintenance(1)

    def refresh_routing_step(self, node: OverlayNode) -> None:
        """One routing-refresh step: rebuild ``node``'s long-range entries
        (Chord's ``fix_fingers``; Cycloid's cubical and cyclic
        neighbours).  The unit of the scheduler's *refresh* budget; counts
        one maintenance message."""
        if not node.alive:
            return
        self._refresh_far(node)
        self.network.count_maintenance(1)

    def stabilize_all(self) -> None:
        """Periodic stabilization: every node exchanges one maintenance
        message, and those in the stale set — the only ones whose routing
        state can differ from a fresh derivation — re-derive it."""
        nodes = self._nodes
        stale = self._stale
        for node in (
            nodes.values() if stale is None
            else [nodes[uid] for uid in stale if uid in nodes]
        ):
            self._refresh_routing_state(node)
        self.network.count_maintenance(len(nodes))
        self._stale = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outlink_counts(self) -> list[int]:
        """Per-node count of distinct live neighbours (Figure 3a)."""
        return [len(node.outlinks()) for node in self.nodes()]

    def directory_sizes(self) -> list[int]:
        """Per-node directory sizes (Figure 3b–d)."""
        return [node.directory_size() for node in self.nodes()]
