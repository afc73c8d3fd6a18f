"""Cycloid DHT (Shen, Xu & Chen, Performance Evaluation 2006) — simulated.

Cycloid is the constant-degree hierarchical overlay LORM is built on.  With
dimension ``d`` it accommodates ``n = d * 2**d`` nodes; each node carries a
pair of indices ``(k, a)``:

* ``k`` — the *cyclic* index, an integer in ``[0, d)``.  Nodes sharing a
  cubical index are ordered by cyclic index on a small cycle, the *cluster*.
* ``a`` — the *cubical* index, a ``d``-bit number in ``[0, 2**d)``.
  Clusters are ordered by cubical index on one large cycle.

Each node maintains the seven-entry constant-degree routing table of the
Cycloid paper:

==================  ========================================================
entry               target
==================  ========================================================
cubical neighbour   ``((k-1) mod d,  a XOR 2**((k-1) mod d))`` — flips the
                    bit its cyclic position is responsible for
2 cyclic            ``((k-1) mod d, preceding / succeeding cluster)``
2 inside leaf set   cyclic predecessor / successor within the own cluster
2 outside leaf set  top node of the preceding / succeeding cluster on the
                    large cycle
==================  ========================================================

Routing emulates cube-connected-cycles routing: descend the local cluster
cycle one cyclic position per hop, taking the cubical link whenever the bit
that position governs differs from the target cluster, then walk the target
cluster to the wanted cyclic index.  Expected path length is ``O(d)``
(Theorem 4.7 uses ``d`` hops per lookup), with constant (7) out-degree —
the two properties LORM inherits.

Key assignment is cluster-first, as LORM requires: a key ``(k, a)`` belongs
to the nearest non-empty cluster to ``a`` on the large cycle, and within
that cluster to the node with the nearest cyclic index.  This makes the
cyclic dimension an order-preserving sub-space per cluster, the property
behind Proposition 3.1's intra-cluster range walk.
"""

from __future__ import annotations

import bisect
from array import array
from collections.abc import Iterable
from operator import itemgetter
from typing import NamedTuple

from repro.overlay.base import Overlay
from repro.overlay.idspace import IdSpace, closest_on_ring
from repro.overlay.node import ArcDirectory, LookupResult, OverlayNode, WalkResult
from repro.sim.durability import DurabilityPolicy
from repro.sim.faults import NO_RETRY_POLICY, LookupPolicy
from repro.utils.validation import require

__all__ = ["CycloidId", "CycloidNode", "CycloidOverlay"]


class CycloidId(NamedTuple):
    """A Cycloid identifier: (cyclic index ``k``, cubical index ``a``)."""

    k: int
    a: int


#: The order of :meth:`CycloidOverlay._ordered_ids`: cluster, then cyclic.
_ORDERED_BY = itemgetter(1, 0)
#: A scored fault-path candidate's sort key (stable: ties keep slot order).
_BY_SCORE = itemgetter(0)


class CycloidNode(OverlayNode):
    """A Cycloid node with the seven-entry constant-degree routing table."""

    __slots__ = (
        "cubical_neighbor",
        "cyclic_neighbors",
        "inside_leaf",
        "outside_leaf",
    )

    def __init__(self, cid: CycloidId, arcs: ArcDirectory | None = None) -> None:
        super().__init__(cid, arcs)
        self.cubical_neighbor: CycloidNode | None = None
        #: (node in preceding cluster, node in succeeding cluster), both at
        #: cyclic level k-1 when available.
        self.cyclic_neighbors: tuple[CycloidNode | None, CycloidNode | None] = (None, None)
        #: (cyclic predecessor, cyclic successor) within the own cluster.
        self.inside_leaf: tuple[CycloidNode | None, CycloidNode | None] = (None, None)
        #: (top of preceding cluster, top of succeeding cluster).
        self.outside_leaf: tuple[CycloidNode | None, CycloidNode | None] = (None, None)

    @property
    def cid(self) -> CycloidId:
        """The node's (k, a) identifier."""
        return self.uid  # type: ignore[return-value]

    @property
    def k(self) -> int:
        """Cyclic index."""
        return self.cid.k

    @property
    def a(self) -> int:
        """Cubical index (cluster)."""
        return self.cid.a

    def table_entries(self) -> list["CycloidNode"]:
        """All live routing-table entries, duplicates removed."""
        seen: dict[CycloidId, CycloidNode] = {}
        candidates = (
            self.cubical_neighbor,
            *self.cyclic_neighbors,
            *self.inside_leaf,
            *self.outside_leaf,
        )
        for node in candidates:
            if node is not None and node.alive and node is not self:
                seen[node.cid] = node
        return list(seen.values())

    def outlinks(self) -> set[CycloidId]:
        """Distinct live neighbours (Figure 3a metric; ≤ 7 by construction)."""
        return {node.cid for node in self.table_entries()}


class CycloidOverlay(Overlay):
    """A simulated Cycloid overlay of dimension ``d`` (geometry hooks under
    :class:`Overlay`).

    Replicas stay inside the owner's cluster (the closest node plus its
    cluster successors), so the intra-cluster range walk still sees every
    key.

    Examples
    --------
    >>> overlay = CycloidOverlay(dimension=3)
    >>> overlay.build_full()
    >>> overlay.num_nodes
    24
    >>> result = overlay.lookup(overlay.node(CycloidId(0, 0)), CycloidId(2, 5))
    >>> result.owner.cid
    CycloidId(k=2, a=5)
    """

    kind = "cycloid"
    walk_edge = "inside-leaf"
    walk_name = "walk_cluster"

    def __init__(
        self,
        dimension: int,
        routing_mode: str = "adaptive",
        routing_cache: bool = True,
        durability: DurabilityPolicy | None = None,
    ) -> None:
        require(dimension >= 2, f"dimension must be >= 2, got {dimension}")
        require(
            routing_mode in ("adaptive", "msb"),
            f"routing_mode must be 'adaptive' or 'msb', got {routing_mode!r}",
        )
        #: Routing discipline while clusters disagree:
        #:   * "adaptive" (default) — descend immediately, fixing whichever
        #:     bit the current cyclic level governs; no ascending phase.
        #:     Correct for any occupancy here because the cubical neighbour
        #:     targets the closest node of the exact flipped cluster.
        #:   * "msb" — the Cycloid paper's three-phase discipline: ascend
        #:     to the most significant differing bit, then descend fixing
        #:     bits MSB-first.  Longer paths (the ascending phase is pure
        #:     overhead under full occupancy); kept for fidelity and
        #:     measured in benchmarks/test_ablation_routing.py.
        self.routing_mode = routing_mode
        self.dimension = dimension
        self.cubical_space = IdSpace(dimension)  # ring of 2**d clusters
        super().__init__(durability, routing_cache)
        #: cluster -> its present cyclic indices, a sorted ``array('q')``
        #: (the membership index; hot callers bisect it directly)
        self._clusters: dict[int, array] = {}
        #: the non-empty clusters' cubical indices, a sorted ``array('q')``
        self._cluster_ids = array("q")
        #: Memoised :meth:`_slot_row` per node id: routing-table state
        #: only, so no membership event flushes it — the refresh that
        #: rewrites a node's slots pops its row, and a departure pops the
        #: departed node's.
        self._slot_rows: dict[CycloidId, tuple] = {}

    def invalidate_routing_caches(self) -> None:
        self._slot_rows.clear()

    # ------------------------------------------------------------------
    # Membership / construction
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum population, ``d * 2**d``."""
        return self.dimension * self.cubical_space.size

    @property
    def num_clusters(self) -> int:
        """Current number of non-empty clusters."""
        return len(self._cluster_ids)

    def _ordered_ids(self) -> Iterable[CycloidId]:
        """Live node IDs, ordered by (cluster, cyclic index)."""
        return (
            CycloidId(k, a) for a in self._cluster_ids for k in self._clusters[a]
        )

    def nodes(self) -> Iterable[CycloidNode]:
        """All live nodes."""
        return (self._nodes[cid] for cid in self.node_ids)

    def cluster_members(self, a: int) -> list[CycloidNode]:
        """Live nodes of cluster ``a`` ordered by cyclic index."""
        return [self._nodes[CycloidId(k, a)] for k in self._clusters.get(a, [])]

    def build(self, node_ids: Iterable[CycloidId]) -> None:
        """Construct a stabilized overlay over ``node_ids`` in one shot."""
        ids = sorted({CycloidId(k % self.dimension, a % self.cubical_space.size)
                      for k, a in node_ids})
        require(bool(ids), "cannot build an empty overlay")
        self._nodes = {cid: CycloidNode(cid, self._arcs) for cid in ids}
        grouped: dict[int, list[int]] = {}
        for cid in ids:
            grouped.setdefault(cid.a, []).append(cid.k)
        self._clusters = {a: array("q", ks) for a, ks in grouped.items()}
        self._cluster_ids = array("q", sorted(self._clusters))
        self._node_ids = None
        self._arcs.clear()  # the new nodes hold nothing yet
        self.invalidate_routing_caches()
        for node in self._nodes.values():
            self._refresh_routing_state(node)
        self._stale = set()

    def build_full(self) -> None:
        """Construct the complete ``d * 2**d`` overlay (the paper's 2048)."""
        self.build(
            CycloidId(k, a)
            for a in range(self.cubical_space.size)
            for k in range(self.dimension)
        )

    # ------------------------------------------------------------------
    # Oracle helpers
    # ------------------------------------------------------------------
    def nearest_cluster(self, a: int) -> int:
        """The non-empty cluster nearest to cubical index ``a``.

        Bisect over the maintained sorted cluster index — with ``2**d``
        clusters a linear closest-scan dominated every lookup.
        """
        require(bool(self._cluster_ids), "overlay is empty")
        a = self.cubical_space.wrap(a)
        if a in self._clusters:
            return a
        return closest_on_ring(a, self._cluster_ids, self.cubical_space.size)

    def closest_node(self, target: CycloidId) -> CycloidNode:
        """The live node owning key ``target`` (cluster-first closeness).

        First the nearest non-empty cluster to ``target.a`` on the large
        cycle, then the node with cyclic index nearest ``target.k`` (ties
        clockwise) inside that cluster; derived from the membership index
        on every call, by at most two bisects.
        """
        d = self.dimension
        cluster = self.nearest_cluster(target.a)
        best = closest_on_ring(target.k % d, self._clusters[cluster], d)
        return self._nodes[CycloidId(best, cluster)]

    def _cluster_neighbor(self, a: int, direction: int) -> int | None:
        """Nearest non-empty cluster strictly after (+1) / before (-1) ``a``.

        Wraps around the large cycle; returns ``None`` only when ``a`` is
        the sole non-empty cluster.
        """
        ids = self._cluster_ids
        if not ids:
            return None
        if len(ids) == 1:
            return None if ids[0] == a else ids[0]
        if direction > 0:
            idx = bisect.bisect_right(ids, a) % len(ids)
        else:
            idx = (bisect.bisect_left(ids, a) - 1) % len(ids)
        return ids[idx]

    def _refresh_near(self, node: CycloidNode) -> None:
        """Inside and outside leaf sets (the cluster-local entries)."""
        k, a = node.cid
        self._slot_rows.pop(node.uid, None)

        # Inside leaf set: cyclic predecessor and successor in own cluster.
        ks = self._clusters[a]
        if len(ks) == 1:
            node.inside_leaf = (None, None)
        else:
            idx = bisect.bisect_left(ks, k)
            pred = self._nodes[CycloidId(ks[(idx - 1) % len(ks)], a)]
            succ = self._nodes[CycloidId(ks[(idx + 1) % len(ks)], a)]
            node.inside_leaf = (pred, succ)

        # Outside leaf set: top (largest cyclic index) nodes of the adjacent
        # clusters on the large cycle.
        prev_cluster = self._cluster_neighbor(a, -1)
        next_cluster = self._cluster_neighbor(a, +1)
        out_prev = (
            self._nodes[CycloidId(self._clusters[prev_cluster][-1], prev_cluster)]
            if prev_cluster is not None else None
        )
        out_next = (
            self._nodes[CycloidId(self._clusters[next_cluster][-1], next_cluster)]
            if next_cluster is not None else None
        )
        node.outside_leaf = (
            out_prev if out_prev is not node else None,
            out_next if out_next is not node else None,
        )

    def _refresh_far(self, node: CycloidNode) -> None:
        """Cubical and cyclic neighbours (the long-range routing entries)."""
        d = self.dimension
        k, a = node.cid
        self._slot_rows.pop(node.uid, None)
        j = (k - 1) % d

        # Cubical neighbour: level j in the cluster differing at bit j.
        flipped = a ^ (1 << j)
        cub = self.closest_node(CycloidId(j, flipped))
        node.cubical_neighbor = cub if cub is not node else None

        # Cyclic neighbours: level-(k-1) nodes of adjacent non-empty clusters.
        prev_cluster = self._cluster_neighbor(a, -1)
        next_cluster = self._cluster_neighbor(a, +1)
        cyc_prev = (
            self.closest_node(CycloidId(j, prev_cluster))
            if prev_cluster is not None else None
        )
        cyc_next = (
            self.closest_node(CycloidId(j, next_cluster))
            if next_cluster is not None else None
        )
        node.cyclic_neighbors = (
            cyc_prev if cyc_prev is not node else None,
            cyc_next if cyc_next is not node else None,
        )

    # ------------------------------------------------------------------
    # Linearized-key view: (k, a) <-> a*d + k
    # ------------------------------------------------------------------
    #: The linearized identifier space spans every ``(k, a)`` position.
    id_space_size = capacity

    def linearize(self, cid: CycloidId) -> int:
        """The integer storage key of ``(k, a)``: ``a * d + k``."""
        return cid.a * self.dimension + (cid.k % self.dimension)

    def delinearize(self, value: int) -> CycloidId:
        """Inverse of the (k, a) → int storage-key mapping."""
        return CycloidId(value % self.dimension, value // self.dimension)

    key_id = linearize
    key_of = delinearize

    def owner_of(self, key_id: int) -> CycloidNode:
        """The live node owning storage key ``key_id``."""
        return self.closest_node(self.delinearize(key_id))

    def uid_of(self, node: CycloidNode) -> int:
        """``node``'s identifier in the network's integer space."""
        return self.linearize(node.cid)

    # ------------------------------------------------------------------
    # Routed lookup
    # ------------------------------------------------------------------
    def _lookup_plain(self, start: CycloidNode, target: CycloidId) -> LookupResult:
        """The fault-free CCC route (oracle stop test).

        Cube-connected-cycles emulation: while the cubical index disagrees
        with the owner's cluster, descend one cyclic level per hop — via the
        cubical link when the bit governed by that level differs, via the
        inside leaf set otherwise — then walk the final cluster's small
        cycle to the owner.  Every hop follows a maintained routing-table
        link; the membership oracle is used only to know when to stop.

        The final-phase and adaptive steps are inline, on the ``(k, a)``
        of ``cur.uid`` unpacked once per hop; what is off the fault-free
        stabilised path (:meth:`_next_hop_msb`, :meth:`_greedy_fallback`,
        :meth:`_clockwise_hop`) stays a method.
        """
        owner = self.closest_node(target)
        ok, oa = owner.uid
        d = self.dimension
        msb = self.routing_mode == "msb"
        cur = start
        cid = cur.uid
        hops = 0
        path = [cid]
        visited = {cid}
        # Fallback big-cycle traversal mode: entered when the CCC/greedy
        # steps revisit a node (possible while routing state is being
        # repaired under churn).  It walks strictly clockwise — outside
        # leaf sets across clusters, then inside leaf successors within the
        # owner's cluster — which terminates unconditionally.
        deterministic = False
        max_hops = 10 * d + 3 * len(self._cluster_ids) + 4
        while cur is not owner and hops < max_hops:
            if deterministic:
                nxt = self._clockwise_hop(cur, owner)
            else:
                # The link the CCC discipline names; the whole table where
                # that one is missing or dead.
                ck, ca = cid
                if ca == oa:
                    # Final phase: walk the cluster's small cycle the
                    # short way.
                    pred, succ = cur.inside_leaf
                    if (ok - ck) % d <= (ck - ok) % d:
                        nxt, other = succ, pred
                    else:
                        nxt, other = pred, succ
                    if nxt is None or not nxt.alive:
                        nxt = other
                elif msb:
                    nxt = self._next_hop_msb(cur, owner)
                elif (ca ^ oa) >> (ck - 1) % d & 1:
                    nxt = cur.cubical_neighbor
                    if nxt is not None and nxt.uid[1] == ca:
                        nxt = None
                else:
                    nxt = cur.inside_leaf[0]
                    if nxt is None or not nxt.alive:
                        nxt = cur.cubical_neighbor  # singleton cluster: leave via cube
                if nxt is None or not nxt.alive:
                    nxt = self._greedy_fallback(cur, owner)
                if nxt is None or nxt is cur or nxt.uid in visited:
                    deterministic = True
                    nxt = self._clockwise_hop(cur, owner)
            if nxt is None or nxt is cur:
                break
            cur = nxt
            cid = cur.uid
            hops += 1
            path.append(cid)
            visited.add(cid)
        self.network.count_hop(hops)
        if cur is not owner:
            raise RuntimeError(
                f"Cycloid routing did not converge: {start.cid} -> {target} "
                f"stopped at {cur.cid} (owner {owner.cid}) after {hops} hops"
            )
        return LookupResult(owner=cur, hops=hops, path=tuple(path))

    def edge_kind(self, src: CycloidNode, dst: CycloidNode) -> str:
        """Which routing-table entry of ``src`` reaches ``dst``.

        Classification only (tracing annotations); priority follows the
        CCC routing discipline: cubical link, inside leaf set, cyclic
        neighbours, outside leaf set.
        """
        if dst is src.cubical_neighbor:
            return "cubical"
        if dst is src.inside_leaf[0] or dst is src.inside_leaf[1]:
            return "inside-leaf"
        if dst is src.cyclic_neighbors[0] or dst is src.cyclic_neighbors[1]:
            return "cyclic"
        if dst is src.outside_leaf[0] or dst is src.outside_leaf[1]:
            return "outside-leaf"
        return "unknown"

    def structural_hop_bound(self) -> int:
        """Worst-case hops of one fault-free lookup on the stabilized
        overlay: the adaptive descend plus the deterministic fallback
        sweep over the live clusters never exceed this."""
        return 10 * self.dimension + 3 * self.num_clusters + 4

    def _fault_hop_budget(self) -> int:
        """The fault path's give-up point (sized for a full cluster ring)."""
        return 10 * self.dimension + 3 * self.cubical_space.size + 4

    def _fault_step(
        self, cur: CycloidNode, key: CycloidId, policy: LookupPolicy
    ) -> list[tuple[int, CycloidNode]] | None:
        """One fault-path hop from ``cur``, judged from local state alone:
        ``None`` when no live table entry is strictly key-closer — closer
        cluster first, then cyclic index: :meth:`closest_node`'s closeness
        computed without the membership oracle (a local minimum believes
        it owns the key),
        else those entries nearest first (only the nearest without
        ``policy.failover``) as ``(linearized id, node)`` pairs.  Strict
        improvement bounds the route without any oracle termination check.

        One pass over ``cur``'s :meth:`_slot_row` — each distinct entry
        checked for liveness and scored once, on its integer ``(k, a)``,
        as ``cluster distance * d + cyclic distance`` (the badness order,
        as a cyclic distance is below ``d``); ties keep slot order, and
        only the improving entries get their linearized id.
        """
        tk, ta = key
        d = self.dimension
        size = self.cubical_space.size
        uid = cur.uid
        ck, ca = uid
        gap = (ca - ta) % size
        lag = (ck - tk) % d
        own = (size - gap if 2 * gap > size else gap) * d + (d - lag if 2 * lag > d else lag)
        row = self._slot_rows.get(uid)
        if row is None:
            row = self._slot_row(cur)
        improving = []
        entries = iter(row)
        for k, a, node in zip(entries, entries, entries):
            if not node.alive:
                continue
            gap = (a - ta) % size
            lag = (k - tk) % d
            score = (size - gap if 2 * gap > size else gap) * d + (
                d - lag if 2 * lag > d else lag
            )
            if score < own:
                improving.append((score, a * d + k, node))
        if not improving:
            return None
        improving.sort(key=_BY_SCORE)
        if not policy.failover:
            del improving[1:]
        return [(lin, node) for _, lin, node in improving]

    def _slot_row(self, node: CycloidNode) -> tuple:
        """``node``'s seven routing-table slots, flat: ``k, a, entry`` per
        distinct entry in slot order (a repeated entry at its first slot;
        missing entries and ``node`` itself dropped), memoised in
        ``_slot_rows`` until :meth:`_refresh_near` / :meth:`_refresh_far`
        rewrite the slots, ``node`` departs or
        :meth:`invalidate_routing_caches` runs — a membership event alone
        never changes a slot, and liveness is not part of the row.

        Slot contents only: liveness is read by each step.  ``node``
        itself never scores below its own position, so dropping it
        changes no step.  A row is one tuple (at most 21 references to
        objects the table already holds): ~210 bytes per node.
        """
        row: list = []
        seen: list[CycloidNode] = [node]
        for entry in (
            node.cubical_neighbor, *node.cyclic_neighbors, *node.inside_leaf, *node.outside_leaf
        ):
            if entry is None or any(entry is other for other in seen):
                continue
            seen.append(entry)
            row += entry.uid
            row.append(entry)
        if self.routing_cache:
            self._slot_rows[node.uid] = row = tuple(row)
        return row

    def _next_hop_msb(self, cur: CycloidNode, owner: CycloidNode) -> CycloidNode | None:
        """The link the Cycloid paper's MSB-first step names (clusters
        still disagree) — possibly missing or dead; the caller falls back.

        Let ``l`` be the most significant differing bit.  Ascend (inside
        leaf successor) while the node's level is too low to fix it, flip
        via the cubical link when standing exactly at level ``l + 1``, and
        descend (inside leaf predecessor) when above it.
        """
        l = (cur.a ^ owner.a).bit_length() - 1
        pred, succ = cur.inside_leaf
        if cur.k == (l + 1) % self.dimension or (cur.k - 1) % self.dimension == l:
            cand = cur.cubical_neighbor
            return cand if cand is None or cand.a != cur.a else None
        return succ if cur.k < l + 1 else pred  # ascending / descending phase

    def _clockwise_hop(self, cur: CycloidNode, owner: CycloidNode) -> CycloidNode | None:
        """Strictly clockwise progress: next cluster's top node until the
        owner's cluster is reached, then the inside-leaf successor.

        Every hop moves to a node not seen before within this mode, so the
        walk terminates within #clusters + cluster-size hops.
        """
        if cur.a != owner.a:
            for cand in (cur.outside_leaf[1], cur.cyclic_neighbors[1]):
                if cand is not None and cand.alive:
                    return cand
            return None
        succ = cur.inside_leaf[1]
        return succ if succ is not None and succ.alive else None

    def _greedy_fallback(self, cur: CycloidNode, owner: CycloidNode) -> CycloidNode | None:
        """Strictly-improving greedy step over the whole routing table: the
        fault path's nearest step towards ``owner`` (:meth:`_fault_step`).

        Used when the ideal CCC link is missing (sparse overlay or between
        repairs under churn).  Falls back to the outside leaf set — the
        large-cycle traversal — which always makes cluster-ring progress, so
        routing still terminates.
        """
        step = self._fault_step(cur, owner.uid, NO_RETRY_POLICY)
        if step:
            return step[0][1]
        # No strictly-improving entry: take an outside-leaf step clockwise.
        for cand in (cur.outside_leaf[1], cur.outside_leaf[0]):
            if cand is not None and cand.alive:
                return cand
        return None

    # ------------------------------------------------------------------
    # Intra-cluster walk (LORM's range-query primitive)
    # ------------------------------------------------------------------
    #: The public range-walk entry point: :meth:`Overlay.walk` (tracer
    #: dispatch + WALK span) around :meth:`_walk_impl`.
    walk_cluster = Overlay.walk

    def _walk_attrs(self, k_from: int, k_to: int) -> dict[str, int]:
        return {"k_from": k_from % self.dimension, "k_to": k_to % self.dimension}

    def _walk_impl(self, start: CycloidNode, k_from: int, k_to: int) -> WalkResult:
        """Nodes of ``start``'s cluster covering cyclic sector [k_from, k_to].

        LORM's range query routes to the root of the lower bound and then
        forwards along cluster successors while cyclic positions of the
        queried range remain ahead (Section III).  Returns the visited
        nodes in order, ``start`` first; the caller passes
        ``start = closest(k_from)``.  By Proposition 3.1 the visited nodes
        cover every cyclic sector the value range can map into.

        Ownership within a cluster is nearest-cyclic-index, so the
        boundary between two adjacent members sits at the midpoint of
        their gap (ties clockwise); the walk continues while the next
        member's first owned position still lies within the queried span —
        which also handles ranges covering (almost) the whole cluster,
        where the end owner can wrap behind the start.

        Returns a :class:`WalkResult` (a ``list`` of nodes): a walk cut
        short by a broken leaf chain — or, under an active fault injector,
        by an unreachable cluster successor — is marked ``truncated``.
        """
        fault_mode = self.faults_active
        d = self.dimension
        k_from %= d
        k_to %= d
        span = (k_to - k_from) % d
        num_members = len(self._clusters.get(start.a, ()))
        if fault_mode:
            send = self._walk_sender()
            # The sender's linearized id, carried along the walk.
            src_id = start.a * d + start.k
        result = WalkResult([start])
        cur = start
        while len(result) < num_members:
            succ = cur.inside_leaf[1]
            if succ is None or not succ.alive:
                # Mid-repair leaf chain: the rest of the sector is
                # unreachable from here.
                self._truncate_walk(result, "broken cluster leaf chain")
                break
            if succ is start:
                break
            # First cyclic position owned by succ, clockwise from cur:
            # the midpoint of the gap (ties go clockwise, i.e. to succ).
            gap = (succ.k - cur.k) % d
            first_of_succ = (cur.k + (gap + 1) // 2) % d
            if (first_of_succ - k_from) % d > span:
                break
            if fault_mode:
                k, a = succ.uid
                dst_id = a * d + k
                nxt, retries, _skipped = send(src_id, [(dst_id, succ)])
                result.retries += retries
                if nxt is None:
                    self._truncate_walk(result, "unreachable cluster successor")
                    result.timed_out = True
                    break
                src_id = dst_id
            cur = succ
            result.append(cur)
        return result

    # ------------------------------------------------------------------
    # Key storage
    # ------------------------------------------------------------------
    def _native_holders(self, key: CycloidId, count: int) -> list[CycloidNode]:
        """The closest node plus the next ``count - 1`` distinct members
        clockwise in its cluster — the intra-cluster holders of the native
        placement."""
        owner = self.closest_node(key)
        ks = self._clusters[owner.a]
        at = bisect.bisect_left(ks, owner.k)
        return [owner] + [
            self._nodes[CycloidId(ks[(at + offset) % len(ks)], owner.a)]
            for offset in range(1, min(count, len(ks)))
        ]

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def join(self, cid: CycloidId) -> CycloidNode:
        """A new node joins; every bucket whose replica set it enters moves
        onto the new set (:meth:`_place_after`)."""
        cid = self._normalize_id(cid)
        require(cid not in self._nodes, f"node {cid} already present")
        node = CycloidNode(cid, self._arcs)
        had_members = bool(self._nodes)
        if had_members:
            # Keys the newcomer takes over may sit on its own cluster's
            # members (intra-cluster redistribution) and on the nearest
            # non-empty cluster on either side (keys whose target cluster
            # was empty and had been pushed outward).
            donors = self.cluster_members(cid.a)
            for direction in (-1, +1):
                adjacent = self._cluster_neighbor(cid.a, direction)
                if adjacent is not None and adjacent != cid.a:
                    donors.extend(self.cluster_members(adjacent))
            keys, before = self._replica_sets(donors)

        self._nodes[cid] = node
        self._membership_add(cid)

        self._refresh_routing_state(node)
        self.network.count_maintenance(7)
        if had_members and self._place_after(keys, before):
            self.network.count_maintenance(1)
        self._repair_neighbourhood(node)
        return node

    def _normalize_id(self, cid: CycloidId) -> CycloidId:
        return CycloidId(cid.k % self.dimension, cid.a % self.cubical_space.size)

    def _splice_node_ids(self, cid: CycloidId, joined: bool) -> None:
        """Patch :attr:`node_ids` for one join or departure: re-deriving
        it builds ``n`` fresh ``CycloidId`` tuples for the next entry-node
        draw, the splice copies ``n`` references."""
        ids = self._node_ids
        if ids is None:
            return
        at = bisect.bisect_left(ids, (cid.a, cid.k), key=_ORDERED_BY)
        self._node_ids = ids[:at] + (cid,) + ids[at:] if joined else ids[:at] + ids[at + 1:]

    def _membership_add(self, cid: CycloidId) -> None:
        self._splice_node_ids(cid, joined=True)
        ks = self._clusters.setdefault(cid.a, array("q"))
        bisect.insort(ks, cid.k)
        if len(ks) == 1:
            bisect.insort(self._cluster_ids, cid.a)
        self._membership_changed(cid.a, redrawn=len(ks) == 1)

    def _membership_remove(self, cid: CycloidId) -> None:
        self._splice_node_ids(cid, joined=False)
        ks = self._clusters[cid.a]
        del ks[bisect.bisect_left(ks, cid.k)]
        if not ks:
            del self._clusters[cid.a]
            del self._cluster_ids[bisect.bisect_left(self._cluster_ids, cid.a)]
        self._slot_rows.pop(cid, None)
        self._membership_changed(cid.a, redrawn=not ks)

    def _membership_changed(self, a: int, redrawn: bool) -> None:
        """Mark stale after a join or departure in cluster ``a`` (already
        applied to the index).

        A cluster created or emptied (``redrawn``) re-draws the
        nearest-cluster cells: every node is stale.  Otherwise ownership
        moves only inside ``a``, for the keys of its cells, so the stale
        set grows by their cubical dependents.  Slot rows copy slots,
        which no event rewrites but a refresh (that pops the row itself).
        """
        if redrawn:
            self._stale = None
        else:
            self._mark_stale(self._nearest_cells(a))

    def _nearest_cells(self, a: int) -> list[int]:
        """The cubical indices whose nearest non-empty cluster is ``a``,
        ``a`` first."""
        size = self.cubical_space.size
        cells = [a]
        for step in (1, -1):
            t = (a + step) % size
            while t != a and self.nearest_cluster(t) == a:
                cells.append(t)
                t = (t + step) % size
        return cells

    def _mark_stale(self, cells: list[int]) -> None:
        """Add to the stale set every node a membership change inside the
        surviving cluster that owns ``cells`` can have invalidated, beyond
        the three clusters :meth:`_repair_neighbourhood` re-derives on the
        spot.

        Leaf sets and cyclic neighbours only reach the own and the two
        adjacent clusters, so what is left are the cubical links resolved
        through the cluster: for each cubical index ``t`` of its cells and
        each level ``j``, the node one level up in the cluster differing
        from ``t`` at bit ``j``.  The full-sweep reference
        ``routing_cache=False`` marks everything.
        """
        stale = self._stale
        if stale is None:
            return
        if not self.routing_cache:
            self._stale = None
            return
        d = self.dimension
        stale.update(
            CycloidId((j + 1) % d, t ^ (1 << j)) for t in cells for j in range(d)
        )

    def _repair_neighbourhood(self, node: CycloidNode) -> None:
        """Refresh routing state around a membership change.

        Cycloid's self-organization repairs the leaf sets of affected
        cluster members and the outside leaf sets / cyclic links of the
        adjacent clusters; distant cubical links (:meth:`_mark_stale`) are
        refreshed lazily by :meth:`stabilize_all`.
        """
        affected: list[CycloidNode] = []
        if node.a in self._clusters:
            affected.extend(self.cluster_members(node.a))
        for direction in (-1, +1):
            adjacent = self._cluster_neighbor(node.a, direction)
            if adjacent is not None and adjacent != node.a:
                affected.extend(self.cluster_members(adjacent))
        for member in affected:
            self._refresh_routing_state(member)
            self.network.count_maintenance(1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the cluster index, leaf-set mutuality and cluster ordering
        (test support)."""
        assert sorted(self._clusters) == list(self._cluster_ids), (
            f"cluster index {list(self._cluster_ids)} != non-empty clusters "
            f"{sorted(self._clusters)}"
        )
        for a, ks in self._clusters.items():
            assert list(ks) == sorted(ks), f"cluster {a} not ordered"
            members = self.cluster_members(a)
            for idx, member in enumerate(members):
                if len(members) == 1:
                    assert member.inside_leaf == (None, None)
                    continue
                pred, succ = member.inside_leaf
                assert pred is members[(idx - 1) % len(members)], (
                    f"{member.cid}: inside-leaf predecessor mismatch"
                )
                assert succ is members[(idx + 1) % len(members)], (
                    f"{member.cid}: inside-leaf successor mismatch"
                )
