"""Chord DHT (Stoica et al., IEEE/ACM ToN 2003) — simulated, with churn.

Chord is the flat DHT the paper uses underneath all three comparator
approaches ("To be comparable, we use Chord for attribute hubs in Mercury,
and we replace Bamboo DHT with Chord in SWORD"; MAAN is natively
Chord-based).  This implementation provides:

* an ``bits``-bit circular ID space with key ownership by successor;
* per-node finger tables (``finger[i] = successor(id + 2**i)``),
  predecessor pointers and successor lists;
* iterative greedy lookup via closest-preceding-finger with per-hop
  accounting (the paper's "logical hops" metric; expected ``log2(n)/2``
  hops, cf. Theorem 4.7);
* clockwise *successor walks* over an ID arc — the primitive behind
  Mercury's and MAAN's range queries — with visited-node accounting;
* graceful node join/leave with key transfer and routing-state repair, and
  a ``stabilize_all`` pass modelling Chord's periodic stabilization.

The overlay keeps a sorted membership index which acts as the omniscient
oracle for building routing state (a *stabilized* network) and for
verifying that routed lookups land on the true successor.  Routing itself
only ever follows per-node links, so hop counts are honest.
"""

from __future__ import annotations

import bisect
import warnings
from array import array
from collections.abc import Iterable

from repro.overlay.base import Overlay
from repro.overlay.idspace import IdSpace
from repro.overlay.node import ArcDirectory, LookupResult, OverlayNode, WalkResult
from repro.sim.durability import DurabilityPolicy
from repro.sim.faults import LookupPolicy
from repro.utils.validation import require

__all__ = ["ChordNode", "ChordRing"]


class ChordNode(OverlayNode):
    """A Chord node: finger table, predecessor, successor list."""

    __slots__ = ("fingers", "predecessor", "successor_list")

    def __init__(self, node_id: int, bits: int, arcs: ArcDirectory | None = None) -> None:
        super().__init__(node_id, arcs)
        #: finger[i] targets successor(id + 2**i); entries may go stale
        #: (dead) between stabilization rounds.
        self.fingers: list[ChordNode | None] = [None] * bits
        self.predecessor: ChordNode | None = None
        #: Chord's r-entry successor list for resilience; entry 0 is the
        #: immediate successor.
        self.successor_list: list[ChordNode] = []

    @property
    def node_id(self) -> int:
        """The node's ring identifier."""
        return self.uid  # type: ignore[return-value]

    @property
    def successor(self) -> "ChordNode | None":
        """Immediate successor (first live entry of the successor list)."""
        for candidate in self.successor_list:
            if candidate.alive:
                return candidate
        return None

    def outlinks(self) -> set[int]:
        """Distinct live neighbours this node maintains (Figure 3a metric)."""
        links: set[int] = set()
        for finger in self.fingers:
            if finger is not None and finger.alive:
                links.add(finger.node_id)
        for succ in self.successor_list:
            if succ.alive:
                links.add(succ.node_id)
        if self.predecessor is not None and self.predecessor.alive:
            links.add(self.predecessor.node_id)
        links.discard(self.node_id)
        return links


#: One node's finger row: ascending clockwise distances (``array('q')``)
#: and the finger at each distance — see :meth:`ChordRing._finger_row`.
FingerRow = tuple[array, tuple[ChordNode, ...]]


class ChordRing(Overlay):
    """A simulated Chord overlay (geometry hooks under :class:`Overlay`).

    Parameters
    ----------
    bits:
        Width of the ID space (the paper uses 11, so 2048 IDs).
    routing_cache:
        Keep the caches derived from the membership (``False`` is the
        reference path the equivalence tests diff against).
    durability:
        Where a key's copies live (``None``: on its owner alone).

    Examples
    --------
    >>> ring = ChordRing(bits=4)
    >>> ring.build([1, 5, 9, 13])
    >>> ring.successor_of(6).node_id
    9
    >>> result = ring.lookup(ring.node(1), 6)
    >>> result.owner.node_id
    9
    """

    kind = "chord"
    walk_edge = "successor"
    walk_name = "walk_arc"
    #: Whether every live node's ``successor`` is, at all times, the next
    #: id of the membership index: ``join`` / ``leave`` / ``fail`` refresh
    #: the changed node's predecessor before they return, and a node that
    #: later rejoins is a new object, so a stale list entry stays dead.
    #: It is what lets a fault-free walk be cut from the index.
    successors_track_membership = True
    #: Length of each node's successor list (resilience under churn).
    successor_list_len = 4

    def __init__(
        self,
        bits: int,
        routing_cache: bool = True,
        durability: DurabilityPolicy | None = None,
    ) -> None:
        # The membership index and arc directory store ids as array('q').
        require(1 <= bits <= 62, f"ChordRing needs bits in [1, 62], got {bits}")
        self.space = IdSpace(bits)
        super().__init__(durability, routing_cache)
        #: The membership index: live ids, sorted, one machine word each —
        #: the node objects and their routing pointers are views over it.
        #: Hot callers bisect it directly, in C.
        self._sorted_ids = array("q")
        #: The node objects in the same order — the index's second column,
        #: so a run of ring members is one list slice.
        self._ring: list[ChordNode] = []
        #: Each node's *finger row* (:meth:`_finger_row`), what the
        #: closest-preceding-finger step of :meth:`_lookup_plain` reads
        #: (pure memoisation, no observable effect).  :meth:`build` clears
        #: it, :meth:`_refresh_far` pops the row it rewrites, a join drops
        #: nothing and a departure only the rows that can name the departed
        #: node (:meth:`_drop_departed_rows`).  ``routing_cache=False``
        #: keeps no rows (the equivalence tests diff the two modes).
        self._cpf_cache: dict[int, FingerRow] = {}

    def invalidate_routing_caches(self) -> None:
        self._cpf_cache.clear()

    # ------------------------------------------------------------------
    # Membership / construction
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        """ID-space width."""
        return self.space.bits

    def _ordered_ids(self) -> Iterable[int]:
        """Live node IDs in ring order."""
        return self._sorted_ids

    def nodes(self) -> Iterable[ChordNode]:
        """All live nodes, in ring order."""
        return (self._nodes[i] for i in self._sorted_ids)

    def build(self, node_ids: Iterable[int]) -> None:
        """Construct a stabilized ring over ``node_ids`` in one shot."""
        ids = sorted(set(self.space.wrap(i) for i in node_ids))
        require(bool(ids), "cannot build an empty ring")
        self._nodes = {i: ChordNode(i, self.bits, self._arcs) for i in ids}
        self._sorted_ids = array("q", ids)
        self._ring = list(self._nodes.values())
        self._node_ids = None
        self._arcs.clear()  # the new nodes hold nothing yet
        self.invalidate_routing_caches()
        for node in self._nodes.values():
            self._refresh_routing_state(node)
        self._stale = set()

    def build_full(self) -> None:
        """Construct a ring occupying every identifier (the paper's 2048)."""
        self.build(range(self.space.size))

    # ------------------------------------------------------------------
    # Oracle helpers (membership index)
    # ------------------------------------------------------------------
    def successor_of(self, key: int) -> ChordNode:
        """The live node owning ``key`` (first node at or after it): one
        bisect of the membership index, read from its node column."""
        require(bool(self._sorted_ids), "ring is empty")
        idx = bisect.bisect_left(self._sorted_ids, self.space.wrap(key))
        return self._ring[idx if idx < len(self._ring) else 0]

    def predecessor_of(self, key: int) -> ChordNode:
        """The last live node strictly before ``key`` on the ring."""
        require(bool(self._sorted_ids), "ring is empty")
        return self._ring[bisect.bisect_left(self._sorted_ids, self.space.wrap(key)) - 1]

    def _successors_from(self, key: int, count: int) -> list[ChordNode]:
        """Up to ``count`` distinct live nodes clockwise from ``key``."""
        ring = self._ring
        n = len(ring)
        idx = bisect.bisect_left(self._sorted_ids, self.space.wrap(key))
        return [ring[(idx + offset) % n] for offset in range(min(count, n))]

    #: The native placement's holders are the key's successor list.
    _native_holders = _successors_from

    def _refresh_far(self, node: ChordNode) -> None:
        """Point ``node``'s fingers at their true targets (``fix_fingers``):
        :meth:`successor_of` of each ``id + 2**i``, bisected inline."""
        nid = node.node_id
        ids, ring = self._sorted_ids, self._ring
        n, size = len(ids), self.space.size
        fingers = []
        for i in range(self.bits):
            idx = bisect.bisect_left(ids, (nid + (1 << i)) % size)
            fingers.append(ring[idx if idx < n else 0])
        node.fingers = fingers
        self._cpf_cache.pop(nid, None)

    def _refresh_near(self, node: ChordNode) -> None:
        """Point ``node``'s successor list and predecessor at their true
        targets (the ``stabilize``/``notify`` exchange)."""
        nid = node.node_id
        node.successor_list = [
            n for n in self._successors_from(nid + 1, self.successor_list_len)
            if n.node_id != nid
        ] or [node]
        pred = self.predecessor_of(nid)
        node.predecessor = pred if pred.node_id != nid else None

    # ------------------------------------------------------------------
    # Linearized-key view (identity on a ring, modulo wrapping)
    # ------------------------------------------------------------------
    @property
    def id_space_size(self) -> int:
        """Size of the identifier space, ``2**bits``."""
        return self.space.size

    def key_id(self, key: int) -> int:
        """The storage key of ``key``: the key itself, wrapped."""
        return self.space.wrap(key)

    #: Node identifiers and routed keys (with their LOOKUP spans) live in
    #: the same wrapped space as storage keys.
    _normalize_id = _route_key = key_id

    def key_of(self, key_id: int) -> int:
        """Inverse of :meth:`key_id` (identity)."""
        return key_id

    def owner_of(self, key_id: int) -> ChordNode:
        """The live node owning storage key ``key_id``."""
        return self.successor_of(key_id)

    def uid_of(self, node: ChordNode) -> int:
        """``node``'s identifier in the network's integer space."""
        return node.node_id

    # ------------------------------------------------------------------
    # Routed lookup
    # ------------------------------------------------------------------
    def _lookup_plain(self, start: ChordNode, key: int) -> LookupResult:
        """The fault-free greedy route (``key`` already wrapped).

        Greedy closest-preceding-finger routing; stale (dead) fingers are
        skipped, and the successor list is the fallback, so lookups remain
        correct between stabilization rounds under graceful churn.

        The hottest loop in the simulator, so a hop is integer work on
        the ids: the ``(pred, cur]`` stop test (:meth:`_owns`), the
        first-live-successor pick (:attr:`ChordNode.successor`) and the
        finger step are inline and read ``uid`` / ``predecessor`` /
        ``successor_list`` live; only the fingers come from a memo, the
        node's :meth:`_finger_row`, where the highest finger inside
        ``(cur, key)`` is one bisect.
        """
        size = self.space.size
        rows = self._cpf_cache
        cur = start
        nid = cur.uid
        hops = 0
        path = [nid]
        max_hops = 8 * self.bits + self.num_nodes  # termination guard
        while hops < max_hops:
            pred = cur.predecessor
            if pred is None or not pred.alive:
                # Degenerate/repairing state: fall back to the oracle check.
                if self.successor_of(key) is cur:
                    break
            else:
                pid = pred.uid
                dist_cur = (nid - pid) % size
                if dist_cur == 0 or 0 < (key - pid) % size <= dist_cur:
                    break
            for succ in cur.successor_list:
                if succ.alive:
                    break
            else:
                break
            if succ is cur:
                break
            span = (key - nid) % size
            dist_succ = (succ.uid - nid) % size
            if dist_succ == 0 or 0 < span <= dist_succ:
                # Key lies between us and our successor: successor owns it.
                cur = succ
            else:
                row = rows.get(nid)
                if row is None:
                    row = self._finger_row(cur)
                dists, fingers = row
                # The open interval (cur, key); when cur == key it is the
                # whole ring minus the point.
                at = bisect.bisect_left(dists, span or size)
                cur = fingers[at - 1] if at else succ
            nid = cur.uid
            hops += 1
            path.append(nid)
        self.network.count_hop(hops)
        return LookupResult(owner=cur, hops=hops, path=tuple(path))

    def _finger_row(self, node: ChordNode) -> FingerRow:
        """``node``'s live fingers — dead entries, self-references and
        duplicates dropped — with their clockwise distances from it,
        memoised in ``_cpf_cache`` until a refresh rewrites the fingers
        or a departure can have killed one (:meth:`_drop_departed_rows`).

        A finger table holds ``bits`` entries but only ``O(log n)``
        distinct targets, and a memoised row's fingers stay alive until
        it is evicted.  The row memoises finger state only: the stop test
        and the successor pick of :meth:`_lookup_plain` stay live reads.

        The next hop is the *first* finger, scanning the table from its
        top, that lies inside ``(node, key)``.  Every table a
        :meth:`_refresh_far` derives has distances that grow with the
        level, and dropping entries keeps them growing, so that is also
        the *furthest* such finger and the step is one bisect.  A table
        written out of distance order has no such shortcut and raises
        ``ValueError`` here.
        """
        nid = node.uid
        size = self.space.size
        seen = {nid}
        fingers: list[ChordNode] = []
        for finger in reversed(node.fingers):
            if finger is not None and finger.alive and finger.uid not in seen:
                seen.add(finger.uid)
                fingers.append(finger)
        fingers.reverse()
        dists = [(finger.uid - nid) % size for finger in fingers]
        require(
            all(near < far for near, far in zip(dists, dists[1:])),
            "finger distances must ascend with the table level",
        )
        row = array("q", dists), tuple(fingers)
        if self.routing_cache:
            self._cpf_cache[nid] = row
        return row

    def edge_kind(self, src: ChordNode, dst: ChordNode) -> str:
        """Which routing-table entry of ``src`` reaches ``dst``.

        Classification only (tracing annotations); priority mirrors the
        route's preference order: immediate successor, successor list,
        finger table, predecessor.
        """
        if dst is src.successor:
            return "successor"
        for entry in src.successor_list:
            if entry is dst:
                return "successor-list"
        for finger in src.fingers:
            if finger is dst:
                return "finger"
        if src.predecessor is dst:
            return "predecessor"
        return "unknown"

    def structural_hop_bound(self) -> int:
        """Worst-case hops of one fault-free lookup on the stabilized
        ring: closest-preceding-finger routing at least halves the
        clockwise distance per hop, so ``bits`` hops reach the key's
        predecessor and one more lands on the owner."""
        return self.bits + 1

    def _fault_hop_budget(self) -> int:
        """The fault path's give-up point: the plain loop's termination
        guard."""
        return 8 * self.bits + self.num_nodes

    def _owns(self, node: ChordNode, key: int) -> bool:
        pred = node.predecessor
        if pred is None or not pred.alive:
            # Degenerate/repairing state: fall back to the oracle check.
            return self.successor_of(key) is node
        # Inlined in_interval(key, pred, node] (per-hop stop test).
        size = self.space.size
        dist_node = (node.node_id - pred.node_id) % size
        dist_key = (key - pred.node_id) % size
        return dist_node == 0 or 0 < dist_key <= dist_node

    def _fault_step(
        self, cur: ChordNode, key: int, policy: LookupPolicy
    ) -> list[tuple[int, ChordNode]] | None:
        """One fault-path hop from ``cur``, judged from local state alone.

        ``None`` when ``cur`` believes it owns ``key``: the ``(pred, cur]``
        test on the predecessor pointer even when it is stale (dead), as a
        real node between stabilization rounds would; with no predecessor,
        only when it believes it is alone.  Otherwise the next-hop
        preference list: first the fault-free greedy choice, then the
        policy-gated failover alternatives — further successor-list
        entries when the successor owns ``key``, else the lower live
        fingers inside ``(cur, key)`` (the :meth:`_finger_row` cut at one
        bisect, highest first), then the successor.
        """
        size = self.space.size
        nid = cur.uid
        for succ in cur.successor_list:
            if succ.alive:
                break
        else:
            succ = None
        pred = cur.predecessor
        if pred is None:
            if succ is None or succ is cur:
                return None
        else:
            pid = pred.uid
            dist_cur = (nid - pid) % size
            if dist_cur == 0 or 0 < (key - pid) % size <= dist_cur:
                return None
        span = (key - nid) % size
        if succ is cur:
            succ = None
        elif succ is not None:
            dist_succ = (succ.uid - nid) % size
            if dist_succ == 0 or 0 < span <= dist_succ:
                return self._successor_candidates(cur, policy)
        row = self._cpf_cache.get(nid)
        if row is None:
            row = self._finger_row(cur)
        dists, fingers = row
        # The open interval (cur, key); the whole ring minus the point
        # when cur == key.
        at = bisect.bisect_left(dists, span or size)
        if not policy.failover:
            # Exactly the fault-free greedy choice, nothing else.
            nxt = fingers[at - 1] if at else succ
            return [] if nxt is None else [(nxt.uid, nxt)]
        inside = fingers[:at]
        out = [(finger.uid, finger) for finger in reversed(inside)]
        if succ is not None and succ not in inside:
            out.append((succ.uid, succ))
        return out

    def _successor_candidates(
        self, cur: ChordNode, policy: LookupPolicy
    ) -> list[tuple[int, ChordNode]]:
        """``cur``'s live successor-list entries, nearest first — only the
        nearest without ``policy.failover``."""
        entries: list[tuple[int, ChordNode]] = []
        seen = {cur.node_id}
        for entry in cur.successor_list:
            if entry.alive and entry.node_id not in seen:
                seen.add(entry.node_id)
                entries.append((entry.node_id, entry))
        return entries if policy.failover else entries[:1]

    # ------------------------------------------------------------------
    # Successor walk (range-query primitive)
    # ------------------------------------------------------------------
    #: The public range-walk entry point: :meth:`Overlay.walk` (tracer
    #: dispatch + WALK span) around :meth:`_walk_impl`.
    walk_arc = Overlay.walk

    def _walk_attrs(self, from_key: int, until_key: int) -> dict[str, int]:
        return {
            "from_key": self.space.wrap(from_key),
            "until_key": self.space.wrap(until_key),
        }

    def _walk_impl(
        self, start: ChordNode, from_key: int, until_key: int
    ) -> WalkResult:
        """All live nodes owning keys on the clockwise arc
        ``[from_key, until_key]``, starting at ``start = successor(from_key)``.

        Used by Mercury and MAAN range queries: the query root forwards to
        its successor repeatedly while keys of the queried range remain
        ahead.  Every returned node is a *visited node* in the paper's
        sense; the caller accounts them.

        The stop test is span-based (how far along the arc the current
        node's sector reaches) rather than ownership-based, so arcs that
        wrap most of the ring — Theorem 4.10's worst case — are walked in
        full instead of terminating at the first node, whose sector can
        contain ``until_key`` *behind* the arc start.

        Returns a :class:`WalkResult` (a ``list`` of nodes): walks cut
        short by a dead successor chain, by the ring-corruption safety
        valve, or — under an active fault injector — by unreachable
        successors are marked ``truncated`` with a ``reason`` instead of
        silently returning a short visit list.

        Fault-free with the routing caches on, nothing is stepped: the
        same visit list is cut from the membership index
        (:meth:`_walk_slice`) and comes back ``contiguous``.  The pointer
        loop is the reference (``routing_cache=False``), and the only path
        under an injector or where ``successors_track_membership`` is off.
        """
        fault_mode = self.faults_active
        size = self.space.size
        span = (until_key - from_key) % size
        if (
            self.routing_cache
            and self.successors_track_membership
            and not fault_mode
            and self._nodes.get(start.node_id) is start
        ):
            return self._walk_slice(start, from_key % size, span)
        if fault_mode:
            policy = self.lookup_policy
            send = self._walk_sender()
        result = WalkResult([start])
        cur = start
        num_nodes = self.num_nodes
        # cur covers keys up to cur.node_id; continue while that falls
        # short of the arc end (inlined clockwise_distance — one check
        # per visited node on the range-query hot path).
        while (cur.node_id - from_key) % size < span:
            if fault_mode:
                # One lossy step: to the nearest reachable successor.
                nxt, retries, skipped = send(
                    cur.node_id, self._successor_candidates(cur, policy)
                )
                result.retries += retries
                if nxt is None:
                    self._truncate_walk(result, "unreachable successor chain")
                    result.timed_out = True
                    break
                if skipped:
                    # Failed over past a live node without checking its
                    # directory — the visit list has a hole in the arc.
                    self._truncate_walk(
                        result, "failed over past unreachable successor"
                    )
            else:
                nxt = cur.successor
                if nxt is None:
                    self._truncate_walk(result, "dead successor chain")
                    break
            if nxt is start:
                break
            cur = nxt
            result.append(cur)
            if len(result) > num_nodes:  # safety: ring corrupted
                self._truncate_walk(result, "ring corruption safety valve")
                warnings.warn(
                    "walk_arc visited more nodes than the ring holds; "
                    "successor links are corrupted",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
        return result

    def _walk_slice(self, start: ChordNode, from_key: int, span: int) -> WalkResult:
        """The fault-free walk from live member ``start`` over the ``span``
        keys from ``from_key``, cut from the membership index: the members
        from ``start`` through the first one at or past the arc's end —
        or, if none lies between the arc's end and ``from_key``, the whole
        ring — which is where the pointer loop stops."""
        ids = self._sorted_ids
        size = self.space.size
        first = last = bisect.bisect_left(ids, start.node_id)
        if (start.node_id - from_key) % size < span:
            last = bisect.bisect_left(ids, (from_key + span) % size)
            if last == len(ids):
                last = 0  # wraps past the end
            if (ids[last] - from_key) % size < span:
                last = first - 1 if first else len(ids) - 1
        ring = self._ring
        arc = ring[first:last + 1] if first <= last else ring[first:] + ring[:last + 1]
        return WalkResult(arc, contiguous=True)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def join(self, node_id: int) -> ChordNode:
        """A new node joins: every bucket of its successor's whose replica
        set it enters moves onto the new set (:meth:`_place_after`).

        Models Chord's join: the newcomer builds correct routing state, its
        neighbours learn about it immediately (predecessor/successor
        pointers and successor lists), and the other nodes it made stale
        (:meth:`_mark_stale`) are refreshed lazily by :meth:`stabilize_all`.
        """
        node_id = self._normalize_id(node_id)
        require(node_id not in self._nodes, f"node {node_id} already present")
        had_members = bool(self._sorted_ids)
        if had_members:
            # The joiner splits the arc of its successor-to-be.
            keys, before = self._replica_sets([self.successor_of(node_id)])
        node = ChordNode(node_id, self.bits, self._arcs)
        self._nodes[node_id] = node
        self._membership_add(node_id)
        self._refresh_routing_state(node)
        self.network.count_maintenance(self.bits)  # building its state

        if had_members:
            if self._place_after(keys, before):
                self.network.count_maintenance(1)  # one transfer
            self._repair_neighbourhood(node)
        return node

    def _membership_add(self, node_id: int) -> None:
        at = bisect.bisect_left(self._sorted_ids, node_id)
        self._sorted_ids.insert(at, node_id)
        self._ring.insert(at, self._nodes[node_id])
        self._node_ids = None
        self._mark_stale(node_id)

    def _membership_remove(self, node_id: int) -> None:
        at = bisect.bisect_left(self._sorted_ids, node_id)
        del self._sorted_ids[at]
        del self._ring[at]
        self._node_ids = None
        self._mark_stale(node_id)
        self._drop_departed_rows(node_id)

    def _drop_departed_rows(self, node_id: int) -> None:
        """Forget the finger rows that can name departed ``node_id``: its
        own and those of the stale set (every row without one).

        A row reads just its node's ``fingers`` and their liveness, so a
        join changes none, and a departure kills one node, which only the
        fingers of stale nodes can name: every other node's fingers are a
        fresh derivation from the membership without it.
        """
        rows = self._cpf_cache
        if self._stale is None:
            rows.clear()
            return
        rows.pop(node_id, None)
        for uid in self._stale:
            rows.pop(uid, None)

    def _mark_stale(self, node_id: int) -> None:
        """Add to the stale set every node whose routing state the join or
        departure of ``node_id`` (already applied to the index) can have
        invalidated.

        The event moves ownership of the arc ``(pred, node_id]`` and of
        nothing else, so finger ``i`` changes exactly at the members of
        ``(pred - 2**i, node_id - 2**i]`` — one slice of the index per
        level — and successor lists and predecessors change only within
        ``successor_list_len + 1`` positions of the event.  A ring too
        small to keep those two sides apart, and the full-sweep reference
        ``routing_cache=False``, mark everything.
        """
        stale = self._stale
        if stale is None:
            return
        ids = self._sorted_ids
        n = len(ids)
        reach = self.successor_list_len + 1
        if not self.routing_cache or n <= 2 * reach:
            self._stale = None
            return
        size = self.space.size
        at = bisect.bisect_left(ids, node_id)
        pred = ids[at - 1]
        for level in range(self.bits):
            step = 1 << level
            after, upto = (pred - step) % size, (node_id - step) % size
            lo, hi = bisect.bisect_right(ids, after), bisect.bisect_right(ids, upto)
            if after < upto:
                stale.update(ids[lo:hi])
            else:  # the arc wraps past zero
                stale.update(ids[lo:])
                stale.update(ids[:hi])
        for offset in range(-reach, reach + 1):
            stale.add(ids[(at + offset) % n])

    def _repair_neighbourhood(self, node: ChordNode) -> None:
        """Refresh routing state of nodes adjacent to a membership change."""
        around_id = node.node_id
        for neighbour in self._successors_from(around_id, self.successor_list_len + 1):
            self._refresh_routing_state(neighbour)
            self.network.count_maintenance(1)
        pred = self.predecessor_of(around_id)
        self._refresh_routing_state(pred)
        self.network.count_maintenance(1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError unless the membership index is sorted and
        successor/predecessor links form the unique ring over live nodes —
        used by tests and after churn storms.
        """
        ids = self._sorted_ids
        n = len(ids)
        assert list(ids) == sorted(ids), f"node index not sorted: {list(ids)}"
        assert [node.node_id for node in self._ring] == list(ids), "node column out of step"
        for idx, nid in enumerate(ids):
            node = self._nodes[nid]
            expected_succ = self._nodes[ids[(idx + 1) % n]]
            succ = node.successor
            if n == 1:
                continue
            assert succ is expected_succ, (
                f"node {nid}: successor {succ and succ.node_id} != {expected_succ.node_id}"
            )
            expected_pred = self._nodes[ids[(idx - 1) % n]]
            assert node.predecessor is expected_pred, (
                f"node {nid}: predecessor mismatch"
            )
