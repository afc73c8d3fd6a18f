"""Single-hop DHT ring (D1HT-style full-membership routing).

Monnerat & Amorim's D1HT ("An effective single-hop distributed hash table")
shows that a DHT can answer lookups in **one hop** if every node keeps the
full membership table, at the price of disseminating every join/leave to
every node.  :class:`SingleHopRing` reproduces that routing tier on top of
the existing :class:`~repro.overlay.chord.ChordRing` machinery so the four
discovery systems run on it unchanged:

* **Ground truth** stays in Chord's sorted membership index
  (``array('q')``); what is modelled per node is *staleness* — the set of
  membership events a node has not yet learned (:attr:`_pending`).  This
  keeps memory at O(n + outstanding events) instead of the O(n²) of
  materialising every node's table.
* **Dissemination rides the existing maintenance machinery**: each
  :meth:`stabilize_step` (the unit of the scheduler's stabilize budget)
  delivers a node's outstanding event notifications — one maintenance
  message per event, EDRA's quiescent cost — and an unbudgeted
  :meth:`stabilize_all` flushes everything.  Nodes adjacent to a churn
  event learn about it immediately through the inherited neighbourhood
  repair, exactly like Chord.
* **Misroute-and-correct fallback**: a lookup jumps straight to the
  *believed* owner under the requester's (possibly stale) view.  A probe
  to a departed node times out, counts as a retry and teaches the
  requester the departure; landing on a non-owner (a join it missed)
  costs one corrective hop via the neighbour links.  Lookups therefore
  never fail silently under staleness — they pay extra hops/retries,
  which is precisely the axis the tradeoff experiment measures.

With a fully disseminated table every fault-free lookup takes exactly one
hop (zero when the requester owns the key) — the "1 hop means 1 hop"
Hypothesis property pins this, hop by hop, through the trace oracles.
"""

from __future__ import annotations

import bisect

from repro.overlay.chord import ChordNode, ChordRing
from repro.overlay.node import LookupResult
from repro.sim.faults import LookupPolicy

__all__ = ["SingleHopRing"]


class SingleHopRing(ChordRing):
    """A Chord-compatible ring that routes via a full membership table.

    Examples
    --------
    >>> ring = SingleHopRing(bits=4)
    >>> ring.build([1, 5, 9, 13])
    >>> ring.lookup(ring.node(1), 6).hops
    1
    """

    #: Membership events reach a node only as fast as the dissemination
    #: budget allows, so a range walk here follows each node's own
    #: successor pointer, never the ground-truth index.
    successors_track_membership = False

    def __init__(self, bits: int, **kwargs) -> None:
        #: node_id -> {subject_id: True for an unlearned join, False for an
        #: unlearned leave/fail}.  Empty dicts mean the node's membership
        #: view matches ground truth.
        self._pending: dict[int, dict[int, bool]] = {}
        super().__init__(bits, **kwargs)

    # ------------------------------------------------------------------
    # Membership / staleness bookkeeping
    # ------------------------------------------------------------------
    def build(self, node_ids) -> None:
        self._pending = {}
        super().build(node_ids)
        self._pending = {nid: {} for nid in self._nodes}

    def _refresh_routing_state(self, node: ChordNode) -> None:
        # Re-deriving a node's routing state means it has caught up with
        # every membership event — its pending set empties.  This makes
        # the inherited neighbourhood repair flush staleness for free.
        super()._refresh_routing_state(node)
        pending = self._pending.get(node.node_id)
        if pending:
            pending.clear()

    def _record_event(self, subject: int, is_join: bool) -> None:
        """Queue one membership event for every node that must learn it.

        A join and a later leave of the same subject cancel (and vice
        versa): a node that learned neither ends up believing exactly what
        is true about that subject.
        """
        for nid, deltas in self._pending.items():
            if nid == subject:
                continue
            prev = deltas.get(subject)
            if prev is None:
                deltas[subject] = is_join
            elif prev != is_join:
                del deltas[subject]

    def join(self, node_id: int) -> ChordNode:
        node = super().join(node_id)
        # The joiner downloads the full membership table — the O(n) entry
        # cost that buys O(1) lookups (D1HT Section 3).
        if self.num_nodes > 1:
            self.network.count_maintenance(self.num_nodes - 1)
        return node

    # The membership hooks run for every *accepted* join / leave / fail,
    # before the neighbourhood repair lets the subject's neighbours learn
    # immediately.
    def _membership_add(self, node_id: int) -> None:
        super()._membership_add(node_id)
        self._record_event(node_id, True)
        self._pending[node_id] = {}

    def _membership_remove(self, node_id: int) -> None:
        super()._membership_remove(node_id)
        self._pending.pop(node_id, None)
        self._record_event(node_id, False)

    # ------------------------------------------------------------------
    # Maintenance: dissemination through the budget machinery
    # ------------------------------------------------------------------
    def stabilize_step(self, node: ChordNode) -> None:
        """One maintenance quantum: the successor exchange plus delivery of
        every membership event ``node`` had not yet learned (one
        maintenance message per event)."""
        if not node.alive:
            return
        deltas = self._pending.get(node.node_id)
        extra = len(deltas) if deltas else 0
        super().stabilize_step(node)
        if extra:
            self.network.count_maintenance(extra)
            deltas.clear()

    def stabilize_all(self) -> None:
        extra = self.pending_events()
        if extra:
            self.network.count_maintenance(extra)
            # The sweep re-derives only the stale nodes; every node's
            # outstanding events are delivered all the same.
            for deltas in self._pending.values():
                deltas.clear()
        super().stabilize_all()

    # ------------------------------------------------------------------
    # Single-hop routing
    # ------------------------------------------------------------------
    def _believed_owner_id(self, node_id: int, key: int) -> int:
        """The owner of ``key`` under ``node_id``'s membership view.

        The view is ground truth corrected backwards by the node's
        unlearned events: joins it missed are invisible, departures it
        missed still look alive.
        """
        deltas = self._pending.get(node_id)
        if not deltas:
            return self.successor_of(key).node_id
        size = self.space.size
        ids = self._sorted_ids
        idx = bisect.bisect_left(ids, key)
        n = len(ids)
        best = None
        best_dist = size + 1
        for off in range(n):
            cand = ids[(idx + off) % n]
            if deltas.get(cand) is True:
                continue  # a join this node has not learned about
            best = cand
            best_dist = (cand - key) % size
            break
        for subject, is_join in deltas.items():
            if is_join:
                continue
            dist = (subject - key) % size
            if dist < best_dist:
                best, best_dist = subject, dist
        return best if best is not None else node_id

    def _lookup_plain(self, start: ChordNode, key: int) -> LookupResult:
        """Jump to the believed owner; correct misroutes via neighbours.

        Probes to departed nodes the requester still believes in are
        *retries* (a timeout observed, the departure learned), not hops —
        the path only ever contains live nodes, which keeps the post-hoc
        hop tracing and the ``hops == len(path) - 1`` law intact.
        """
        cur = start
        hops = 0
        retries = 0
        path = [cur.node_id]
        max_hops = 8 * self.bits + self.num_nodes  # termination guard
        while hops < max_hops:
            if self._owns(cur, key):
                break
            deltas = self._pending.get(cur.node_id)
            target = self._believed_owner_id(cur.node_id, key)
            while target not in self._nodes:
                # Probe timed out: the believed owner is gone.  Learn the
                # departure opportunistically and try the next candidate.
                retries += 1
                self.network.count_retry()
                if deltas:
                    deltas.pop(target, None)
                target = self._believed_owner_id(cur.node_id, key)
            if target == cur.node_id:
                # Degenerate staleness: fall back to a successor step.
                nxt = cur.successor
                if nxt is None or nxt is cur:
                    break
            else:
                nxt = self._nodes[target]
            cur = nxt
            hops += 1
            path.append(cur.node_id)
        self.network.count_hop(hops)
        return LookupResult(owner=cur, hops=hops, path=tuple(path), retries=retries)

    def edge_kind(self, src: ChordNode, dst: ChordNode) -> str:
        """Single-hop attribution: any non-neighbour hop rides the
        membership table."""
        kind = super().edge_kind(src, dst)
        if kind in ("finger", "unknown"):
            return "membership"
        return kind

    def _fault_step(
        self, cur: ChordNode, key: int, policy: LookupPolicy
    ) -> list[tuple[int, ChordNode]] | None:
        """Fault-path step: Chord's, with the believed owner (when live)
        first in the preference list."""
        out = super()._fault_step(cur, key, policy)
        if out is None:
            return None
        target = self._believed_owner_id(cur.node_id, key)
        node = self._nodes.get(target)
        if node is not None and node is not cur and node.alive:
            out = [(target, node)] + [(i, n) for i, n in out if i != target]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Total outstanding (node, event) notifications — 0 means every
        node's view matches ground truth (fully disseminated)."""
        return sum(len(d) for d in self._pending.values())
