"""Shared overlay-node abstractions.

Every DHT node — Chord or Cycloid — stores opaque *items* under
``(namespace, key_id)`` pairs, in one dict keyed by the pair.  Namespaces
let several logical indexes share one physical overlay (Mercury's
per-attribute hubs, MAAN's separate attribute and value maps) while keeping
per-node *directory size* accounting — the quantity plotted throughout
Figure 3 — exact.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Iterable
from math import inf
from operator import attrgetter, itemgetter
from typing import Any, NamedTuple

__all__ = [
    "ArcDirectory",
    "LookupResult",
    "OverlayNode",
    "WalkResult",
    "trace_fault_step",
]


class LookupResult(NamedTuple):
    """Outcome of a routed DHT lookup.

    An immutable record built once per lookup — a named tuple, so
    building it is one tuple allocation rather than a setattr per field.

    Attributes
    ----------
    owner:
        The node responsible for the looked-up key — or, when the lookup
        failed (``complete=False``), the last node the route reached.
    hops:
        Logical hops (overlay messages) traversed from the requester to the
        owner — the paper's Figure 4 metric.
    path:
        Identifiers of every node on the route, requester first.
    complete:
        ``False`` when the route could not be finished under the active
        fault plan — the owner field then names the stall point, not a
        responsible node, and its answer must not be trusted.
    retries:
        Retransmission rounds spent along the route.
    timed_out:
        Whether the route died waiting on unreachable next hops (as
        opposed to exhausting its hop budget).
    """

    owner: "OverlayNode"
    hops: int
    path: tuple[Any, ...]
    complete: bool = True
    retries: int = 0
    timed_out: bool = False


class WalkResult(list):
    """Nodes visited by a range walk, plus truncation diagnostics.

    A ``list`` subclass so every existing consumer (iteration, ``len``,
    indexing, equality with plain lists) keeps working; walks cut short by
    dead successor chains or the ring-corruption safety valve set
    ``truncated`` with a ``reason`` instead of silently returning fewer
    nodes.  ``contiguous`` is set only by a walk that was cut from the
    membership index itself, which is never truncated: its nodes are
    exactly the live members from the first to the last one, clockwise,
    so a reader may address them as one arc of ids
    (:meth:`repro.overlay.base.Overlay.arc_items`).
    """

    def __init__(self, nodes: Any = (), *, contiguous: bool = False) -> None:
        super().__init__(nodes)
        #: Set by the walk as it goes (:meth:`Overlay._truncate_walk`).
        self.truncated = False
        self.reason = ""
        self.retries = 0
        self.timed_out = False
        self.contiguous = contiguous


#: A view's sort key (stable, so equal keys keep their bucket order).
_VIEW_ORDER = attrgetter("attribute", "value")


class ArcDirectory(dict):
    """One overlay's index of *which node holds what*, for arc reads.

    ``namespace -> {attribute -> (holder ids, items)}``: for every
    attribute of an indexed namespace, each stored copy (replicas
    included) as a pair of parallel sequences — ``array('q')`` ids, a list
    of items — sorted by the integer ring id of the node holding it.  The
    items a contiguous run of ring members holds are then two bisects and
    a slice (:meth:`arc`) instead of one directory probe per member.

    Pure derived state, like the nodes' ``_views``, but *maintained*
    rather than flushed: every namespace is indexed by one pass over the
    members on the directory's first arc read (:meth:`index`), and from
    then on the node write paths that flush ``_views`` post every copy
    they add or drop (:meth:`add` / :meth:`discard`), a namespace first
    stored after the pass included.  Entries are keyed by holder id, not
    ring position, so a membership change by itself touches nothing —
    only the stores and removals of the handover it causes do.  An empty
    directory is an unindexed one: it costs those write paths one truth
    test, and the next arc read indexes again.
    """

    __slots__ = ("uid_of",)

    def __init__(self, uid_of: Callable[[Any], int]) -> None:
        super().__init__()
        #: The owning overlay's node -> integer ring id mapping.
        self.uid_of = uid_of

    def _table(self, tables: dict, attribute: str) -> tuple:
        table = tables.get(attribute)
        if table is None:
            table = tables[attribute] = (array("q"), [])
        return table

    def index(self, nodes: Iterable["OverlayNode"]) -> None:
        """Start indexing every namespace from what ``nodes`` hold now."""
        uid_of = self.uid_of
        holders = sorted(
            ((uid_of(node), node) for node in nodes if node._store), key=itemgetter(0)
        )
        for uid, node in holders:
            for (namespace, _), bucket in node._store.items():
                tables = self.get(namespace)
                if tables is None:
                    tables = self[namespace] = {}
                for item in bucket:
                    ids, items = self._table(tables, item.attribute)
                    ids.append(uid)
                    items.append(item)

    def add(self, node: "OverlayNode", namespace: str, item: Any) -> None:
        """``node`` stored one more copy of ``item`` in ``namespace``."""
        tables = self.get(namespace)
        if tables is None:
            tables = self[namespace] = {}
        uid = self.uid_of(node)
        ids, items = self._table(tables, item.attribute)
        at = bisect_right(ids, uid)
        ids.insert(at, uid)
        items.insert(at, item)

    def discard(self, node: "OverlayNode", namespace: str, dropped: Iterable[Any]) -> None:
        """``node`` dropped one copy of each of ``dropped`` from ``namespace``."""
        tables = self[namespace]
        uid = self.uid_of(node)
        for item in dropped:
            ids, items = tables[item.attribute]
            first = bisect_left(ids, uid)
            at = items.index(item, first, bisect_right(ids, uid, first))
            del ids[at], items[at]

    def arc(self, namespace: str, attribute: str, first_id: int, last_id: int) -> list[Any]:
        """The ``attribute`` items of ``namespace`` held by nodes with ids
        on the clockwise arc ``[first_id, last_id]`` (the whole ring when
        ``last_id`` is ``first_id``'s predecessor)."""
        tables = self.get(namespace)
        table = None if tables is None else tables.get(attribute)
        if table is None:
            return []
        ids, items = table
        low = bisect_left(ids, first_id)
        high = bisect_right(ids, last_id)
        if first_id <= last_id:
            return items[low:high]
        return items[low:] + items[:high]


class OverlayNode:
    """A DHT node with namespaced key→items storage.

    Subclasses add their overlay-specific routing state (finger tables for
    Chord, the seven-entry routing table for Cycloid).
    """

    __slots__ = ("uid", "alive", "_store", "_views", "_arcs")

    def __init__(self, uid: Any, arcs: ArcDirectory | None = None) -> None:
        #: Overlay-specific identifier (int for Chord, (k, a) for Cycloid).
        self.uid = uid
        #: False once the node has left; dead nodes are skipped by routing.
        self.alive = True
        #: ``(namespace, key_id) -> bucket``: flat, as a node holds about
        #: one key per namespace and a dict per namespace costs more.  A
        #: bucket of one item — most of them — is a 1-tuple (48 bytes, a
        #: one-item list takes 72); the second item makes it a list.
        self._store: dict[tuple[str, int], list[Any] | tuple[Any]] = {}
        #: Ordered read views, ``namespace -> {key_id (None: the whole
        #: namespace) -> (items, attributes, values)}``: the bucket's items
        #: stably sorted by ``(attribute, value)`` with the two sort keys
        #: as parallel lists, so an attribute/range read is four bisects
        #: and a slice (``attributes`` is ``None`` when the bucket holds a
        #: single attribute: two bisects).  Pure derived state (the same
        #: idiom as the overlays' routing rows): built on the first
        #: filtered read, dropped by every write to the namespace, never
        #: observable.
        self._views: dict[str, dict[int | None, tuple[list, list | None, list]]] = {}
        #: The overlay's shared :class:`ArcDirectory` (``None`` for a node
        #: outside any overlay); every write below that flushes ``_views``
        #: also posts its change there.
        self._arcs = arcs

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def store(self, namespace: str, key_id: int, item: Any) -> None:
        """Store ``item`` under ``key_id`` within ``namespace``."""
        bucket_key = (namespace, key_id)
        bucket = self._store.get(bucket_key)
        if bucket is None:
            self._store[bucket_key] = (item,)
        elif type(bucket) is tuple:
            self._store[bucket_key] = [*bucket, item]
        else:
            bucket.append(item)
        if self._views:
            self._views.pop(namespace, None)
        if self._arcs:
            self._arcs.add(self, namespace, item)

    def items_at(
        self,
        namespace: str,
        key_id: int,
        attribute: str | None = None,
        low: float = -inf,
        high: float = inf,
    ) -> list[Any]:
        """Items stored under exactly ``(namespace, key_id)``, in bucket
        order — or, given ``attribute``, only that attribute's items with
        ``low <= value <= high``, in value order, read from the bucket's
        ordered view in time proportional to the answer."""
        if attribute is not None:
            return self._view_slice(namespace, key_id, attribute, low, high)
        return list(self._store.get((namespace, key_id), ()))

    def items_in(
        self,
        namespace: str,
        attribute: str | None = None,
        low: float = -inf,
        high: float = inf,
    ) -> list[Any]:
        """All items in ``namespace`` regardless of key — or, given
        ``attribute``, the matching ones only (see :meth:`items_at`)."""
        if attribute is not None:
            return self._view_slice(namespace, None, attribute, low, high)
        return [
            item
            for (held_in, _), bucket in self._store.items()
            if held_in == namespace
            for item in bucket
        ]

    def _view_slice(
        self, namespace: str, key_id: int | None, attribute: str, low: float, high: float
    ) -> list[Any]:
        """The ``attribute`` items with ``low <= value <= high`` of one
        bucket (``key_id=None``: of the whole namespace), via its view."""
        try:
            items, attributes, values = self._views[namespace][key_id]
        except KeyError:
            items, attributes, values = self._build_view(namespace, key_id)
        if attributes is None:
            if not items or items[0].attribute != attribute:
                return []
            first, last = 0, len(items)
        else:
            first = bisect_left(attributes, attribute)
            last = bisect_right(attributes, attribute, first)
        return items[
            bisect_left(values, low, first, last):bisect_right(values, high, first, last)
        ]

    def _build_view(
        self, namespace: str, key_id: int | None
    ) -> tuple[list, list | None, list]:
        """Derive (and keep until the next write to ``namespace``) the
        ordered view of one bucket, or of the whole namespace."""
        if key_id is None:
            bucket = self.items_in(namespace)
        else:
            bucket = self._store.get((namespace, key_id), ())
        items = sorted(bucket, key=_VIEW_ORDER)
        single = not items or items[0].attribute == items[-1].attribute
        view = (
            items,
            None if single else [item.attribute for item in items],
            [item.value for item in items],
        )
        self._views.setdefault(namespace, {})[key_id] = view
        return view

    def stored_entries(self) -> list[tuple[str, int, Any]]:
        """Every stored ``(namespace, key_id, item)`` triple (for re-homing)."""
        return [
            (namespace, key_id, item)
            for (namespace, key_id), bucket in self._store.items()
            for item in bucket
        ]

    def buckets(self) -> list[tuple[tuple[str, int], list[Any] | tuple[Any]]]:
        """Every ``((namespace, key_id), bucket)`` pair, in store order —
        a snapshot, so buckets may be removed while it is walked; the
        buckets themselves are the node's own (read, do not edit)."""
        return list(self._store.items())

    def bucket_counts(self) -> dict[tuple[str, int], Counter]:
        """Per ``(namespace, key_id)`` bucket, each stored item's copy count
        (what handover, repair and the placement checks reason over)."""
        return {bucket_key: Counter(bucket) for bucket_key, bucket in self._store.items()}

    def remove_items(self, namespace: str, key_id: int) -> list[Any]:
        """Remove and return all items under ``(namespace, key_id)``."""
        removed = self._store.pop((namespace, key_id), None)
        if removed is None:
            return []
        if type(removed) is tuple:
            removed = list(removed)
        self._views.pop(namespace, None)
        if self._arcs:
            self._arcs.discard(self, namespace, removed)
        return removed

    def remove_item(self, namespace: str, key_id: int, item: Any) -> bool:
        """Remove one copy of ``item``; True if a copy was present."""
        bucket_key = (namespace, key_id)
        bucket = self._store.get(bucket_key)
        if bucket is None or item not in bucket:
            return False
        if type(bucket) is tuple:  # a bucket of one: now empty
            del self._store[bucket_key]
        else:
            bucket.remove(item)
            if not bucket:
                del self._store[bucket_key]
        self._views.pop(namespace, None)
        if self._arcs:
            self._arcs.discard(self, namespace, (item,))
        return True

    def clear_storage(self) -> None:
        """Drop every stored item (used after transfer on departure)."""
        if self._arcs:
            for (namespace, _), bucket in self._store.items():
                self._arcs.discard(self, namespace, bucket)
        self._store.clear()
        self._views.clear()

    def directory_size(self, namespace: str | None = None) -> int:
        """Number of stored resource-information pieces.

        With ``namespace`` given, counts only that namespace; otherwise the
        node's full directory.  This is Figure 3's per-node *directory size*.
        """
        if namespace is not None:
            return sum(len(b) for (ns, _), b in self._store.items() if ns == namespace)
        return sum(map(len, self._store.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"<{type(self).__name__} {self.uid} {state} dir={self.directory_size()}>"


def trace_fault_step(
    tracer: Any,
    src: Any,
    dst: Any,
    choice: str,
    used: int,
    skipped: int,
    drops: list,
    hedges: list | None = None,
) -> None:
    """Emit one fault-path routing step into ``tracer`` (called by
    :meth:`repro.overlay.base.Overlay._lookup_faulty`).

    ``dst=None`` means the step failed entirely — the drops/retries attach
    to the enclosing lookup span together with a "timeout" marker.
    Otherwise a hop span ``src -> dst`` is created and the step's drop,
    retry-round and failover annotations attach to it.  One "retry" event
    is emitted per retransmission round, so the retry-event count of a
    span tree always equals the ``LookupResult.retries`` accounting.
    ``drops`` holds the ``(dst_id, attempt)`` pairs observed by the route's
    sender (:meth:`repro.sim.network.SimulatedNetwork.sender`) and is
    cleared for the next step.
    ``hedges`` likewise holds ``(dst_id, won)`` pairs from hedged backup
    requests — each becomes a "hedge" event and marks the hop span with
    ``hedge``/``hedge_won`` attributes.
    """
    if dst is None:
        for dropped_id, attempt in drops:
            tracer.event("drop", target=dropped_id, attempt=attempt)
        for _ in range(used):
            tracer.event("retry")
        if hedges:
            for hedged_id, won in hedges:
                tracer.event("hedge", target=hedged_id, won=won)
        tracer.event("timeout", stuck_at=src)
    else:
        hop = tracer.hop(src, dst, choice)
        for dropped_id, attempt in drops:
            tracer.event("drop", span=hop, target=dropped_id, attempt=attempt)
        for _ in range(used):
            tracer.event("retry", span=hop)
        if skipped:
            tracer.event("failover", span=hop, skipped=skipped)
        if hedges:
            hop.attrs["hedge"] = True
            hop.attrs["hedge_won"] = any(won for _, won in hedges)
            for hedged_id, won in hedges:
                tracer.event("hedge", span=hop, target=hedged_id, won=won)
    drops.clear()
    if hedges:
        hedges.clear()
