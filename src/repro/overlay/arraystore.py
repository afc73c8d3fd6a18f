"""Flat array-backed ring state — the struct-of-arrays simulation core.

The paper stops every figure at n = 2048 because an object-per-node,
dict-routed simulation thrashes long before the 10^5–10^6-peer regime the
single-hop and ReCord literature argues about.  :class:`CompactChordRing`
breaks that ceiling: it is the full struct-of-arrays representation used
by the ``repro scale`` experiment — node state is *only* flat integer
arrays (sorted id vector, implicit successor/predecessor by position
adjacency, a finger table indexed by a stable per-node slot).  Routing
replays :meth:`ChordRing._lookup_plain`: over the same membership a
lookup ends at the object ring's owner after every event, and takes the
object ring's hops once that ring has run ``stabilize_all`` (the compact
ring is always stabilized).  Churn accounting counts the object ring's
maintenance messages, less a join's one bucket-transfer message, since
no directory is held here.  The membership state machine's compact
mirror checks all three, so large-n figures are directly comparable with
the paper-scale ones.

View contract / cache invalidation
----------------------------------
Positions move under churn; slots do not.  The sorted ``ids`` and the
parallel position -> slot ``order`` are read-only views of the live
window ``[h, h + n)`` of two buffers with the finger table's capacity,
and they are valid until the next membership event.  Every shift is a
move to lower addresses (a forward memmove): ``join`` moves the prefix
``[0, p)`` one left into the front gap and writes position ``p``, and
``leave`` / ``fail`` move ``[p + 1, n)`` one left, then both views are
re-sliced.  ``build_fingers`` puts the window at the back of the buffers;
a join that finds the front gap used up first moves the window back
there once.  Hold a copy, not the view, across an event.  The
``(capacity, bits)`` finger table of slots and the per-slot ``[id,
successor id, successor slot]`` records are edited in place too; they
are the one place memoryviews are stored.  The slot -> position map is a
third per-slot buffer, kept with the tables.  ``build_fingers`` and
growth past the spare rows replace all five buffers (and take new
views); apart from that growth, no event allocates an array of ``n``
entries.  An event writes what its arc ``(pred(x), x]`` moved — the
joiner's row and record, its predecessor's record, at most ``bits``
slices of finger entries — and marks the position map stale; the next
lookup or ``stabilize_all`` rewrites it in one O(n) scatter.  What an
event may never change: the table read in positions (equal to a
from-scratch ``build_fingers`` element for element, dtype included), any
maintenance message count, any hop.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.overlay.chord import ChordRing
from repro.utils.validation import require

__all__ = ["CompactChordRing"]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array — ``np.unique``'s result by
    sort + adjacent-inequality mask (numpy's hash-based unique is ~50x
    slower on the 10^5–10^6 int64 vectors this module builds)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class CompactChordRing:
    """A stabilized Chord ring as flat integer arrays — no node objects.

    Membership is the sorted id vector; successor and predecessor are
    position adjacency (``i ± 1 mod n``) — the ring is always in its
    stabilized state, which is the regime every paper figure measures.
    Every node holds a stable slot; ``fingers[s, j]`` is the slot of
    ``successor(id + 2**j)`` for the node in slot ``s``.

    Routing replays :meth:`ChordRing._lookup_plain` exactly — same stop
    test, same greedy closest-preceding-finger scan — so on a stabilized
    object ring over the same ids every lookup takes the same hops to the
    same owner, and measured hop counts at any ``n`` extend the paper's
    Figure 4 curves rather than approximating them.  Churn
    (:meth:`join` / :meth:`leave` / :meth:`fail`) edits the id vector,
    patches the slot tables where the event's arc moved them and counts
    the maintenance messages the object ring counts (less a join's bucket
    transfer).  A patch never changes a finger (the table read in
    positions equals a from-scratch :meth:`build_fingers`, dtype
    included), a message count or a hop.

    Examples
    --------
    >>> ring = CompactChordRing(bits=4, ids=[1, 5, 9, 13])
    >>> int(ring.ids[ring.owner_index(6)])
    9
    >>> owner, hops = ring.lookup(ring.index_of(1), 6)
    >>> int(ring.ids[owner])
    9
    """

    #: The object ring's successor-list length (the repair-cost formula).
    successor_list_len = ChordRing.successor_list_len

    def __init__(self, bits: int, ids: Iterable[int]) -> None:
        require(1 <= bits <= 62, f"compact core needs bits in [1, 62], got {bits}")
        self.bits = bits
        self.size = 1 << bits
        self._steps = np.left_shift(1, np.arange(bits, dtype=np.int64))  # 2**j per level
        if not isinstance(ids, np.ndarray):
            ids = list(ids)
        unique = _sorted_unique(np.asarray(ids, dtype=np.int64) % self.size)
        require(unique.size > 0, "cannot build an empty ring")
        unique.flags.writeable = False
        #: Sorted ascending, read-only; from :meth:`build_fingers` on, a
        #: view of ``_id_buf`` valid until the next membership event.
        self.ids: np.ndarray = unique
        #: Built lazily by :meth:`build_fingers`: position -> slot,
        #: parallel to ``ids`` (a read-only view of ``_order_buf``, like
        #: ``ids``) and the window's first buffer index; the ``(capacity,
        #: bits)`` finger table of slots and the per-slot ``[id, successor
        #: id, successor slot]`` records (both edited in place); the free
        #: slots; the slot -> position buffer and the map read from it
        #: (``None`` after churn until the next lookup or ``stabilize_all``).
        self.order: np.ndarray | None = None
        self._head = 0
        self._id_buf: np.ndarray | None = None
        self._order_buf: np.ndarray | None = None
        self.fingers: np.ndarray | None = None
        self._rec: np.ndarray | None = None
        self._free: list[int] = []
        self._pos_buf: np.ndarray | None = None
        self._pos: np.ndarray | None = None
        #: Maintenance-message accounting (same formulas as the object
        #: ring's ``count_maintenance`` call sites).
        self.maintenance_messages = 0

    @classmethod
    def sampled(cls, num_nodes: int, *, seed: int = 0) -> "CompactChordRing":
        """A ring of ``num_nodes`` ids sampled uniformly without replacement.

        The id space has ``ceil(log2(n)) + 4`` bits — 16x sparse, enough
        headroom that collisions stay rare while the finger table stays
        ``O(n log n)`` ints.
        """
        require(num_nodes >= 1, "num_nodes must be >= 1")
        bits = max(1, int(num_nodes - 1).bit_length()) + 4
        rng = np.random.default_rng(seed)
        size = 1 << bits
        # Sampling without replacement from 2**bits directly would
        # materialise the whole space; sample with replacement and top up
        # the (rare, sparse-space) collisions instead.
        ids = _sorted_unique(rng.integers(size, size=num_nodes, dtype=np.int64))
        while ids.size < num_nodes:
            extra = rng.integers(size, size=num_nodes - ids.size, dtype=np.int64)
            ids = _sorted_unique(np.concatenate([ids, extra]))
        return cls(bits, ids)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Current population."""
        return int(self.ids.size)

    def _position(self, node_id: int) -> tuple[int, bool]:
        """Sorted position of ``node_id`` and whether a node holds it."""
        idx = int(np.searchsorted(self.ids, node_id))
        return idx, idx < self.ids.size and int(self.ids[idx]) == node_id

    def __contains__(self, node_id: int) -> bool:
        return self._position(node_id)[1]

    def index_of(self, node_id: int) -> int:
        """Index of the node with identifier ``node_id``."""
        idx, present = self._position(node_id)
        require(present, f"node {node_id} not present")
        return idx

    def owner_index(self, key: int) -> int:
        """Index of the node owning ``key`` (first id at or after it)."""
        idx = int(np.searchsorted(self.ids, key % self.size))
        return 0 if idx == self.ids.size else idx

    def owner_indices(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner_index` over a key batch."""
        idx = np.searchsorted(self.ids, np.asarray(keys, dtype=np.int64) % self.size)
        return idx % self.ids.size

    # ------------------------------------------------------------------
    # Slot tables
    # ------------------------------------------------------------------
    def _finger_dtype(self) -> type:
        # Every slot is below 2**bits (see ``_capacity``).
        return np.int32 if self.size <= (1 << 31) else np.int64

    def _capacity(self, rows: int) -> int:
        """Table rows for ``rows`` slots plus 1/64 spare, capped at one
        row per id so that no slot outgrows :meth:`_finger_dtype`."""
        return min(self.size, rows + rows // 64 + 1)

    def _views(self) -> None:
        # Over the two slot tables; replaced only by build_fingers and
        # _grow, which call this again.
        self._rec_view = memoryview(self._rec.reshape(-1))
        self._finger_view = memoryview(self.fingers)

    def _members(self, h: int, n: int) -> None:
        """Re-slice ``ids`` and ``order`` to the live window ``[h, h + n)``
        of their buffers, read-only."""
        self._head = h
        self.ids, self.order = self._id_buf[h : h + n], self._order_buf[h : h + n]
        self.ids.flags.writeable = self.order.flags.writeable = False

    def build_fingers(self) -> None:
        """(Re)build every table from scratch: slot ``i`` is position ``i``.

        Column ``j`` of the finger table is one vectorised successor
        resolution of every node's ``id + 2**j`` target — the array
        equivalent of a global ``stabilize_all`` + ``fix_fingers`` sweep.
        """
        ids = self.ids
        n = ids.size
        capacity = self._capacity(n)
        dtype = self._finger_dtype()
        fingers = np.empty((capacity, self.bits), dtype=dtype)
        for j in range(self.bits):
            fingers[:n, j] = np.searchsorted(ids, (ids + (1 << j)) % self.size) % n
        rec = np.empty((capacity, 3), dtype=np.int64)
        rec[:n, 0] = ids
        rec[:n, 1] = np.roll(ids, -1)
        rec[:n, 2] = np.arange(1, n + 1) % n
        self.fingers, self._rec = fingers, rec
        # The window starts at the back: the spare rows are the front gap.
        h = capacity - n
        self._id_buf = np.empty(capacity, dtype=np.int64)
        self._id_buf[h:] = ids
        self._order_buf = np.arange(-h, n, dtype=dtype)  # the gap is never read
        self._members(h, n)
        del ids  # free the replaced id vector before the map adds to the peak
        self._pos_buf = np.empty(capacity, dtype=dtype)
        self._free = list(range(capacity - 1, n - 1, -1))
        self._pos = None
        self._views()

    def _grow(self) -> None:
        """Add spare rows to the finger table, the records, the position
        map and the two membership buffers, behind the window (the
        joining caller re-slices ``ids`` and ``order``)."""
        old = len(self.fingers)
        extra = self._capacity(old) - old

        def grown(a: np.ndarray) -> np.ndarray:
            return np.concatenate((a, np.empty((extra, *a.shape[1:]), a.dtype)))

        self.fingers, self._rec = grown(self.fingers), grown(self._rec)
        self._id_buf, self._order_buf = grown(self._id_buf), grown(self._order_buf)
        self._pos_buf = grown(self._pos_buf)
        self._free = list(range(old + extra - 1, old - 1, -1))
        self._views()

    def _positions(self) -> np.ndarray:
        """The slot -> position map lookups leave through (rewritten in
        its buffer after each batch of churn; the tables first, if there
        are none)."""
        if self.fingers is None:
            self.build_fingers()
        pos = self._pos_buf
        pos[self.order] = np.arange(self.order.size, dtype=pos.dtype)
        self._pos = pos
        return pos

    def _adopt(self, p: int, node_id: int) -> None:
        """After a membership edit at position ``p``, the node at ``p``
        (mod n) owns the arc ``(ids[p - 1], node_id]``: relink its
        predecessor's record to it and point every finger whose target is
        in the arc at it.  At level ``j`` those fingers belong to the
        members with id in ``(ids[p - 1] - 2**j, node_id - 2**j]``, a slice
        of the sorted ids (two when it wraps past zero)."""
        ids, order, fingers = self.ids, self.order, self.fingers
        q = p % ids.size
        owner, pred, pred_id = order.item(q), order.item(p - 1), ids.item(p - 1)
        self._rec[pred, 1:] = ids.item(q), owner
        lows = (pred_id - self._steps) % self.size
        highs = (node_id - self._steps) % self.size
        starts = np.searchsorted(ids, lows, side="right").tolist()
        stops = np.searchsorted(ids, highs, side="right").tolist()
        for j, (a, b, wraps) in enumerate(zip(starts, stops, (lows > highs).tolist())):
            if wraps:
                fingers[order[a:], j] = owner
                fingers[order[:b], j] = owner
            elif a < b:
                fingers[order[a:b], j] = owner
        self._pos = None

    def state_bytes(self) -> int:
        """Bytes held by the flat ring state: the id and position -> slot
        buffers, the slot -> position map, the finger table and the slot
        records, spare rows included."""
        if self.fingers is None:
            self.build_fingers()
        arrays = (self._id_buf, self._order_buf, self._pos_buf, self.fingers, self._rec)
        return sum(int(a.nbytes) for a in arrays)

    # ------------------------------------------------------------------
    # Routing (mirrors ChordRing._lookup_plain; the level scan picks the
    # finger the object ring's finger-row bisect picks)
    # ------------------------------------------------------------------
    def lookup(self, start_index: int, key: int) -> tuple[int, int]:
        """Greedy closest-preceding-finger route; returns (owner_index, hops).

        Hop-for-hop identical to the object ring's fault-free lookup on
        the same membership once that ring has run ``stabilize_all``;
        between sweeps only the owners agree, as the object ring's
        fingers may be stale.  The stop test runs once, on
        the start node: after a successor step the successor owns the key,
        and a finger step lands strictly before the key, on a node that
        cannot own it.
        """
        pos = self._positions() if self._pos is None else self._pos
        ids, size = self.ids, self.size
        key %= size
        cur_id = ids.item(start_index)
        pred_id = ids.item(start_index - 1)  # index -1 wraps to the last node
        # Stop test: key in (pred, cur] — the stabilized _owns check.
        dist_cur = (cur_id - pred_id) % size
        if dist_cur == 0 or 0 < (key - pred_id) % size <= dist_cur:
            return start_index, 0
        # Buffer views: indexing one is a C-level read that returns a
        # Python int, where indexing the array builds a numpy scalar.
        rec, fingers = self._rec_view, self._finger_view
        cur = self.order.item(start_index)
        hops = 1
        while True:
            r = 3 * cur
            dist_key = (key - cur_id) % size  # > 0: cur does not own key
            if dist_key <= (rec[r + 1] - cur_id) % size:
                return pos.item(rec[r + 2]), hops
            # Closest preceding finger: highest finger in (cur, key).  A
            # level-j finger sits at clockwise distance >= 2**j, so levels
            # with 2**j >= dist_key cannot pass the test below.  Level 0
            # is the successor, which lies in (cur, key) here, so the
            # countdown stops by then.
            j = (dist_key - 1).bit_length() - 1
            f = fingers[cur, j]
            f_id = rec[3 * f]
            while not 0 < (f_id - cur_id) % size < dist_key:
                j -= 1
                f = fingers[cur, j]
                f_id = rec[3 * f]
            cur, cur_id = f, f_id
            hops += 1

    def measure_lookups(
        self, num_queries: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Hop counts of ``num_queries`` uniform (start, key) lookups."""
        n = self.ids.size
        starts = rng.integers(n, size=num_queries)
        keys = rng.integers(self.size, size=num_queries, dtype=np.int64)
        return np.array(
            [self.lookup(s, k)[1] for s, k in zip(starts.tolist(), keys.tolist())],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Churn (maintenance accounting mirrors the object ring)
    # ------------------------------------------------------------------
    def _neighbourhood_repair_cost(self) -> int:
        """Messages ``_repair_neighbourhood`` sends: one per refreshed
        successor-list neighbour plus one for the predecessor."""
        return min(self.successor_list_len + 1, self.num_nodes) + 1

    def join(self, node_id: int) -> None:
        """A node joins: it takes a free slot, its row and record are
        written, the arc it takes over is re-pointed; messages count.

        Cost model is the object ring's: ``bits`` messages to build the
        newcomer's state plus the neighbourhood repair sweep.
        """
        node_id %= self.size
        p, present = self._position(node_id)
        require(not present, f"node {node_id} already present")
        if self.fingers is None:
            self.build_fingers()
        if not self._free:
            self._grow()
        slot = self._free.pop()
        h, n = self._head, self.ids.size
        if h == 0:
            # The front gap is used up: move the window to the back (a
            # free slot means n < capacity, so that opens a gap).
            h = len(self._id_buf) - n
            self._id_buf[h:] = self._id_buf[:n]
            self._order_buf[h:] = self._order_buf[:n]
        h, n = h - 1, n + 1
        ids, order = self._id_buf[h : h + n], self._order_buf[h : h + n]
        ids[:p] = ids[1 : p + 1]
        order[:p] = order[1 : p + 1]
        ids[p], order[p] = node_id, slot
        self._members(h, n)
        targets = (node_id + self._steps) % self.size
        self.fingers[slot] = order[np.searchsorted(ids, targets) % n]
        self._rec[slot] = node_id, ids.item((p + 1) % n), order.item((p + 1) % n)
        self._adopt(p, node_id)
        self.maintenance_messages += self.bits + self._neighbourhood_repair_cost()

    def _depart(self, node_id: int) -> None:
        """Remove ``node_id`` (wrapped into the id space, as :meth:`join`
        wraps it); its successor takes over its arc."""
        require(self.num_nodes > 1, "cannot remove the last ring node")
        node_id %= self.size
        p = self.index_of(node_id)
        if self.fingers is None:
            self.build_fingers()
        self._free.append(self.order.item(p))
        h, n = self._head, self.ids.size - 1
        ids, order = self._id_buf[h : h + n + 1], self._order_buf[h : h + n + 1]
        ids[p:-1] = ids[p + 1 :]
        order[p:-1] = order[p + 1 :]
        self._members(h, n)
        self._adopt(p, node_id)

    def leave(self, node_id: int) -> None:
        """Graceful departure: two departure notifications + repair."""
        self._depart(node_id)
        self.maintenance_messages += 2 + self._neighbourhood_repair_cost()

    def fail(self, node_id: int) -> None:
        """Crash: neighbours detect and repair; no departure handoff."""
        self._depart(node_id)
        self.maintenance_messages += self._neighbourhood_repair_cost()

    def stabilize_all(self) -> None:
        """Full stabilization sweep, one message per node.  The tables are
        patched per event; what the sweep rebuilds is the slot -> position
        map that lookups leave through."""
        if self._pos is None:
            self._positions()
        self.maintenance_messages += self.num_nodes
