"""Flat array-backed ring state — the struct-of-arrays simulation core.

The paper stops every figure at n = 2048 because an object-per-node,
dict-routed simulation thrashes long before the 10^5–10^6-peer regime the
single-hop and ReCord literature argues about.  :class:`CompactChordRing`
breaks that ceiling: it is the full struct-of-arrays representation used
by the ``repro scale`` experiment — node state is *only* flat integer
arrays (sorted id vector, implicit successor/predecessor by index
adjacency, an ``(n, bits)`` finger table of node indices).  Routing
replays :meth:`ChordRing._lookup_plain` hop for hop (the equivalence is
pinned by tests), and churn accounting mirrors the object ring's
maintenance-message formulas, so large-n figures are directly comparable
with the paper-scale ones.

View contract / cache invalidation
----------------------------------
The id vector is the single source of truth for membership; the finger
table is a cache keyed on the membership it was derived from.
``CompactChordRing`` never mutates its id vector in place — ``join`` /
``leave`` / ``fail`` replace ``ring.ids`` with a new array — so "derived
from this membership" is an identity test: the finger table remembers
the ``ids`` array it is current for, and the next routed operation or
``stabilize_all`` *repairs* it from the diff of that array against
``ring.ids`` (:meth:`CompactChordRing.repair_fingers`), rebuilding only
when the diff is a sizeable share of the ring.  What a repair may never
change: any finger entry (the repaired table equals a from-scratch
``build_fingers`` element for element, dtype included), any maintenance
message count, any hop.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.overlay.chord import ChordRing
from repro.utils.validation import require

__all__ = ["CompactChordRing"]

#: Survivor rows re-indexed per step of a finger repair: bounds the
#: temporaries to a few MB whatever the ring size.
_REPAIR_BLOCK_ROWS = 1 << 16


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

    State is exactly two arrays: the sorted id vector and the ``(n, bits)``
    finger table of node indices (``fingers[i, j]`` = index of
    ``successor(ids[i] + 2**j)``).  Successor and predecessor are index
    adjacency (``i ± 1 mod n``) — the ring is always in its stabilized
    state, which is the regime every paper figure measures.

    Routing replays :meth:`ChordRing._lookup_plain` exactly — same stop
    test, same greedy closest-preceding-finger scan, same termination
    guard — so measured hop counts at any ``n`` extend the paper's Figure
    4 curves rather than approximating them.  Churn (:meth:`join` /
    :meth:`leave` / :meth:`fail`) replaces the id vector and counts the
    same maintenance messages the object ring counts; the finger table is
    then repaired from the membership diff (:meth:`repair_fingers`) by the
    next routed operation or :meth:`stabilize_all`, at a cost proportional
    to what changed.  A repair never changes a finger entry (the table
    equals a from-scratch :meth:`build_fingers`, dtype included), a
    message count or a hop.

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
        if not isinstance(ids, np.ndarray):
            ids = list(ids)
        unique = _sorted_unique(np.asarray(ids, dtype=np.int64) % self.size)
        require(unique.size > 0, "cannot build an empty ring")
        #: Sorted ascending.  Never mutated in place: churn replaces it,
        #: which is what lets derived state remember the array it is for.
        self.ids: np.ndarray = unique
        self.fingers: np.ndarray | None = None  # built lazily, (n, bits)
        #: The ``ids`` array ``fingers`` is current for — ``self.ids``
        #: itself exactly when the table needs no repair.
        self._fingers_ids: np.ndarray | None = None
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
    # Finger table
    # ------------------------------------------------------------------
    def _finger_dtype(self) -> type:
        return np.int32 if self.ids.size < (1 << 31) else np.int64

    def build_fingers(self) -> None:
        """(Re)build the full ``(n, bits)`` finger table, column-wise.

        Column ``j`` is one vectorised successor resolution of every
        node's ``id + 2**j`` target — the array equivalent of a global
        ``stabilize_all`` + ``fix_fingers`` sweep.
        """
        ids = self.ids
        n = ids.size
        fingers = np.empty((n, self.bits), dtype=self._finger_dtype())
        for j in range(self.bits):
            targets = (ids + (1 << j)) % self.size
            idx = np.searchsorted(ids, targets)
            fingers[:, j] = idx % n
        self.fingers = fingers
        self._fingers_ids = ids

    def repair_fingers(self) -> None:
        """Bring the finger table up to date with ``self.ids``.

        Diffs the id array the table was built for against the current
        one and rewrites only what the diff can have changed; the result
        equals a fresh :meth:`build_fingers` element for element.  Falls
        back to that rebuild when there is no table yet, when the index
        dtype would change, or when the diff is large enough
        (``changed * bits >= n``) that patching would not be cheaper.
        """
        old_ids, ids = self._fingers_ids, self.ids
        if old_ids is ids:
            return
        old = self.fingers
        n, bits, size = ids.size, self.bits, self.size
        dtype = self._finger_dtype()
        if old is None or old.dtype != dtype:
            self.build_fingers()
            return
        # (1) Old index -> new index of the successor of the old id: a
        # survivor's own new position, and exactly what a finger that
        # pointed at a departed node must now point at.
        remap = np.searchsorted(ids, old_ids)
        remap[remap == n] = 0
        survived = np.flatnonzero(ids[remap] == old_ids)
        is_joiner = np.ones(n, dtype=bool)
        is_joiner[remap[survived]] = False
        joined = np.flatnonzero(is_joiner)
        changed = (old_ids.size - survived.size) + joined.size
        if changed * bits >= n:
            self.build_fingers()
            return
        remap = remap.astype(dtype)
        fingers = np.empty((n, bits), dtype=dtype)
        # (2) Survivors keep their rows, re-indexed.  Block-wise, so the
        # peak stays at two finger tables plus one block of temporaries.
        for lo in range(0, survived.size, _REPAIR_BLOCK_ROWS):
            rows = survived[lo : lo + _REPAIR_BLOCK_ROWS]
            fingers[remap[rows]] = remap[old[rows]]
        joined_ids = ids[joined]
        steps = np.left_shift(1, np.arange(bits, dtype=np.int64))
        # (3) A joiner's own row is built from scratch.
        targets = (joined_ids[:, None] + steps) % size
        fingers[joined] = np.searchsorted(ids, targets) % n
        # (4) Joiner x with ring predecessor q takes over the targets
        # in (q, x]: at level j those belong to the members with id in
        # [q + 1 - 2**j, x - 2**j] mod size, a slice of the sorted ids
        # (two slices when the interval wraps past zero).
        pred_ids = ids[joined - 1]
        first = (pred_ids[:, None] + 1 - steps) % size
        last = first + ((joined_ids - pred_ids) % size - 1)[:, None]
        wraps = last >= size
        start = np.searchsorted(ids, first)
        stop = np.searchsorted(ids, last % size, side="right")
        for k, j in zip(*np.nonzero(wraps | (start < stop))):
            a, b, x = start[k, j], stop[k, j], joined[k]
            if wraps[k, j]:
                fingers[a:, j] = x
                fingers[:b, j] = x
            else:
                fingers[a:b, j] = x
        self.fingers = fingers
        self._fingers_ids = ids

    def state_bytes(self) -> int:
        """Bytes held by the flat ring state (id vector + finger table)."""
        self.repair_fingers()
        assert self.fingers is not None
        return int(self.ids.nbytes + self.fingers.nbytes)

    # ------------------------------------------------------------------
    # Routing (mirrors ChordRing._lookup_plain; the level scan picks the
    # finger the object ring's finger-row bisect picks)
    # ------------------------------------------------------------------
    def lookup(self, start_index: int, key: int) -> tuple[int, int]:
        """Greedy closest-preceding-finger route; returns (owner_index, hops).

        Hop-for-hop identical to the object ring's fault-free lookup on
        the same (stabilized) membership — the equivalence tests diff the
        two implementations query by query.
        """
        self.repair_fingers()
        # Buffer views, made per call and never stored: indexing one is a
        # C-level read that returns a Python int, where indexing the array
        # builds a numpy scalar.  A stored view would need invalidating when
        # churn replaces the arrays, and would pin the replaced ones.
        ids = memoryview(self.ids)
        fingers = memoryview(self.fingers)
        n = len(ids)
        size = self.size
        key %= size
        cur = start_index
        hops = 0
        max_hops = 8 * self.bits + n  # termination guard (as ChordRing)
        while hops < max_hops:
            cur_id = ids[cur]
            pred_id = ids[cur - 1]  # index -1 wraps to the last node
            # Stop test: key in (pred, cur] — the stabilized _owns check.
            dist_cur = (cur_id - pred_id) % size
            if dist_cur == 0 or 0 < (key - pred_id) % size <= dist_cur:
                break
            succ = cur + 1 if cur + 1 < n else 0
            dist_key = (key - cur_id) % size
            dist_succ = (ids[succ] - cur_id) % size
            if dist_succ == 0 or 0 < dist_key <= dist_succ:
                cur = succ
            else:
                # Closest preceding finger: highest finger in (cur, key).
                span = dist_key or size
                nxt = succ
                # A level-j finger sits at clockwise distance >= 2**j, so
                # levels with 2**j >= span cannot pass the test below.
                # span > dist_succ >= 1 here, so top >= 1 and the scan
                # always covers level 0.
                for j in range((span - 1).bit_length() - 1, -1, -1):
                    f = fingers[cur, j]
                    if f != cur and 0 < (ids[f] - cur_id) % size < span:
                        nxt = f
                        break
                cur = nxt
            hops += 1
        return cur, hops

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
        """A node joins: id vector grows, fingers await repair, messages count.

        Cost model is the object ring's: ``bits`` messages to build the
        newcomer's state plus the neighbourhood repair sweep.
        """
        node_id %= self.size
        idx, present = self._position(node_id)
        require(not present, f"node {node_id} already present")
        self.ids = np.insert(self.ids, idx, node_id)
        self.maintenance_messages += self.bits + self._neighbourhood_repair_cost()

    def leave(self, node_id: int) -> None:
        """Graceful departure: two departure notifications + repair."""
        require(self.num_nodes > 1, "cannot remove the last ring node")
        self.ids = np.delete(self.ids, self.index_of(node_id))
        self.maintenance_messages += 2 + self._neighbourhood_repair_cost()

    def fail(self, node_id: int) -> None:
        """Crash: neighbours detect and repair; no departure handoff."""
        require(self.num_nodes > 1, "cannot remove the last ring node")
        self.ids = np.delete(self.ids, self.index_of(node_id))
        self.maintenance_messages += self._neighbourhood_repair_cost()

    def stabilize_all(self) -> None:
        """Full stabilization sweep: fingers current, one message per node."""
        self.repair_fingers()
        self.maintenance_messages += self.num_nodes
