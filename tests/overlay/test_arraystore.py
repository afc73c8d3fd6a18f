"""Tests for the flat array-backed ring core (``repro.overlay.arraystore``).

Equivalence with the object :class:`ChordRing` — owners after every
membership event, ``(owner, hops)`` after a sweep, the maintenance messages
of every event — is the membership machine's compact mirror
(``tests/properties/test_membership_machine.py``).  Here: the hop loop
against the numpy-scalar reference loop and sha256 route digests of a
50k-node ring, the buffers the loop reads and the churn leaves in place,
validation, and :func:`position_fingers`, which the mirror's check reads.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.overlay.arraystore import CompactChordRing


def position_fingers(ring: CompactChordRing) -> np.ndarray:
    """The ring's ``(n, bits)`` finger table in positions: row ``i`` is the
    node at ``ids[i]``, entry ``j`` the position of its level-``j`` finger
    — what :meth:`CompactChordRing.build_fingers` computes from scratch.
    The slot -> position map is derived here from ``order``, not read from
    the ring, so a stale map of the ring's own shows up in its lookups
    instead of being refreshed by the check."""
    if ring.fingers is None:
        ring.build_fingers()
    pos = np.empty(len(ring.fingers), dtype=ring.order.dtype)
    pos[ring.order] = np.arange(ring.num_nodes)
    return pos[ring.fingers[ring.order]]


def _full_scan_lookup(ring: CompactChordRing, start_index: int, key: int) -> tuple[int, int]:
    """The numpy-scalar reference loop that stays the oracle: every id is
    an ``int(ids[i])``, the stop test runs at every hop and every finger
    step scans the whole reversed row of the position table through
    ``.tolist()``.  ``CompactChordRing.lookup`` walks slot records through
    buffer views instead, tests ownership once and starts its scan below
    the levels whose ``2**j`` reaches the remaining distance; owners and
    hop counts must be this loop's."""
    ids, fingers, n, size = ring.ids, position_fingers(ring), ring.ids.size, ring.size
    key %= size
    cur = start_index
    hops = 0
    while hops < 8 * ring.bits + n:
        cur_id = int(ids[cur])
        pred_id = int(ids[cur - 1])
        dist_cur = (cur_id - pred_id) % size
        if dist_cur == 0 or 0 < (key - pred_id) % size <= dist_cur:
            break
        succ = (cur + 1) % n
        dist_key = (key - cur_id) % size
        dist_succ = (int(ids[succ]) - cur_id) % size
        if dist_succ == 0 or 0 < dist_key <= dist_succ:
            cur = succ
        else:
            span = dist_key or size
            nxt = succ
            for f in fingers[cur, ::-1].tolist():
                if f != cur and 0 < (int(ids[f]) - cur_id) % size < span:
                    nxt = f
                    break
            cur = nxt
        hops += 1
    return cur, hops


def _small_rings():
    """Every shape of ring with ``bits`` <= 6 worth an exhaustive sweep:
    full, one node, two nodes (adjacent and opposite) and scattered."""
    rng = np.random.default_rng(17)
    for bits in range(1, 7):
        size = 1 << bits
        shapes = {
            "full": list(range(size)),
            "one": [size - 1],
            "adjacent-pair": [0, 1],
            "opposite-pair": [0, size // 2],
        }
        for count in sorted({max(1, size // 4), max(1, size // 2), size - 1}):
            shapes[f"scattered-{count}"] = rng.choice(size, size=count, replace=False).tolist()
        for label, ids in shapes.items():
            yield pytest.param(bits, ids, id=f"bits{bits}-{label}")


class TestLookupScanStart:
    """``lookup`` skips finger levels that cannot lie inside ``(cur, key)``;
    owners and hop counts must be those of the full scan."""

    @pytest.mark.parametrize("bits,ids", list(_small_rings()))
    def test_every_start_and_key_on_small_rings(self, bits, ids):
        ring = CompactChordRing(bits=bits, ids=ids)
        for start in range(ring.num_nodes):
            for key in range(ring.size):
                assert ring.lookup(start, key) == _full_scan_lookup(ring, start, key), (
                    start, key,
                )

    def test_drawn_cases_on_a_wide_ring(self):
        members = np.random.default_rng(4).choice(1 << 20, size=3000, replace=False)
        ring = CompactChordRing(bits=20, ids=members)
        rng = np.random.default_rng(5)
        starts = rng.integers(ring.num_nodes, size=2000).tolist()
        keys = rng.integers(ring.size, size=2000).tolist()
        # Keys at and just around members: exact hits and off-by-one spans.
        members = ring.ids[rng.integers(ring.num_nodes, size=300)]
        for offset in (-1, 0, 1):
            starts += rng.integers(ring.num_nodes, size=300).tolist()
            keys += (members + offset).tolist()
        for start, key in zip(starts, keys):
            owner, hops = ring.lookup(start, key)
            assert (owner, hops) == _full_scan_lookup(ring, start, key), (start, key)
            assert owner == ring.owner_index(key)

    def test_key_is_the_start_node_itself(self):
        # key == ids[cur]: the stop test answers before any scan (the
        # ``span = size`` / ``top = bits`` arm is the full-circle fallback).
        ring = CompactChordRing(bits=5, ids=[2, 9, 20, 27])
        for start in range(4):
            assert ring.lookup(start, int(ring.ids[start])) == (start, 0)

    @pytest.mark.parametrize("level", range(1, 6))
    def test_remaining_distance_at_a_power_of_two(self, level):
        # On the full ring the level-j finger sits at distance exactly
        # 2**j.  Distance 2**j: top = j, that finger fails ``dist < span``
        # and must not be taken (levels j-1 .. 0, then the successor step).
        # Distance 2**j + 1: top = j + 1, it is the closest preceding
        # finger and must be (then the successor step).
        ring = CompactChordRing(bits=6, ids=range(64))
        for start in (0, 37, 63):
            for distance in ((1 << level), (1 << level) + 1):
                key = (start + distance) % 64
                got = ring.lookup(start, key)
                assert got == _full_scan_lookup(ring, start, key)
                assert got == (key, bin(distance - 1).count("1") + 1)

    def test_one_and_two_node_rings(self):
        one = CompactChordRing(bits=6, ids=[40])
        for key in range(64):
            assert one.lookup(0, key) == (0, 0)
        two = CompactChordRing(bits=6, ids=[10, 50])
        for start in (0, 1):
            for key in range(64):
                owner = 0 if key <= 10 or key > 50 else 1
                assert two.lookup(start, key) == (owner, int(owner != start))


#: sha256 over the ``(owner, hops)`` pairs of 20,000 seeded lookups on
#: ``CompactChordRing.sampled(50_000, seed=3)``, recorded while ``lookup``
#: still read numpy scalars.  The oracles above stop at 3,000 nodes; these
#: pin a ring with 20 finger levels, stabilized and after lazy repairs.  A
#: digest that moves means some lookup now ends elsewhere or takes another
#: number of hops.  To re-record after an *intended* routing change, run
#: this file as a script and paste the printed table.  ``batched`` replays
#: the ``compact-scale`` benchmark's traffic (rounds of membership edits,
#: one ``stabilize_all``, then lookups) and digests the maintenance
#: message count with the pairs; it was recorded on the diff-based finger
#: repair that the slot-indexed table replaced.
_LARGE_RING_DIGESTS = {
    "stabilized": "9908e29f242f208ac638e23521fd16cf91fb8cab28addc76950b83243ab83967",
    "churned": "884644c545ee65fbd00bad6d8e22effe9cddd59baf26cc5cb4dc2d0467e4973d",
    "batched": "3e4001df2dd865323af72802cef6789dde6a7965aa8b6a2db1600803900a37e0",
}


def _batched_digest() -> str:
    ring = CompactChordRing.sampled(50_000, seed=3)
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(6):
        for _ in range(10):
            joiner = int(rng.integers(ring.size))
            while joiner in ring:
                joiner = int(rng.integers(ring.size))
            ring.join(joiner)
            ring.leave(int(ring.ids[rng.integers(ring.num_nodes)]))
        ring.fail(int(ring.ids[rng.integers(ring.num_nodes)]))
        ring.stabilize_all()
        starts = rng.integers(ring.num_nodes, size=3_000).tolist()
        keys = rng.integers(ring.size, size=3_000).tolist()
        pairs += [ring.lookup(s, k) for s, k in zip(starts, keys)]
        assert [o for o, _ in pairs[-3_000:]] == ring.owner_indices(np.array(keys)).tolist()
    pairs.append((ring.maintenance_messages, ring.num_nodes))
    return hashlib.sha256(np.array(pairs, dtype=np.int64).tobytes()).hexdigest()


def _large_ring_digest(family: str) -> str:
    if family == "batched":
        return _batched_digest()
    ring = CompactChordRing.sampled(50_000, seed=3)
    rng = np.random.default_rng(8)
    if family == "stabilized":
        ring.stabilize_all()
    else:
        # 25 join/leave pairs, each followed by a lookup and none by
        # stabilize_all: every table routed on is a repair_fingers patch.
        for _ in range(25):
            joiner = int(rng.integers(ring.size))
            while joiner in ring:
                joiner = int(rng.integers(ring.size))
            ring.join(joiner)
            ring.leave(int(ring.ids[rng.integers(ring.num_nodes)]))
            ring.lookup(int(rng.integers(ring.num_nodes)), int(rng.integers(ring.size)))
    starts = rng.integers(ring.num_nodes, size=20_000).tolist()
    keys = rng.integers(ring.size, size=20_000).tolist()
    pairs = np.array([ring.lookup(s, k) for s, k in zip(starts, keys)], dtype=np.int64)
    assert pairs[:, 0].tolist() == ring.owner_indices(np.array(keys)).tolist()
    return hashlib.sha256(pairs.tobytes()).hexdigest()


class TestLargeRingDigests:
    @pytest.mark.parametrize("family", sorted(_LARGE_RING_DIGESTS))
    def test_pairs_match_the_digest_recorded_on_numpy_scalars(self, family):
        assert _large_ring_digest(family) == _LARGE_RING_DIGESTS[family]


class TestLookupBuffers:
    """``lookup`` indexes buffer views of ``ids`` and ``fingers``."""

    def test_int64_finger_table_routes_like_int32(self, monkeypatch):
        # The layout of rings with 2**31 nodes or more: an int64 table,
        # whose view format is 'l' or 'q' rather than 'i'.
        ids = np.random.default_rng(21).choice(256, size=40, replace=False)
        narrow = CompactChordRing(bits=8, ids=ids)
        wide = CompactChordRing(bits=8, ids=ids)
        monkeypatch.setattr(wide, "_finger_dtype", lambda: np.int64)
        for step in ("built", "churned"):
            if step == "churned":
                for ring in (narrow, wide):
                    ring.join(int(np.setdiff1d(np.arange(256), ring.ids)[7]))
                    ring.leave(int(ring.ids[11]))
            routes = {
                name: [ring.lookup(s, k) for s in range(ring.num_nodes) for k in range(256)]
                for name, ring in (("narrow", narrow), ("wide", wide))
            }
            assert narrow.fingers.dtype == np.int32
            assert wide.fingers.dtype == np.int64
            assert memoryview(wide.fingers).format in ("l", "q")
            assert routes["wide"] == routes["narrow"], step

    @pytest.mark.parametrize("repair", ["lookup", "stabilize_all"])
    def test_no_replaced_array_outlives_the_churn(self, repair):
        # Churn replaces no array: it shifts the id and position -> slot
        # buffers in place and re-slices ``ids`` / ``order`` as read-only
        # views of their live window, it patches the finger table and the
        # slot records, the only arrays views are stored over, and the
        # next lookup or sweep rewrites the slot -> position map in its
        # buffer.  So 20 join / leave pairs on 200k nodes allocate less
        # than one ``order`` copy.
        ring = CompactChordRing.sampled(200_000, seed=1)
        ring.lookup(0, 5)
        tables = ring.fingers, ring._rec, ring._pos
        buffers = ring._id_buf, ring._order_buf
        views = [v for v in vars(ring).values() if isinstance(v, memoryview)]
        assert len(views) == 2
        assert all(any(np.shares_memory(v.obj, t) for t in tables) for v in views)
        rng = np.random.default_rng(2)
        joiners = np.setdiff1d(rng.integers(ring.size, size=40), ring.ids)[:20].tolist()
        tracemalloc.start()
        try:
            for joiner in joiners:
                ring.join(joiner)
                ring.leave(int(ring.ids[rng.integers(ring.num_nodes)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ring.order.nbytes
        if repair == "lookup":
            assert ring.lookup(3, 77)[0] == ring.owner_index(77)
        else:
            ring.stabilize_all()
        assert ring.fingers is tables[0] and ring._rec is tables[1]
        assert ring._pos is tables[2] and ring._pos_buf is tables[2]
        for view, buffer in zip((ring.ids, ring.order), buffers):
            assert view.base is buffer and view.size == ring.num_nodes == 200_000
            assert not view.flags.writeable

    def test_a_window_move_allocates_no_copy(self):
        # Once joins have used up the front gap, the next join moves the
        # live window to the back of its buffers in place.
        ring = CompactChordRing.sampled(20_000, seed=1)
        ring.lookup(0, 5)
        rng = np.random.default_rng(3)
        joiners = iter(np.setdiff1d(rng.integers(ring.size, size=1_000), ring.ids).tolist())
        buffers = ring._id_buf, ring._order_buf
        while ring._head:
            ring.join(next(joiners))
            ring.leave(int(ring.ids[rng.integers(ring.num_nodes)]))
        tracemalloc.start()
        try:
            ring.join(next(joiners))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ring.order.nbytes
        assert ring._head == len(ring._id_buf) - ring.num_nodes
        assert ring.ids.base is buffers[0] and ring.order.base is buffers[1]
        assert ring.lookup(3, 77)[0] == ring.owner_index(77)

    def test_a_grown_table_frees_the_old_one(self):
        # Joins past the spare rows replace both slot tables, the
        # position map and both membership buffers; the stored views and
        # ``ids`` / ``order`` move with them.
        ring = CompactChordRing.sampled(200, seed=1)
        ring.lookup(0, 5)
        arrays = ring.fingers, ring._rec, ring._pos_buf, ring._id_buf, ring._order_buf
        old = [weakref.ref(a) for a in arrays]
        del arrays
        free = np.setdiff1d(np.arange(ring.size), ring.ids)[:10].tolist()
        for node_id in free:
            ring.join(node_id)
        capacity = len(ring.fingers)
        assert capacity > 200 + 200 // 64 + 1
        buffers = ring._rec, ring._pos_buf, ring._id_buf, ring._order_buf
        assert [len(b) for b in buffers] == [capacity] * 4
        assert ring.ids.base is ring._id_buf and ring.order.base is ring._order_buf
        assert ring.lookup(0, free[-1])[0] == ring.index_of(free[-1])
        assert ring._pos is ring._pos_buf
        gc.collect()
        assert all(ref() is None for ref in old)


class TestCompactChordRingValidation:
    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            CompactChordRing(bits=63, ids=[1])
        with pytest.raises(ValueError):
            CompactChordRing(bits=0, ids=[1])

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            CompactChordRing(bits=4, ids=[])

    def test_join_rejects_duplicate(self):
        ring = CompactChordRing(bits=4, ids=[1, 5])
        with pytest.raises(ValueError):
            ring.join(5)

    def test_cannot_remove_last_node(self):
        ring = CompactChordRing(bits=4, ids=[1])
        with pytest.raises(ValueError):
            ring.leave(1)

    def test_sampled_population_and_determinism(self):
        a = CompactChordRing.sampled(500, seed=3)
        b = CompactChordRing.sampled(500, seed=3)
        assert a.num_nodes == 500
        assert a.bits == b.bits
        assert a.ids.tolist() == b.ids.tolist()

    def test_sampled_ids_are_sorted_distinct_and_in_range(self):
        # 400 draws from 2**13 ids collide ~10 times: the top-up loop runs.
        ring = CompactChordRing.sampled(400, seed=3)
        ids = ring.ids
        assert ring.bits == 13
        assert ids.dtype == np.int64 and ids.size == 400
        assert bool(np.all(ids[1:] > ids[:-1]))
        assert 0 <= int(ids[0]) and int(ids[-1]) < 1 << 13

    def test_init_dedups_any_iterable(self):
        want = [1, 5, 9]
        for ids in ([9, 1, 5, 1, 25], np.array([9, 1, 5, 1, 25]), iter([9, 1, 5, 1, 25])):
            assert CompactChordRing(bits=4, ids=ids).ids.tolist() == want

    def test_contains(self):
        ring = CompactChordRing(bits=4, ids=[1, 5, 15])
        assert 5 in ring and 15 in ring
        assert 0 not in ring and 6 not in ring and 16 not in ring
        ring.join(6)
        ring.leave(5)
        assert 6 in ring and 5 not in ring

    def test_state_bytes_counts_ids_and_fingers(self):
        # 100 nodes in 102 slots (100 // 64 + 1 spare): the int64 id
        # buffer, int32 position -> slot buffer and slot -> position map,
        # an int32 finger table and int64 ``[id, successor id, successor
        # slot]`` records, every one with the spare rows.  Those are all
        # the arrays the ring holds that own their memory, apart from the
        # ``bits`` per-level steps.
        ring = CompactChordRing.sampled(100, seed=1)
        slots, row = 102, ring.bits * 4
        expected = slots * 8 + slots * 4 + slots * 4 + slots * row + slots * 3 * 8
        assert ring.state_bytes() == expected
        assert ring.fingers.shape == (slots, ring.bits)
        ring.lookup(0, 5)
        held = {
            id(a): a for a in vars(ring).values()
            if isinstance(a, np.ndarray) and a.base is None and a is not ring._steps
        }
        assert sum(a.nbytes for a in held.values()) == expected == ring.state_bytes()


if __name__ == "__main__":
    for family in _LARGE_RING_DIGESTS:
        print(f'    "{family}": "{_large_ring_digest(family)}",')
