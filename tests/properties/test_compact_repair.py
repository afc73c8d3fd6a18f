"""``CompactChordRing``'s per-event slot patch against a from-scratch build.

Every node of the compact core holds a stable slot: the finger table and
the ``[id, successor id, successor slot]`` records are indexed by slot and
fingers store slots.  A join writes the newcomer's row and record; a join
or departure relinks the predecessor's record and re-points, level by
level, the fingers whose targets the changed arc ``(pred(x), x]`` holds.
The property, over any interleaving of join / leave / fail with lookups
and ``stabilize_all``: after *every* event the table read in positions is
``array_equal``, dtype included, to ``build_fingers`` on a fresh ring over
the same ids; every record names its node's id and its ring successor;
the free slots and the live ones partition the table; every event counts
exactly the maintenance messages its formula says; and ``build_fingers``
is never called again once the ring is built.

Each patch step is load-bearing: ``PLANTS`` drops or bends one per row
(the joiner's row or record, the predecessor relink, the arc re-point or
its wrap branch, the slot reuse, the table growth, its stored views, its
membership buffers and its position map, the position-map reset, the
join's prefix shift of ``order`` into the front gap, the window move
once that gap is used up, and the departure's shift of ``ids``) and a
seeded drive of :class:`Driver` must fail.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay.arraystore import CompactChordRing
from tests.overlay.test_arraystore import position_fingers


class Driver:
    """A ring driven through events, checked after every one."""

    def __init__(self, bits: int, ids) -> None:
        self.ring = CompactChordRing(bits, ids)
        self.ring.build_fingers()
        #: ``build_fingers`` calls after construction: must stay 0.
        self.rebuilt = 0

    def _counted(self, action, expected: int) -> None:
        before = self.ring.maintenance_messages
        action()
        assert self.ring.maintenance_messages - before == expected

    def apply(self, op: str, arg: int) -> None:
        ring = self.ring
        n = ring.num_nodes
        repair = min(ring.successor_list_len + 1, n + (1 if op == "join" else -1)) + 1
        if op == "join":
            if arg % ring.size not in ring:
                self.repaired(lambda: self._counted(lambda: ring.join(arg), ring.bits + repair))
        elif op in ("leave", "fail"):
            if n > 1:
                victim = int(ring.ids[arg % n])
                self.repaired(
                    lambda: self._counted(
                        lambda: getattr(ring, op)(victim), (2 if op == "leave" else 0) + repair
                    )
                )
        elif op == "lookup":
            key = (arg * 2654435761) % ring.size
            self.repaired(lambda: self._counted(lambda: ring.lookup(arg % n, key), 0))
            assert ring.lookup(arg % n, key)[0] == ring.owner_index(key)
        else:
            self.repaired(lambda: self._counted(ring.stabilize_all, n))

    def repaired(self, action) -> None:
        """Run ``action``, spying on ``build_fingers``, then hold the
        slot tables against a fresh ring's position table."""
        ring = self.ring
        calls = []
        ring.build_fingers = lambda: (calls.append(1), type(ring).build_fingers(ring))
        try:
            action()
        finally:
            del ring.build_fingers
        self.rebuilt += len(calls)
        fresh = CompactChordRing(ring.bits, ring.ids)
        fresh.build_fingers()
        table = position_fingers(ring)
        assert table.dtype == fresh.fingers.dtype
        assert np.array_equal(table, fresh.fingers[: ring.num_nodes])
        order = ring.order
        assert np.array_equal(ring._rec[order], np.column_stack(
            (ring.ids, np.roll(ring.ids, -1), np.roll(order, -1))
        ))
        live = set(order.tolist())
        assert len(live) == order.size and not live & set(ring._free)
        assert sorted(live | set(ring._free)) == list(range(len(ring.fingers)))

    def run(self, ops) -> "Driver":
        for op, arg in ops:
            self.apply(op, arg)
        self.apply("stabilize", 0)
        assert self.rebuilt == 0
        return self


def _scattered(bits: int, count: int, seed: int = 0) -> list[int]:
    return sorted(random.Random(seed).sample(range(1 << bits), count))


op_st = st.tuples(
    st.sampled_from(("join", "join", "leave", "fail", "lookup", "stabilize")),
    st.integers(0, 1 << 13),
)


@given(
    bits=st.integers(1, 12),
    fill=st.floats(0.0, 1.0),
    seed=st.integers(0, 1 << 16),
    ops=st.lists(op_st, max_size=40),
)
def test_repair_matches_rebuild(bits, fill, seed, ops):
    count = max(1, min(1 << bits, 300, round(fill * (1 << bits))))
    Driver(bits, _scattered(bits, count, seed)).run(ops)


class TestNamedBatches:
    """The corners, on a ring of n = 60 in 2**8 ids."""

    BITS = 8

    def ids(self) -> list[int]:
        # Room for a joiner below the first and above the last id.
        return sorted(random.Random(3).sample(range(2, 254), 60))

    def repaired(self, ops, ids=None) -> Driver:
        return Driver(self.BITS, ids or self.ids()).run(ops)

    def test_joiner_becomes_index_zero(self):
        driver = self.repaired([("join", self.ids()[0] - 1)])
        assert driver.ring.index_of(self.ids()[0] - 1) == 0

    def test_joiner_becomes_last_index(self):
        driver = self.repaired([("join", self.ids()[-1] + 1)])
        assert driver.ring.index_of(self.ids()[-1] + 1) == 60

    def test_joiner_takes_over_the_wrapped_arc(self):
        # With no node at 0, the new first node owns the targets in
        # (last, first] across zero: the wrap branch of the patch at every
        # level whose shifted interval straddles zero.
        ids = [i for i in self.ids() if i >= 40]
        self.repaired([("join", 20)], ids)
        self.repaired([("join", 0)], ids)

    def test_two_adjacent_joiners_in_one_batch(self):
        ids = self.ids()
        gap = next(a for a, b in zip(ids, ids[1:]) if b - a >= 3)
        driver = self.repaired([("join", gap + 1), ("join", gap + 2)])
        index = driver.ring.index_of(gap + 1)
        assert int(driver.ring.ids[index + 1]) == gap + 2

    def test_last_index_departs(self):
        self.repaired([("leave", 59)])
        self.repaired([("fail", 59)])

    def test_first_index_departs(self):
        self.repaired([("fail", 0)])

    def test_join_then_leave_of_one_id(self):
        ids = self.ids()
        joiner = ids[10] + 1
        assert joiner not in ids
        # The joiner sits at index 11 when it leaves again.
        driver = self.repaired([("join", joiner), ("leave", 11)])
        assert driver.ring.ids.tolist() == ids

    def test_leave_then_rejoin_of_one_id(self):
        # The rejoining id takes the slot its departure freed.
        ids = self.ids()
        driver = Driver(self.BITS, ids)
        slot = driver.ring.order.item(10)
        driver.run([("leave", 10), ("join", ids[10])])
        assert driver.ring.ids.tolist() == ids
        assert driver.ring.order.item(10) == slot

    def test_departure_and_arrival_side_by_side(self):
        ids = self.ids()
        self.repaired([("fail", 10), ("join", ids[10] + 1), ("leave", 30)])

    def test_lazy_repair_before_a_lookup(self):
        # Lookups between events, with no stabilize_all: each leaves
        # through a slot -> position map rebuilt after the event.
        self.repaired(
            [("join", 1), ("lookup", 5), ("fail", 7), ("lookup", 9), ("leave", 0), ("lookup", 2)]
        )

    def test_one_to_two_to_one(self):
        driver = self.repaired(
            [("join", 5), ("stabilize", 0), ("lookup", 1), ("leave", 1), ("stabilize", 0),
             ("join", 200), ("fail", 0)], ids=[77],
        )
        assert driver.ring.ids.tolist() == [200]

    def test_joins_that_use_up_the_front_gap_move_the_window(self):
        # 60 nodes in 61 slots: the window starts one entry into its
        # buffers, so the first join uses up the front gap, and the join
        # after a departure (a free slot, no growth) moves the window to
        # the back before it shifts the prefix.
        ids = self.ids()
        gaps = [a + 1 for a, b in zip(ids, ids[1:]) if b - a >= 2]
        driver = Driver(self.BITS, ids)
        ring = driver.ring
        assert ring._head == 1
        driver.run([("join", gaps[2]), ("leave", 30)])
        assert ring._head == 0 and len(ring.fingers) == 61
        driver.run([("join", gaps[-3]), ("lookup", 4), ("join", gaps[-2])])
        assert len(ring.fingers) > 61
        assert ring.ids.base is ring._id_buf and ring.order.base is ring._order_buf

    def test_joins_past_the_spare_rows_grow_the_table(self):
        # 60 nodes in 60 + 0 + 1 slots: the second join finds no free
        # slot.  The lookups route on the grown table's stored views.
        driver = self.repaired(
            [(op, 7 * i + 1) for i in range(12) for op in ("join", "lookup")]
        )
        assert len(driver.ring.fingers) > 61


#: ``(id, method, edit)``: one patch step of :class:`CompactChordRing`
#: removed or bent (see the ``plant`` fixture).
PLANTS = [
    ("joiner-row", "join", ("self.fingers[slot] = order", "_ = order")),
    ("joiner-record", "join", ("self._rec[slot] = node_id,", "_ = node_id,")),
    ("predecessor-relink", "_adopt", ("self._rec[pred, 1:] = ids.item(q), owner", "pass")),
    ("arc-repoint", "_adopt", ("fingers[order[a:b], j] = owner", "pass")),
    ("wrap-branch", "_adopt", ("if wraps:", "if False:")),
    ("position-map-reset", "_adopt", ("self._pos = None", "pass")),
    ("slot-reuse", "_depart", ("self._free.append(self.order.item(p))", "pass")),
    ("table-growth", "join", ("self._grow()", "pass")),
    ("grown-views", "_grow", ("self._views()", "pass")),
    (
        "grown-buffers", "_grow",
        ("self._id_buf, self._order_buf = grown(self._id_buf), grown(self._order_buf)", "pass"),
    ),
    ("position-map-grown", "_grow", ("self._pos_buf = grown(self._pos_buf)", "pass")),
    ("join-order-shift", "join", ("order[:p] = order[1 : p + 1]", "pass")),
    ("window-move", "join", ("if h == 0:", "if False:")),
    ("departure-ids-shift", "_depart", ("ids[p:-1] = ids[p + 1 :]", "pass")),
]


DRIVE_OPS = ("join", "join", "leave", "fail", "lookup", "lookup", "stabilize")


def seeded_drive(seed: int = 5, events: int = 80) -> Driver:
    """A ring of 60 in 2**8 ids (one spare slot) through seeded joins,
    departures, lookups and sweeps."""
    rng = random.Random(seed)
    ops = [(rng.choice(DRIVE_OPS), rng.randrange(1 << 13)) for _ in range(events)]
    return Driver(8, _scattered(8, 60, seed)).run(ops)


@pytest.mark.parametrize(
    "method, edit", [row[1:] for row in PLANTS], ids=[row[0] for row in PLANTS]
)
def test_planted_patch_step_is_caught(method, edit, plant):
    plant(CompactChordRing, method, [edit])
    # A crash counts as caught: an index past a buffer (IndexError) or a
    # window slice that no longer fits its buffer (numpy's ValueError).
    with pytest.raises((AssertionError, IndexError, ValueError)):
        seeded_drive()


def test_the_seeded_drive_passes_unplanted():
    seeded_drive()
