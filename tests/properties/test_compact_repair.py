"""``CompactChordRing.repair_fingers`` against a from-scratch rebuild.

The compact core repairs its finger table from the membership diff: old
indices are remapped to the new positions of their ids' successors,
joiners' own rows are built fresh, and every row whose level-``j`` target
a joiner ``x`` took over — the targets in ``(pred(x), x]`` — is pointed at
``x``.  The property, over any interleaving of join / leave / fail with
lookups (the lazy repair) and ``stabilize_all`` at drawn points: after
every repair ``fingers`` is ``array_equal``, dtype included, to
``build_fingers`` on a fresh ring over the same ids; every event counts
exactly the maintenance messages its formula says; and the rebuild is
taken exactly when ``changed * bits >= n``.

Each repair step is load-bearing — drop the survivors' remap, the
joiners' own rows, the ``(q, x]`` patch or its wrap branch and a named
scenario below fails.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay.arraystore import CompactChordRing


class Driver:
    """A ring driven through events, checked after every repair."""

    def __init__(self, bits: int, ids) -> None:
        self.ring = CompactChordRing(bits, ids)
        self.ring.build_fingers()
        #: One entry per repair: did it take the ``build_fingers`` fallback?
        self.rebuilt: list[bool] = []

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
                self._counted(lambda: ring.join(arg), ring.bits + repair)
        elif op in ("leave", "fail"):
            if n > 1:
                victim = int(ring.ids[arg % n])
                self._counted(
                    lambda: getattr(ring, op)(victim), (2 if op == "leave" else 0) + repair
                )
        elif op == "lookup":
            key = (arg * 2654435761) % ring.size
            self.repaired(lambda: self._counted(lambda: ring.lookup(arg % n, key), 0))
            assert ring.lookup(arg % n, key)[0] == ring.owner_index(key)
        else:
            self.repaired(lambda: self._counted(ring.stabilize_all, n))

    def repaired(self, action) -> None:
        """Run ``action`` (which brings the table up to date), spying on
        ``build_fingers``, then hold the table against a fresh ring's."""
        ring = self.ring
        stale = ring._fingers_ids
        calls = []
        ring.build_fingers = lambda: (calls.append(1), type(ring).build_fingers(ring))
        try:
            action()
        finally:
            del ring.build_fingers
        assert ring._fingers_ids is ring.ids
        fresh = CompactChordRing(ring.bits, ring.ids)
        fresh.build_fingers()
        assert ring.fingers.dtype == fresh.fingers.dtype
        assert np.array_equal(ring.fingers, fresh.fingers)
        if stale is not ring.ids:
            changed = len(set(stale.tolist()) ^ set(ring.ids.tolist()))
            assert bool(calls) == (changed * ring.bits >= ring.num_nodes)
            self.rebuilt.append(bool(calls))

    def run(self, ops) -> "Driver":
        for op, arg in ops:
            self.apply(op, arg)
        self.apply("stabilize", 0)
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
    """The corners, each on a ring large enough (n = 60, bits = 8) that a
    batch of up to three changes is repaired and not rebuilt."""

    BITS = 8

    def ids(self) -> list[int]:
        # Room for a joiner below the first and above the last id.
        return sorted(random.Random(3).sample(range(2, 254), 60))

    def repaired(self, ops, ids=None) -> Driver:
        driver = Driver(self.BITS, ids or self.ids()).run(ops)
        assert driver.rebuilt == [False]
        return driver

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
        # The joiner sits at index 11 when it leaves again: the diff is empty.
        driver = self.repaired([("join", joiner), ("leave", 11)])
        assert driver.ring.ids.tolist() == ids

    def test_leave_then_rejoin_of_one_id(self):
        ids = self.ids()
        driver = self.repaired([("leave", 10), ("join", ids[10])])
        assert driver.ring.ids.tolist() == ids

    def test_departure_and_arrival_side_by_side(self):
        ids = self.ids()
        self.repaired([("fail", 10), ("join", ids[10] + 1), ("leave", 30)])

    def test_lazy_repair_before_a_lookup(self):
        driver = Driver(self.BITS, self.ids()).run(
            [("join", 1), ("lookup", 5), ("fail", 7), ("lookup", 9), ("leave", 0), ("lookup", 2)]
        )
        assert driver.rebuilt == [False, False, False]

    def test_one_to_two_to_one(self):
        driver = Driver(self.BITS, [77]).run(
            [("join", 5), ("stabilize", 0), ("lookup", 1), ("leave", 1), ("stabilize", 0),
             ("join", 200), ("fail", 0)]
        )
        assert driver.ring.ids.tolist() == [200]
        assert all(driver.rebuilt)


class TestRebuildThreshold:
    """``changed * bits >= n`` takes ``build_fingers``; below it, never."""

    def test_small_batch_on_a_large_ring_is_repaired(self):
        driver = Driver(12, _scattered(12, 400)).run(
            [("join", 7 * i + 1) for i in range(12)] + [("leave", 11 * i) for i in range(12)]
        )
        assert driver.rebuilt == [False]  # 24 * 12 < 400

    def test_large_batch_is_rebuilt(self):
        driver = Driver(12, _scattered(12, 400)).run([("fail", 3 * i) for i in range(40)])
        assert driver.rebuilt == [True]  # 40 * 12 >= 360

    @pytest.mark.parametrize("joins,rebuilt", [(4, False), (5, True)])
    def test_the_boundary(self, joins, rebuilt):
        # bits = 12, n = 55 + joins: 4 * 12 = 48 < 59, 5 * 12 = 60 >= 60.
        ids = [64 * i for i in range(55)]
        driver = Driver(12, ids).run([("join", 64 * i + 9) for i in range(joins)])
        assert driver.rebuilt == [rebuilt]
