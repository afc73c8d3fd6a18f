"""``CompactChordRing`` on its own, through one seeded drive.

The membership machine drives the compact core as a mirror of a
``ChordRing`` (``check_compact``) and its ``compact-*`` zoo rows plant the
patch steps.  This drive needs no subject: a ring of 60 in ``2**8`` ids
(one spare slot) through seeded joins, departures, lookups and sweeps.
After *every* event the table read in positions is ``array_equal``, dtype
included, to ``build_fingers`` on a fresh ring over the same ids; every
record names its node's id and its ring successor; the free slots and the
live ones partition the table; every event counts exactly the maintenance
messages its formula says; and ``build_fingers`` is never called again
once the ring is built.
"""

from __future__ import annotations

import random

import numpy as np

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


DRIVE_OPS = ("join", "join", "leave", "fail", "lookup", "lookup", "stabilize")


def seeded_drive(seed: int = 5, events: int = 80) -> Driver:
    rng = random.Random(seed)
    ops = [(rng.choice(DRIVE_OPS), rng.randrange(1 << 13)) for _ in range(events)]
    ids = sorted(random.Random(seed).sample(range(1 << 8), 60))
    return Driver(8, ids).run(ops)


def test_the_seeded_drive_passes_unplanted():
    seeded_drive()
