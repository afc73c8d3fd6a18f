"""Every routing memo entry is a fresh derivation, after every event.

A join, leave or fail drops only the memo entries its arc ``(pred, id]``
changed (``ChordRing._drop_memos``, ``CycloidOverlay._membership_changed``);
the stabilize and refresh steps drop the rows of the tables they rewrite.
The property, over random interleavings of ``join`` / ``leave`` / ``fail``
/ ``stabilize_step`` / ``refresh_routing_step`` / ``stabilize_all`` with
lookups, owner resolutions and fault-path steps in between (they fill the
memos), on all four object overlays under one and two copies per key:
after every event

* each ``_succ_cache[k]`` is the node a bisect of ``_sorted_ids`` names;
* each ``_cpf_cache`` row is the ``_finger_row`` of its node, re-derived;
* each ``_owner_cache`` entry is the uncached ``closest_node``;
* each ``_slot_rows`` row is the node's ``_slot_row``, re-derived;
* each ``_holders`` entry is the policy's placement, re-derived;
* no memo is keyed by a node that is no longer a member;

and every route equals that of a ``routing_cache=False`` twin driven
through the same events.  The re-derivations run with the subject's
``routing_cache`` off and its memos swapped out (:func:`uncached`), so a
check neither reads a memo nor writes one back.

``TestPlantedBugsAreCaught`` removes each scoped drop in turn and requires
the seeded storm to fail.
"""

from __future__ import annotations

import bisect
import random
from contextlib import contextmanager
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim.durability import successor_replication
from repro.sim.faults import DEFAULT_POLICY


def _ring(cls, bits: int, count: int | None = None):
    size = 1 << bits
    ids = range(size) if count is None else random.Random(bits).sample(range(size), count)

    def build(routing_cache: bool, copies: int):
        ring = cls(bits, routing_cache=routing_cache, durability=successor_replication(copies))
        ring.build(ids)
        return ring

    return build


def _cycloid(dimension: int, count: int | None = None):
    ids = [CycloidId(k, a) for a in range(1 << dimension) for k in range(dimension)]
    if count is not None:
        ids = random.Random(dimension).sample(ids, count)

    def build(routing_cache: bool, copies: int):
        overlay = CycloidOverlay(
            dimension, routing_cache=routing_cache, durability=successor_replication(copies)
        )
        overlay.build(ids)
        return overlay

    return build


#: name -> builder(routing_cache, copies).  ``chord-small`` starts two
#: departures above the <= 10-node full-flush fallback.
BUILDERS = {
    "chord-full": _ring(ChordRing, 6),
    "chord-sparse": _ring(ChordRing, 7, 40),
    "chord-small": _ring(ChordRing, 6, 12),
    "record-sparse": _ring(partial(ReCordOverlay, fanout=3, seed=5), 7, 40),
    "singlehop-sparse": _ring(SingleHopRing, 7, 40),
    "cycloid-full": _cycloid(4),
    "cycloid-sparse": _cycloid(4, 30),
}

OPS = ("join", "leave", "fail", "stabilize_step", "refresh_routing_step", "stabilize_all")
op_st = st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 21))


MEMOS = ("_holders", "_succ_cache", "_cpf_cache", "_owner_cache", "_slot_rows")


@contextmanager
def uncached(overlay):
    """Derive afresh: ``routing_cache`` off and every memo swapped for an
    empty one, so nothing is read from or written into the real memos,
    which the block gets by name."""
    memos = {name: getattr(overlay, name) for name in MEMOS if hasattr(overlay, name)}
    overlay.routing_cache = False
    for name in memos:
        setattr(overlay, name, {})
    try:
        yield memos
    finally:
        overlay.routing_cache = True
        for name, memo in memos.items():
            setattr(overlay, name, memo)


def same_nodes(held, fresh) -> bool:
    return len(held) == len(fresh) and all(a is b for a, b in zip(held, fresh))


def check_memos(overlay) -> None:
    """Every memo entry of ``overlay`` against a fresh derivation."""
    members = overlay._nodes
    with uncached(overlay) as memos:
        for key_id, holders in memos["_holders"].items():
            fresh = tuple(overlay.durability.holders(overlay, key_id))
            assert same_nodes(holders, fresh), f"holders of {key_id}"
        if isinstance(overlay, ChordRing):
            ids = overlay._sorted_ids
            for key, node in memos["_succ_cache"].items():
                idx = bisect.bisect_left(ids, key)
                expected = members[ids[idx if idx < len(ids) else 0]]
                assert node is expected, f"successor of {key}: {node.uid} != {expected.uid}"
            for uid, (dists, fingers) in memos["_cpf_cache"].items():
                assert uid in members, f"finger row of departed {uid}"
                fresh_dists, fresh_fingers = overlay._finger_row(members[uid])
                assert dists == fresh_dists, f"finger row of {uid}"
                assert same_nodes(fingers, fresh_fingers), f"finger row of {uid}"
        else:
            for key, node in memos["_owner_cache"].items():
                expected = overlay.closest_node(key)
                assert node is expected, f"owner of {key}: {node.uid} != {expected.uid}"
            for uid, row in memos["_slot_rows"].items():
                assert uid in members, f"slot row of departed {uid}"
                fresh = overlay._slot_row(members[uid])
                assert row == tuple(fresh), f"slot row of {uid}"


def route(overlay, start_uid, key) -> tuple:
    result = overlay.lookup(overlay.node(start_uid), key)
    return result.owner.uid, result.hops, result.path, result.complete


class Twins:
    """The overlay under test and its ``routing_cache=False`` twin."""

    def __init__(self, name: str, copies: int) -> None:
        self.subject = BUILDERS[name](True, copies)
        self.twin = BUILDERS[name](False, copies)
        self.departed: list = []
        self.rng = random.Random(f"{name}:{copies}")
        self.probe()
        check_memos(self.subject)

    def apply(self, op: str, arg: int) -> None:
        subject = self.subject
        ids = subject.node_ids
        if op == "stabilize_all":
            for overlay in (subject, self.twin):
                overlay.stabilize_all()
        elif op in ("stabilize_step", "refresh_routing_step"):
            uid = ids[arg % len(ids)]
            for overlay in (subject, self.twin):
                getattr(overlay, op)(overlay.node(uid))
        else:
            if op == "join":
                if self.departed and arg % 2:
                    uid = self.departed.pop(arg % len(self.departed))
                else:
                    uid = subject.key_of(arg % subject.id_space_size)
                if uid in subject:
                    return
            else:
                if len(ids) < 3:
                    return
                uid = ids[arg % len(ids)]
                self.departed.append(uid)
            for overlay in (subject, self.twin):
                getattr(overlay, op)(uid)
        check_memos(subject)
        self.probe()
        check_memos(subject)

    def probe(self) -> None:
        """Lookups, owner resolutions, placements and fault-path steps —
        on both twins, the routes compared; they also fill the memos."""
        subject, twin, rng = self.subject, self.twin, self.rng
        ids = subject.node_ids
        for _ in range(8):
            uid = ids[rng.randrange(len(ids))]
            key = subject.key_of(rng.randrange(subject.id_space_size))
            assert route(subject, uid, key) == route(twin, uid, key), (uid, key)
            key_id = rng.randrange(subject.id_space_size)
            assert subject.owner_of(key_id).uid == twin.owner_of(key_id).uid
            assert [n.uid for n in subject.replica_set_of(key_id)] == [
                n.uid for n in twin.replica_set_of(key_id)
            ]
            step = subject._fault_step(subject.node(uid), key, DEFAULT_POLICY)
            twin_step = twin._fault_step(twin.node(uid), key, DEFAULT_POLICY)
            assert (step and [i for i, _ in step]) == (twin_step and [i for i, _ in twin_step])


every_overlay = pytest.mark.parametrize("name", BUILDERS)
both_placements = pytest.mark.parametrize("copies", (1, 2))


@every_overlay
@both_placements
@given(ops=st.lists(op_st, max_size=30))
def test_memos_stay_fresh(name, copies, ops):
    twins = Twins(name, copies)
    for op, arg in ops:
        twins.apply(op, arg)


def seeded_storm(name: str, copies: int = 1, events: int = 120) -> None:
    twins = Twins(name, copies)
    rng = random.Random(23)
    for _ in range(events):
        op = rng.choice(("join", "join", "leave", "fail", *OPS[3:]))
        twins.apply(op, rng.randrange(1 << 21))


@every_overlay
def test_seeded_storm(name):
    seeded_storm(name, copies=2)


class TestPlantedBugsAreCaught:
    """Bug zoo: each scoped drop, removed, is caught by the storm."""

    def test_departure_keeps_the_finger_rows(self, monkeypatch):
        monkeypatch.setattr(ChordRing, "_drop_departed_rows", lambda self, node_id: None)
        with pytest.raises(AssertionError, match="finger row"):
            seeded_storm("chord-full")

    def test_arc_successors_are_kept(self, monkeypatch):
        monkeypatch.setattr(ChordRing, "_drop_arc_successors", lambda self, pred, node_id: None)
        with pytest.raises(AssertionError, match="successor of"):
            seeded_storm("chord-sparse")

    def test_owner_cells_are_kept(self, monkeypatch):
        monkeypatch.setattr(CycloidOverlay, "_drop_owner_cells", lambda self, cells: None)
        with pytest.raises(AssertionError, match="owner of"):
            seeded_storm("cycloid-full")

    @pytest.mark.parametrize("name", ["chord-full", "chord-sparse", "cycloid-full"])
    def test_the_same_storms_pass_unplanted(self, name):
        seeded_storm(name)
