"""One membership state machine for every object overlay.

:class:`Membership` drives an overlay with ``routing_cache=True`` and its
``routing_cache=False`` twin, the reference path, through the same joins,
rejoins, leaves and fails (some under an un-normalised id), per-node and
full maintenance, stores, bulk stores, discards and replica repairs: nine
builders, each under one and two successor copies and a 2+1 erasure code.
The model is a dict of live ids and a ``Counter`` of registered pieces.
After every rule:

* every memo entry is a fresh derivation (:func:`check_memos`);
* lookups, owners, replica sets, fault-path steps and walks agree with the
  twin (:meth:`Membership.probe`, which also fills the memos);
* the directory census matches the model under ``ChurnGuard``'s contract:
  exact, except that a fail may only lose pieces, each with a copy on the
  crashed node, and a leave may only lose once fewer members are left than
  a piece needs to decode.  A write is exact only while every bucket sits
  on its replica set: after a crash a discard can miss a copy;
* a join or leave that starts with every bucket on its replica set ends
  that way (``check_replica_placement``): the joiner took each copy it
  now holds from the node that dropped out of the set;
* on the single-hop tier, a lookup for an event a member has not learned
  goes where that member's stale view says (:func:`stale_route`);
* the ``ArcDirectory`` equals a fresh ``index``; ``check_overlay`` passes;
* on the Chord cells, a ``CompactChordRing`` mirror that replays every
  membership event and sweep is a fresh ``build_fingers``'s table and
  routes to the subject's owners (:func:`check_compact`), and counts the
  subject's maintenance messages, less a join's bucket transfer.

After a sweep every routing entry *is* what a fresh
``_refresh_routing_state`` yields, ``network.stats`` equals the twin's, the
compact position map is current and drawn compact routes take the
subject's hops; after a full repair
``check_replica_placement`` passes.  ``ZOO`` plants one
bug per row and requires a fixed-seed drive of the machine (for a read view
kept across a clear, the read-view property) to catch it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter, namedtuple
from contextlib import contextmanager
from functools import partial
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from repro.overlay import base as overlay_base
from repro.overlay.arraystore import CompactChordRing
from repro.overlay.base import Overlay
from repro.overlay.chord import ChordNode, ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.overlay.node import ArcDirectory, OverlayNode
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim import maintenance
from repro.sim.durability import erasure_code, successor_replication
from repro.sim.faults import DEFAULT_POLICY
from repro.sim.invariants import (
    InvariantViolation,
    check_overlay,
    check_replica_placement,
    directory_census,
)
from tests.overlay.test_arraystore import position_fingers
from tests.properties.test_directory_views import (
    test_filtered_reads_equal_bruteforce_filter as read_views,
)


def _builder(make, ids, count: int | None, seed: int):
    """``make(routing_cache=, durability=)`` built over ``ids``, or over
    ``count`` of them drawn with ``seed``."""
    if count is not None:
        ids = random.Random(seed).sample(ids, count)

    def build(routing_cache: bool, durability):
        overlay = make(routing_cache=routing_cache, durability=durability)
        overlay.build(ids)
        return overlay

    return build


def _ring(cls, bits: int, count: int | None = None):
    return _builder(partial(cls, bits), range(1 << bits), count, bits)


def _cycloid(d: int, count: int | None = None):
    ids = [CycloidId(k, a) for a in range(1 << d) for k in range(d)]
    return _builder(partial(CycloidOverlay, d), ids, count, d)


_RECORD = partial(ReCordOverlay, fanout=3, seed=5)

#: name -> builder(routing_cache, durability).  ``chord-wide`` is bits = 20
#: with n << 2**bits; ``chord-small`` starts two departures above the
#: <= 10-node full-flush fallback.
BUILDERS = {
    "chord-full": _ring(ChordRing, 6),
    "chord-sparse": _ring(ChordRing, 7, 40),
    "chord-small": _ring(ChordRing, 6, 12),
    "chord-wide": _ring(ChordRing, 20, 24),
    "record": _ring(_RECORD, 7, 40),
    "singlehop": _ring(SingleHopRing, 7, 40),
    "cycloid-full": _cycloid(4),
    "cycloid-sparse": _cycloid(4, 30),
    "cycloid-thin": _cycloid(5, 20),
}
#: The 2+1 code places its fragments symmetrically, which every overlay's
#: ``validate`` accepts.
POLICIES = dict(r1=successor_replication(1), r2=successor_replication(2), ec=erasure_code(2, 1))
CELLS = [f"{name}/{policy}" for name in BUILDERS for policy in POLICIES]


# ----------------------------------------------------------------------
# Fresh derivations
# ----------------------------------------------------------------------
@contextmanager
def uncached(holder, name: str):
    """Derive afresh: ``holder``'s memo ``name`` swapped for an empty one,
    so nothing is read from or written into the real memo, which the
    block gets."""
    memo = getattr(holder, name)
    setattr(holder, name, {})
    try:
        yield memo
    finally:
        setattr(holder, name, memo)


def same_nodes(held, fresh) -> bool:
    return len(held) == len(fresh) and all(a is b for a, b in zip(held, fresh))


def check_memos(overlay) -> None:
    """Every memo entry of ``overlay`` — its routing rows and each live
    node's read views — against a fresh derivation."""
    members = overlay._nodes
    if isinstance(overlay, ChordRing):
        with uncached(overlay, "_cpf_cache") as rows:
            for uid, (dists, fingers) in rows.items():
                assert uid in members, f"finger row of departed {uid}"
                fresh_dists, fresh_fingers = overlay._finger_row(members[uid])
                assert dists == fresh_dists, f"finger row of {uid}"
                assert same_nodes(fingers, fresh_fingers), f"finger row of {uid}"
    else:
        with uncached(overlay, "_slot_rows") as rows:
            for uid, row in rows.items():
                assert uid in members, f"slot row of departed {uid}"
                fresh = overlay._slot_row(members[uid])
                assert row == tuple(fresh), f"slot row of {uid}"
    for node in members.values():
        with uncached(node, "_views") as views:
            for namespace, by_key in views.items():
                for key_id, view in by_key.items():
                    fresh = node._build_view(namespace, key_id)
                    assert view == fresh, f"read view of {namespace}:{key_id} at {node.uid}"


def entries(node) -> tuple:
    """Every routing-table entry of ``node``, in a fixed order."""
    if isinstance(node, ChordNode):
        return (*node.fingers, None, *node.successor_list, None, node.predecessor)
    return (node.cubical_neighbor, *node.cyclic_neighbors, *node.inside_leaf, *node.outside_leaf)


def arc_table(arcs) -> dict:
    """``(namespace, attribute) -> Counter of (holder id, item) pairs``."""
    return {
        (namespace, attribute): Counter(zip(ids, items))
        for namespace, tables in arcs.items()
        for attribute, (ids, items) in tables.items() if ids
    }


def check_arcs(overlay) -> None:
    """The maintained ``ArcDirectory`` holds what a fresh index finds,
    each table in holder-id order."""
    if overlay._arcs:
        fresh = ArcDirectory(overlay.uid_of)
        fresh.index(overlay.nodes())
        assert arc_table(overlay._arcs) == arc_table(fresh), "arc directory"
        tables = [ids for by_attr in overlay._arcs.values() for ids, _ in by_attr.values()]
        assert all(list(ids) == sorted(ids) for ids in tables), "arc directory out of order"


def check_compact(compact, subject, rng) -> None:
    """The compact mirror against the subject and a from-scratch build: its
    ids are the subject's, its table read in positions is a fresh
    ``build_fingers``'s (dtype included), every record names its node's id
    and ring successor, the free and live slots partition the table, and
    drawn lookups end at the subject's owner.  The position map is left as
    found, so a sweep after churn still meets it reset."""
    ids, order = compact.ids, compact.order
    assert ids.tolist() == list(subject.node_ids), "compact ids"
    fresh = CompactChordRing(compact.bits, ids)
    fresh.build_fingers()
    table = position_fingers(compact)
    assert table.dtype == fresh.fingers.dtype, "compact finger dtype"
    assert np.array_equal(table, fresh.fingers[: ids.size]), "compact finger table"
    successors = np.column_stack((ids, np.roll(ids, -1), np.roll(order, -1)))
    assert np.array_equal(compact._rec[order], successors), "compact records"
    live, free = set(order.tolist()), set(compact._free)
    assert len(live) == order.size and not live & free, "compact slots"
    assert sorted(live | free) == list(range(len(compact.fingers))), "compact slots"
    pos = compact._pos
    for _ in range(3):
        key = rng.randrange(compact.size)
        owner, _ = compact.lookup(rng.randrange(ids.size), key)
        assert ids.item(owner) == subject.owner_of(key).uid, f"compact owner of {key}"
    compact._pos = pos


def no_rebuild() -> None:
    raise AssertionError("compact build_fingers called after the mirror was built")


def placed(overlay) -> bool:
    """Whether every bucket sits on exactly its replica set (and enough
    members exist for a piece to decode)."""
    try:
        check_replica_placement(overlay)
    except InvariantViolation:
        return False
    return overlay.num_nodes >= overlay.durability.threshold


def alias(overlay, uid):
    """An un-normalised spelling of member ``uid``."""
    if isinstance(uid, CycloidId):
        return CycloidId(uid.k + overlay.dimension, uid.a + overlay.cubical_space.size)
    return uid + overlay.id_space_size


def route(overlay, start_uid, key) -> tuple:
    """A lookup, which must end at the key's owner."""
    result = overlay.lookup(overlay.node(start_uid), key)
    assert result.owner is overlay.owner_of(overlay.key_id(key)), (start_uid, key)
    return result.owner.uid, result.hops, result.path, result.complete


def stale_route(overlay, uid) -> tuple | None:
    """On the single-hop tier, a lookup from member ``uid`` for the id of
    the first membership event it has not learned, which must go where
    its view (the members, less the joins it missed, plus the departures
    it missed) says: a departed member it believes owns the key costs a
    retry, and a live believed owner is the first hop."""
    deltas = overlay._pending.get(uid)
    if not deltas:
        return None
    key = next(iter(deltas))
    start = overlay.node(uid)
    if overlay.owner_of(key) is start:
        return None
    view = sorted({*overlay.node_ids, *deltas} - {i for i, joined in deltas.items() if joined})
    believed = view[bisect_left(view, key) % len(view)]
    result = overlay.lookup(start, key)
    if believed not in overlay:
        assert result.retries, f"stale view: {uid} believes departed {believed} owns {key}"
    elif believed != uid:
        assert result.path[1] == believed, (
            f"stale view: {uid} jumped to {result.path[1]}, its view says {believed}"
        )
    return result.owner.uid, result.hops, result.path, result.retries


def walk(overlay, start_id: int, lo: int, hi: int) -> tuple:
    """The walk over ``[lo, hi]`` (keys on a ring, cyclic indices on
    Cycloid) from the owner of storage key ``start_id``."""
    result = overlay.walk(overlay.owner_of(start_id), lo, hi)
    return tuple(node.uid for node in result), result.truncated


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------
ARG = st.integers(0, 1 << 21)
NAMESPACES = ("ns-a", "ns-b")
ATTRIBUTES = ("cpu", "mem")


#: A stored piece (the overlays read its ``attribute``; a tuple hashes fast).
Item = namedtuple("Item", "attribute value provider")


class Membership(RuleBasedStateMachine):
    """One ``CELLS`` entry: subject, twin and model; on a ``ChordRing``,
    also a ``CompactChordRing`` mirror that replays each membership event
    and sweep (ReCord and single-hop route differently)."""

    def __init__(self, cell: str) -> None:
        super().__init__()
        name, policy = cell.split("/")
        build, durability = BUILDERS[name], POLICIES[policy]
        self.subject, self.twin = build(True, durability), build(False, durability)
        self.rng = random.Random(cell)
        self.live = dict.fromkeys(self.subject.node_ids)
        self.departed: list = []
        self.cursor = None
        self.model: Counter = Counter()
        self._write("store_all", [self._entry(self.rng) for _ in range(24)])
        for overlay in (self.subject, self.twin):
            overlay._arcs.index(overlay.nodes())
        self.compact = None
        if type(self.subject) is ChordRing:
            self.compact = CompactChordRing(self.subject.bits, self.subject.node_ids)
            self.compact.build_fingers()
            self.compact.build_fingers = no_rebuild
            self.compact_rng = random.Random(f"{cell}:compact")

    def _entry(self, rng: random.Random) -> tuple:
        """A write under one of ~24 keys, drawing from 12 items: buckets
        hold several items, some of them equal."""
        size = self.subject.id_space_size
        key = self.subject.key_of(rng.randrange(0, size, max(1, size // 24)))
        item = Item(rng.choice(ATTRIBUTES), float(rng.randrange(3)), f"p{rng.randrange(2)}")
        return rng.choice(NAMESPACES), key, item

    def _both(self, name: str, *args) -> list:
        return [getattr(overlay, name)(*args) for overlay in (self.subject, self.twin)]

    def _mirrored(self, name: str, *args) -> None:
        """``_both``, then the same call on the compact mirror, which must
        count the maintenance messages the subject counts, less the one
        bucket-transfer message (0 or 1) of a join: it holds no directory."""
        stats = self.subject.network.stats
        before = stats.maintenance_messages
        self._both(name, *args)
        if self.compact is not None:
            sent = self.compact.maintenance_messages
            getattr(self.compact, name)(*args)
            spare = stats.maintenance_messages - before - (self.compact.maintenance_messages - sent)
            assert spare in ((0, 1) if name == "join" else (0,)), f"compact {name} messages"

    def _account(
        self, event: str, expected: Counter, exact: bool, bound=None, crashed=None
    ) -> None:
        """Hold the census against ``expected``: equal if ``exact``, else
        never above ``bound`` (default ``expected``) and, after a crash,
        short only of pieces the crashed node held.  Then adopt it."""
        census = directory_census(self.subject, self.subject.durability)
        if exact:
            assert census == expected, (
                f"{event}: census lost {dict(expected - census)}, "
                f"invented {dict(census - expected)}"
            )
        else:
            invented = census - (expected if bound is None else bound)
            assert not invented, f"{event}: census invented {dict(invented)}"
            if crashed is not None:
                lost = set(expected - census) - crashed
                assert not lost, f"{event}: lost {lost}, which the crashed node did not hold"
        self.model = census

    # -- membership ----------------------------------------------------
    @rule(arg=ARG)
    def join(self, arg: int) -> None:
        self._join(self.subject.key_of(arg % self.subject.id_space_size))

    @rule(arg=ARG)
    def rejoin(self, arg: int) -> None:
        if self.departed:
            self._join(self.departed.pop(arg % len(self.departed)))

    def _join(self, uid) -> None:
        if uid in self.live:
            return
        starts_placed = placed(self.subject)
        self._mirrored("join", uid)
        self.live[uid] = None
        self._account("join", self.model, exact=True)
        if starts_placed:
            check_replica_placement(self.subject)

    @rule(arg=ARG)
    def leave(self, arg: int) -> None:
        self._depart("leave", arg)

    @rule(arg=ARG)
    def fail(self, arg: int) -> None:
        self._depart("fail", arg)

    def _depart(self, op: str, arg: int) -> None:
        """Depart member ``arg >> 1``, under an alias if ``arg`` is odd; the
        last member's departure is refused and changes nothing."""
        ids = list(self.live)
        uid = ids[(arg >> 1) % len(ids)]
        name = alias(self.subject, uid) if arg & 1 else uid
        if len(ids) == 1:
            for overlay in (o for o in (self.subject, self.twin, self.compact) if o is not None):
                with pytest.raises(ValueError, match="last ring node"):
                    getattr(overlay, op)(name)
                assert overlay.num_nodes == 1, f"refused {op} changed the membership"
            self._account(op, self.model, exact=True)
            return
        held = set(self.subject.node(uid).stored_entries())
        starts_placed = op == "leave" and placed(self.subject)
        self._mirrored(op, name)
        del self.live[uid]
        self.departed.append(uid)
        exact = op == "leave" and len(ids) > self.subject.durability.threshold
        self._account(op, self.model, exact, crashed=held if op == "fail" else None)
        if starts_placed:
            check_replica_placement(self.subject)

    # -- maintenance ---------------------------------------------------
    @rule(arg=ARG)
    def stabilize_step(self, arg: int) -> None:
        self._step("stabilize_step", arg)

    @rule(arg=ARG)
    def refresh_routing_step(self, arg: int) -> None:
        self._step("refresh_routing_step", arg)

    def _step(self, op: str, arg: int) -> None:
        uid = list(self.live)[arg % len(self.live)]
        for overlay in (self.subject, self.twin):
            getattr(overlay, op)(overlay.node(uid))
        self._account(op, self.model, exact=True)

    @rule()
    def stabilize_all(self) -> None:
        """The sweep, then: every routing entry *is* a fresh derivation,
        the message counts are the full-sweep twin's, and drawn compact
        routes take the subject's hops (before a sweep the subject's
        fingers may be stale, so only the owners agree)."""
        subject = self.subject
        self._mirrored("stabilize_all")
        self._account("stabilize_all", self.model, exact=True)
        assert subject.network.stats == self.twin.network.stats, "network stats"
        if self.compact is not None:
            order, pos = self.compact.order, self.compact._pos
            assert pos is not None and np.array_equal(pos[order], np.arange(order.size)), (
                "compact position map"
            )
            ids, rng = list(self.live), self.compact_rng
            for _ in range(3):
                uid, key = ids[rng.randrange(len(ids))], rng.randrange(subject.id_space_size)
                owner, hops = self.compact.lookup(self.compact.index_of(uid), key)
                route(self.twin, uid, key)  # lookups count in ``network.stats``
                want = route(subject, uid, key)[:2]
                assert (self.compact.ids.item(owner), hops) == want, f"compact route {uid} -> {key}"
        for node in list(subject.nodes()):
            held = entries(node)
            subject._refresh_routing_state(node)
            fresh = entries(node)
            assert same_nodes(held, fresh), f"stale routing entry at {node.uid} after the sweep"
        if isinstance(subject, SingleHopRing):
            assert subject.pending_events() == 0

    @rule()
    def repair_replication(self) -> None:
        moved = self._both("repair_replication")
        assert moved[0] == moved[1]
        self._account("repair_replication", self.model, exact=True)
        check_replica_placement(self.subject)

    @rule(arg=ARG)
    def repair_replication_step(self, arg: int) -> None:
        progress = self._both("repair_replication_step", arg % 5, self.cursor)
        assert progress[0] == progress[1]
        self.cursor = progress[0].next_after
        self._account("repair_replication_step", self.model, exact=True)

    # -- writes --------------------------------------------------------
    @rule(arg=ARG)
    def store(self, arg: int) -> None:
        self._write("store", [self._entry(random.Random(arg))])

    @rule(arg=ARG)
    def store_all(self, arg: int) -> None:
        rng = random.Random(arg)
        self._write("store_all", [self._entry(rng) for _ in range(rng.randrange(2, 6))])

    @rule(arg=ARG)
    def discard(self, arg: int) -> None:
        """Withdraw a registered piece, or (one time in four) a drawn one."""
        pieces = list(self.model)
        if pieces and arg % 4:
            namespace, key_id, item = pieces[arg % len(pieces)]
            entry = namespace, self.subject.key_of(key_id), item
        else:
            entry = self._entry(random.Random(arg))
        self._write("discard", [entry], removing=True)

    def _write(self, op: str, writes: list, removing: bool = False) -> None:
        exact = placed(self.subject)
        pieces = Counter((ns, self.subject.key_id(key), item) for ns, key, item in writes)
        expected = self.model - pieces if removing else self.model + pieces
        if op == "store_all":
            self._both(op, writes)
        else:
            done = self._both(op, *writes[0])
            assert not removing or done[0] == done[1]
        self._account(op, expected, exact, bound=self.model | expected)

    # -- after every rule ----------------------------------------------
    @invariant()
    def coherent(self) -> None:
        subject = self.subject
        assert set(subject.node_ids) == self.live.keys() == set(self.twin.node_ids)
        check_memos(subject)
        self.probe()
        check_arcs(subject)
        check_overlay(subject)
        if self.compact is not None:
            check_compact(self.compact, subject, self.compact_rng)

    def probe(self) -> None:
        """Lookups, owner resolutions, placements, fault-path steps and a
        walk on both twins, compared; they also fill the memos, and
        directory reads on the subject build read views."""
        subject, twin, rng = self.subject, self.twin, self.rng
        ids = list(self.live)
        size = subject.id_space_size
        pieces = list(self.model)
        for _ in range(3):
            if pieces:  # read views over the holders of a registered piece
                namespace, key_id, item = pieces[rng.randrange(len(pieces))]
                low = rng.randrange(3) - 0.5
                for node in subject.replica_set_of(key_id):
                    node.items_at(namespace, key_id, item.attribute, low, low + 1)
                    node.items_in(namespace, item.attribute, low, low + 1)
            uid = ids[rng.randrange(len(ids))]
            key = subject.key_of(rng.randrange(size))
            assert route(subject, uid, key) == route(twin, uid, key), (uid, key)
            key_id = rng.randrange(size)
            assert subject.owner_of(key_id).uid == twin.owner_of(key_id).uid
            sets = [[n.uid for n in o.replica_set_of(key_id)] for o in (subject, twin)]
            assert sets[0] == sets[1], key_id
            steps = [o._fault_step(o.node(uid), key, DEFAULT_POLICY) for o in (subject, twin)]
            steps = [step and [i for i, _ in step] for step in steps]
            assert steps[0] == steps[1], (uid, key)
        if isinstance(subject, SingleHopRing):
            uid = next((uid for uid in ids if subject._pending.get(uid)), ids[0])
            assert stale_route(subject, uid) == stale_route(twin, uid), uid
        start_id = rng.randrange(size)
        if isinstance(subject, ChordRing):
            span = (start_id, start_id, (start_id + rng.randrange(size // 4 + 1)) % size)
        else:  # start_id = a * d + k
            span = (start_id, start_id % subject.dimension, rng.randrange(subject.dimension))
        assert walk(subject, *span) == walk(twin, *span), span


@pytest.mark.parametrize("cell", CELLS)
def test_membership_machine(cell):
    run_state_machine_as_test(lambda: Membership(cell))


# ----------------------------------------------------------------------
# Seeded drives of the same machine
# ----------------------------------------------------------------------
STORM_OPS = (
    "join", "join", "rejoin", "leave", "fail", "stabilize_step", "refresh_routing_step",
    "stabilize_all", "store", "store_all", "discard", "repair_replication",
    "repair_replication_step",
)
ARGLESS = ("stabilize_all", "repair_replication")


def apply(machine: Membership, op: str, arg: int = 0) -> None:
    """One rule, then the checks Hypothesis runs after it."""
    getattr(machine, op)(*(() if op in ARGLESS else (arg,)))
    machine.coherent()


def storm(cell: str, seed: int = 23, events: int = 120) -> None:
    machine = Membership(cell)
    rng = random.Random(seed)
    for _ in range(events):
        apply(machine, rng.choice(STORM_OPS), rng.randrange(1 << 21))


def shrink(cell: str) -> None:
    """Leave down to one member (whose departure is refused), then rejoin
    every departed id, sweeping at drawn points."""
    machine = Membership(cell)
    rng = random.Random(3)
    while len(machine.live) > 1:
        apply(machine, "leave", rng.randrange(1 << 21))
        if len(machine.live) % 2:
            apply(machine, "stabilize_all")
    apply(machine, "leave", 1)
    apply(machine, "fail", 0)
    apply(machine, "stabilize_all")
    while machine.departed:
        apply(machine, "rejoin", rng.randrange(1 << 21))
        if len(machine.live) % 3 == 0:
            apply(machine, "stabilize_all")
    apply(machine, "stabilize_all")


def clusters(cell: str) -> None:
    """Empty every Cycloid cluster in turn (fails in odd clusters, leaves
    in even ones), sweep, and bring its members back."""
    machine = Membership(cell)
    for a, cids in groupby(machine.subject.node_ids, key=attrgetter("a")):
        for cid in cids:
            apply(machine, "fail" if a % 2 else "leave", list(machine.live).index(cid) << 1)
        assert a not in machine.subject._clusters
        apply(machine, "stabilize_all")
        while machine.departed:
            apply(machine, "rejoin", 0)
            apply(machine, "stabilize_all")


def corners(cell: str) -> None:
    """The compact mirror's corners that no storm or shrink reaches: a
    member leaves and at once rejoins, into the slot its departure freed."""
    machine = Membership(cell)
    uid = list(machine.live)[5]
    slot = machine.compact.order.item(machine.compact.index_of(uid))
    apply(machine, "leave", 5 << 1)
    apply(machine, "join", uid)
    assert machine.compact.order.item(machine.compact.index_of(uid)) == slot


#: ``"<drive>:<cell>"`` targets of the zoo.  Only a departing node's
#: storage is cleared, and no overlay reads it again, so ``views`` is the
#: read-view property's explicit example, not a drive of the machine.
DRIVES = {
    "storm": storm, "shrink": shrink, "clusters": clusters, "corners": corners,
    "views": lambda _: read_views(),
}


@pytest.mark.parametrize(
    "cell", ["chord-small/r1", "singlehop/r2"], ids=["chord-small", "singlehop-sparse"]
)
def test_ring_shrunk_to_a_handful_and_regrown(cell):
    shrink(cell)


@pytest.mark.parametrize(
    "cell", ["cycloid-sparse/r1", "cycloid-thin/r2"], ids=["cycloid-sparse", "cycloid-thin"]
)
def test_every_cycloid_cluster_emptied_and_recreated(cell):
    clusters(cell)


def test_compact_corners():
    corners("chord-wide/r1")


class TestSweepIsNarrow:
    """The sweep re-derives what the events made stale, not the ring — and
    everything where no marking rule exists."""

    @staticmethod
    def _rederived(overlay, monkeypatch) -> list:
        seen: list = []
        derive = overlay._refresh_routing_state

        def recording(node) -> None:
            seen.append(node.uid)
            derive(node)

        monkeypatch.setattr(overlay, "_refresh_routing_state", recording)
        overlay.stabilize_all()
        return seen

    @pytest.mark.parametrize("cls", [ChordRing, SingleHopRing])
    def test_chord_event_costs_about_bits_nodes(self, cls, monkeypatch):
        ring = cls(9)
        ring.build_full()
        ring.leave(100)
        ring.join(100)
        seen = self._rederived(ring, monkeypatch)
        assert 0 < len(seen) <= 2 * (ring.bits + 2 * ring.successor_list_len + 3)
        assert self._rederived(ring, monkeypatch) == []

    def test_cycloid_event_costs_dimension_nodes(self, monkeypatch):
        overlay = CycloidOverlay(5)
        overlay.build_full()
        overlay.leave(CycloidId(2, 9))
        overlay.join(CycloidId(2, 9))
        assert len(self._rederived(overlay, monkeypatch)) == overlay.dimension

    @pytest.mark.parametrize(
        "make",
        [
            partial(ChordRing, 6, routing_cache=False),
            partial(_RECORD, 6),
            partial(CycloidOverlay, 3, routing_cache=False),
        ],
        ids=["chord-uncached", "record", "cycloid-uncached"],
    )
    def test_reference_paths_sweep_everything(self, make, monkeypatch):
        overlay = make()
        overlay.build_full()
        victim = overlay.node_ids[5]
        overlay.leave(victim)
        assert len(self._rederived(overlay, monkeypatch)) == overlay.num_nodes

    def test_unbuilt_ring_sweeps_everything(self, monkeypatch):
        ring = ChordRing(8)
        for node_id in range(0, 256, 8):
            ring.join(node_id)
        assert len(self._rederived(ring, monkeypatch)) == ring.num_nodes


# ----------------------------------------------------------------------
# The bug zoo
# ----------------------------------------------------------------------
def _noop(*args) -> None:
    return None


#: ``ChordRing.join``'s transfer before the shared rule (for its dedented
#: source); the modules whose ``place_bucket`` handover / repair call.
JOIN_MOVING_OWNED = """succ = self.successor_of(node_id + 1)
        for (namespace, key_id), _ in succ.buckets():
            if self.successor_of(key_id) is node:
                for item in succ.remove_items(namespace, key_id):
                    node.store(namespace, key_id, item)
        if False:"""
PLACE, REPAIR, CENSUS = overlay_base, maintenance, "(join|leave): census"


#: ``(id, target, (class, method, edit), match)``: the plant (see
#: the ``plant`` fixture) and the message its drive must fail with.
ZOO = [
    # Memo upkeep: departed finger rows; each write's read-view update or
    # flush, a delete's collapse to one attribute, a store's tie order.
    ("finger-rows-kept", "storm:chord-full/r2",
     (ChordRing, "_drop_departed_rows", _noop), "finger row"),
    ("views-kept-on-store", "storm:chord-sparse/r2", (OverlayNode, "store", [
        ("self._write_view(namespace, key_id, item, True)", "pass"),
    ]), "read view"),
    ("views-kept-on-remove-items", "storm:cycloid-full/r2",
     (OverlayNode, "remove_items", [("self._views.pop(namespace, None)", "pass")]), "read view"),
    ("views-kept-on-remove-item", "storm:chord-sparse/r2", (OverlayNode, "remove_item", [
        ("self._write_view(namespace, key_id, item, False)", "pass"),
    ]), "read view"),
    ("views-kept-on-clear", "views:node",
     (OverlayNode, "clear_storage", [("self._views.clear()", "pass")]), "Counter"),
    ("view-collapse-skipped", "storm:chord-sparse/r2",
     (OverlayNode, "_write_view", [("views[key_id] = (items, None, values)", "pass")]),
     "read view"),
    ("view-tie-before", "storm:chord-sparse/r2", (OverlayNode, "_write_view", [
        ("bisect_right(values, value, first, last)", "bisect_left(values, value, first, last)"),
    ]), "read view"),
    # Marking rules of the stale set.
    ("stale-finger-slices", "storm:chord-wide/r1",
     (ChordRing, "_mark_stale", [("in range(self.bits):", "in ():")]), "stale routing|finger row"),
    ("stale-successor-neighbours", "storm:chord-wide/r1",
     (ChordRing, "_mark_stale", [("range(-reach, reach + 1)", "()")]), "stale routing entry"),
    ("stale-cubical-dependents", "storm:cycloid-full/r2",
     (CycloidOverlay, "_mark_stale", [("for t in cells", "for t in ()")]), "stale routing entry"),
    ("stale-cluster-redrawn", "clusters:cycloid-sparse/r1",
     (CycloidOverlay, "_membership_changed", [("self._stale = None", "pass")]), "stale routing"),
    # The one placement rule, as a join or leave calls it; and the join
    # before it, whose successor handed the joiner the buckets it now owns.
    ("join-skips-owner-test", "storm:chord-sparse/r2",
     (PLACE, "place_bucket", [("if node in replicas:", "if True:")]), "replica drift"),
    ("join-sums-donors", "storm:cycloid-full/r2",
     (PLACE, "place_bucket", [("decodable_level(cs, threshold)", "sum(cs)")]), CENSUS),
    ("depart-skips-holds", "storm:chord-full/r2",
     (PLACE, "place_bucket", [("(held.get(item, 0) if held else 0)", "0")]), CENSUS),
    ("depart-ignores-held", "storm:cycloid-full/r2",
     (PLACE, "place_bucket", [("held = kept.get(holder)", "held = None")]), CENSUS),
    ("join-moves-not-copies", "storm:chord-sparse/r2",
     (ChordRing, "join", [("if self._place_after(keys, before):", JOIN_MOVING_OWNED)]),
     "replica drift"),
    # Fixes recorded in CHANGES.md.
    ("pop-before-guard", "shrink:chord-small/r1", (Overlay, "_depart", [(
        'require(self.num_nodes > 1, "cannot remove the last ring node")\n'
        "    node = self._nodes.pop(node_id)",
        "node = self._nodes.pop(node_id)\n"
        '    require(self.num_nodes > 0, "cannot remove the last ring node")',
    )]), "refused leave changed the membership"),
    # PR 10: the believed owner was asked of the node object, not its id,
    # which silently disabled the staleness model.
    ("believed-owner-of-node-object", "storm:singlehop/r2", (SingleHopRing, "_lookup_plain", [(
        "target = self._believed_owner_id(cur.node_id, key)\n        while",
        "target = self._believed_owner_id(cur, key)\n        while",
    )]), "stale view"),
    ("unnormalised-depart-id", "storm:cycloid-full/r2",
     (Overlay, "_depart", [("self._normalize_id(node_id)", "node_id")]), "not a live member"),
    ("repair-collapses-duplicates", "storm:chord-full/r2", (REPAIR, "place_bucket", [
        ("decodable_level(cs, threshold)", "min(1, decodable_level(cs, threshold))"),
    ]), "repair_replication: census"),
    # The compact mirror's per-event patch, one step dropped or bent per
    # row: the joiner's row and record, the predecessor relink, the arc
    # re-point and its wrap branch, the position-map reset, the slot reuse,
    # the sweep's position-map rebuild, the table growth with its views,
    # buffers and position map, the join's prefix shift and window move,
    # the departure's shift and its id wrap.
    # Several crash: an index past a buffer, a pop with no free slot, a
    # window that no longer fits its buffer.  An unwritten joiner row holds
    # garbage slots, or a departed node's row if the slot was reused.
    # ``chord-full`` cannot catch growth or wraps: 64 ids fill 64 slots.
    *[(f"compact-{name}", "storm:chord-wide/r1", (CompactChordRing, method, [edit]), match)
      for name, method, edit, match in [
        ("joiner-row", "join", ("self.fingers[slot] = order", "_ = order"),
         "out of bounds|compact finger table"),
        ("joiner-record", "join", ("self._rec[slot] = node_id,", "_ = node_id,"), "compact records"),
        ("predecessor-relink", "_adopt", ("self._rec[pred, 1:] = ids.item(q), owner", "pass"),
         "compact records"),
        ("arc-repoint", "_adopt", ("fingers[order[a:b], j] = owner", "pass"), "compact finger table"),
        ("wrap-branch", "_adopt", ("if wraps:", "if False:"), "compact finger table"),
        ("position-map-reset", "_adopt", ("self._pos = None", "pass"), "compact owner"),
        ("sweep-position-map", "stabilize_all", ("self._positions()", "pass"),
         "compact position map"),
        ("slot-reuse", "_depart", ("self._free.append(self.order.item(p))", "pass"), "compact slots"),
        ("table-growth", "join", ("self._grow()", "pass"), "pop from empty list"),
        ("grown-views", "_grow", ("self._views()", "pass"), "out of bounds"),
        ("grown-buffers", "_grow", (
            "self._id_buf, self._order_buf = grown(self._id_buf), grown(self._order_buf)", "pass",
        ), "could not broadcast"),
        ("position-map-grown", "_grow", ("self._pos_buf = grown(self._pos_buf)", "pass"),
         "out of bounds"),
        ("join-order-shift", "join", ("order[:p] = order[1 : p + 1]", "pass"), "compact finger table"),
        ("window-move", "join", ("if h == 0:", "if False:"), "out of bounds"),
        ("departure-ids-shift", "_depart", ("ids[p:-1] = ids[p + 1 :]", "pass"), "compact ids"),
        ("unnormalised-depart-id", "_depart", ("node_id %= self.size", "pass"), "not present"),
    ]],
]


@pytest.mark.parametrize(
    "target, edit, match", [row[1:] for row in ZOO], ids=[row[0] for row in ZOO]
)
def test_zoo_plant_is_caught(target, edit, match, plant):
    plant(*edit)
    drive, cell = target.split(":")
    with pytest.raises(Exception, match=match):
        DRIVES[drive](cell)


@pytest.mark.parametrize("cell", sorted({row[1][6:] for row in ZOO if row[1].startswith("storm:")}))
def test_zoo_storm_passes_unplanted(cell):
    storm(cell)
