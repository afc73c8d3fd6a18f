"""The incremental stabilization sweep against a full re-derivation.

``Overlay.stabilize_all`` re-derives only the stale set — the nodes a
membership event since the last sweep can have left behind the oracle
(``ChordRing._mark_stale`` / ``CycloidOverlay._mark_stale``).  The
property, over any interleaving of join / leave / fail / rejoin of a
departed id with sweeps at drawn points, on all four overlay classes, full
and sparse: after each sweep every routing entry of every node *is* the
object a fresh ``_refresh_routing_state`` of that node yields, the sweep
counted exactly the maintenance messages the full sweep of a
``routing_cache=False`` twin counted, and ``check_invariants`` passes.

Each marking rule is load-bearing — delete the finger-level slices, the
successor-list neighbours, the cubical dependents or the cluster-set
change -> ``None`` and a seeded storm below fails.
"""

from __future__ import annotations

import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay.chord import ChordNode, ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing


def _ring(cls, bits: int, count: int | None = None):
    """Builder of a ``bits``-bit ring over ``count`` scattered ids (all)."""
    size = 1 << bits
    ids = range(size) if count is None else random.Random(bits).sample(range(size), count)

    def build(routing_cache: bool):
        ring = cls(bits, routing_cache=routing_cache)
        ring.build(ids)
        return ring

    return build


def _cycloid(dimension: int, count: int | None = None):
    ids = [CycloidId(k, a) for a in range(1 << dimension) for k in range(dimension)]
    if count is not None:
        ids = random.Random(dimension).sample(ids, count)

    def build(routing_cache: bool):
        overlay = CycloidOverlay(dimension, routing_cache=routing_cache)
        overlay.build(ids)
        return overlay

    return build


_RECORD = partial(ReCordOverlay, fanout=3, seed=5)

#: name -> builder(routing_cache).  ``*-wide`` is bits = 20 with n << 2**bits;
#: ``*-small`` starts two departures above the <= 10-node full-sweep fallback.
BUILDERS = {
    "chord-full": _ring(ChordRing, 6),
    "chord-sparse": _ring(ChordRing, 7, 40),
    "chord-wide": _ring(ChordRing, 20, 24),
    "chord-small": _ring(ChordRing, 6, 12),
    "singlehop-full": _ring(SingleHopRing, 6),
    "singlehop-sparse": _ring(SingleHopRing, 7, 40),
    "singlehop-wide": _ring(SingleHopRing, 20, 24),
    "record-full": _ring(_RECORD, 6),
    "record-sparse": _ring(_RECORD, 7, 40),
    "cycloid-full": _cycloid(4),
    "cycloid-sparse": _cycloid(4, 30),
    "cycloid-thin": _cycloid(5, 20),
}
every_overlay = pytest.mark.parametrize("name", BUILDERS)

index = st.integers(0, 1 << 21)
op_st = st.one_of(
    st.tuples(st.sampled_from(("join", "leave", "fail", "rejoin")), index),
    st.tuples(st.just("stabilize"), st.just(0)),
)


def entries(node) -> tuple:
    """Every routing-table entry of ``node``, in a fixed order."""
    if isinstance(node, ChordNode):
        return (*node.fingers, None, *node.successor_list, None, node.predecessor)
    return (
        node.cubical_neighbor, *node.cyclic_neighbors,
        *node.inside_leaf, *node.outside_leaf,
    )


class Twins:
    """The overlay under test and its ``routing_cache=False`` twin — the
    full-sweep reference — driven through the same events."""

    def __init__(self, name: str) -> None:
        self.subject = BUILDERS[name](True)
        self.twin = BUILDERS[name](False)
        self.departed: list = []

    def apply(self, op: str, arg: int) -> None:
        subject = self.subject
        ids = subject.node_ids
        if op == "stabilize":
            self.sweep()
            return
        if op == "join":
            uid = subject.key_of(arg % subject.id_space_size)
        elif op == "rejoin":
            if not self.departed:
                return
            uid = self.departed.pop(arg % len(self.departed))
        else:
            if len(ids) < 2:
                return
            uid = ids[arg % len(ids)]
            self.departed.append(uid)
        if (uid in subject) == (op in ("join", "rejoin")):
            return
        for overlay in (subject, self.twin):
            getattr(overlay, "join" if op == "rejoin" else op)(uid)

    def sweep(self) -> None:
        """``stabilize_all`` on both, then the three checks on the subject."""
        subject, twin = self.subject, self.twin
        sent = []
        for overlay in (subject, twin):
            before = overlay.network.stats.maintenance_messages
            overlay.stabilize_all()
            sent.append(overlay.network.stats.maintenance_messages - before)
        assert sent[0] == sent[1]
        assert subject.network.stats == twin.network.stats
        for node in list(subject.nodes()):
            held = entries(node)
            subject._refresh_routing_state(node)
            fresh = entries(node)
            assert len(held) == len(fresh), node.uid
            for position, (kept, derived) in enumerate(zip(held, fresh)):
                assert kept is derived, (
                    f"node {node.uid}, entry {position}: kept "
                    f"{kept and kept.uid}, fresh {derived and derived.uid}"
                )
        subject.check_invariants()
        if isinstance(subject, SingleHopRing):
            assert subject.pending_events() == 0


@every_overlay
@given(ops=st.lists(op_st, max_size=40))
def test_sweep_matches_full_rederivation(name, ops):
    twins = Twins(name)
    for op, arg in ops:
        twins.apply(op, arg)
    twins.sweep()


@every_overlay
def test_seeded_storm(name):
    """400 events, a sweep after every ~5th: long enough that each marking
    rule is exercised on every overlay."""
    twins = Twins(name)
    rng = random.Random(17)
    for _ in range(400):
        op = rng.choice(("join", "leave", "fail", "rejoin", "rejoin", "stabilize"))
        twins.apply(op, rng.randrange(1 << 21))
    twins.sweep()


@pytest.mark.parametrize("name", ["cycloid-sparse", "cycloid-thin"])
def test_every_cycloid_cluster_emptied_and_recreated(name):
    twins = Twins(name)
    clusters: dict[int, list[CycloidId]] = {}
    for cid in twins.subject.node_ids:
        clusters.setdefault(cid.a, []).append(cid)
    for a, members in clusters.items():
        for cid in members:
            twins.apply("fail" if a % 2 else "leave", twins.subject.node_ids.index(cid))
        assert a not in twins.subject._clusters
        twins.sweep()
        while twins.departed:
            twins.apply("rejoin", 0)
            twins.sweep()


@pytest.mark.parametrize("name", ["chord-small", "singlehop-sparse"])
def test_ring_shrunk_to_a_handful_and_regrown(name):
    twins = Twins(name)
    rng = random.Random(3)
    while twins.subject.num_nodes > 3:
        twins.apply("leave", rng.randrange(1 << 21))
        if twins.subject.num_nodes % 2:
            twins.sweep()
    twins.sweep()
    while twins.departed:
        twins.apply("rejoin", rng.randrange(1 << 21))
        if twins.subject.num_nodes % 3 == 0:
            twins.sweep()
    twins.sweep()


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
