"""Cached routing must be observably identical to uncached routing.

The overlays memoise *derived* routing state per node: Chord's finger
rows and Cycloid's slot rows.  That every row stays a fresh
derivation through churn, sweeps and writes, every route equal to a
``routing_cache=False`` twin's, is checked by the membership state machine
(``tests/properties/test_membership_machine.py``).  This file holds that
the memos engage at all, and the finger row: Chord's finger step reads a
per-node row (``_cpf_cache``) of the live, de-duplicated fingers with
their clockwise distances, one bisect per hop.  ``TestFingerRow`` holds it
against the seed's reversed table scan, written out here as the
reference, through a storm that also runs the per-node maintenance steps
and on hand-staged tables no figure reaches.
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict
from functools import partial

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim.faults import DEFAULT_POLICY


def _route_everywhere(overlay) -> None:
    """One lookup from every node: fills the memos a route reads."""
    size = overlay.id_space_size
    for node in list(overlay.nodes()):
        overlay.lookup(node, overlay.key_of((overlay.uid_of(node) + size // 2) % size))


#: Every ring tier built on the Chord machinery shares its routing caches.
_ring_tiers = pytest.mark.parametrize(
    "ring_class",
    [ChordRing, SingleHopRing, partial(ReCordOverlay, fanout=4, seed=7)],
    ids=["chord", "singlehop", "record"],
)


def _twin_rings(ring_class, bits: int, node_ids) -> tuple:
    """The same overlay twice: with the routing caches, and without."""
    cached = ring_class(bits, routing_cache=True)
    cached.build(node_ids)
    plain = ring_class(bits, routing_cache=False)
    plain.build(node_ids)
    return cached, plain


class TestChordCacheEquivalence:
    @_ring_tiers
    def test_caches_actually_engage(self, ring_class):
        cached, plain = _twin_rings(ring_class, 7, random.Random(11).sample(range(128), 48))
        _route_everywhere(cached)
        _route_everywhere(plain)
        # Single-hop jumps to the believed owner: no finger scan to memoise.
        assert bool(cached._cpf_cache) == (ring_class is not SingleHopRing)
        assert not plain._cpf_cache


class TestCycloidCacheEquivalence:
    def test_caches_actually_engage(self):
        all_ids = [CycloidId(k, a) for a in range(16) for k in range(4)]
        cached, plain = _twin_rings(CycloidOverlay, 4, random.Random(5).sample(all_ids, 48))
        for overlay in (cached, plain):
            for node in list(overlay.nodes()):
                overlay._fault_step(node, CycloidId(0, 0), DEFAULT_POLICY)
        assert cached._slot_rows
        assert not plain._slot_rows


# ----------------------------------------------------------------------
# The finger row (``ChordRing._cpf_cache``) against the reference scan
# ----------------------------------------------------------------------
def _reference_route(ring: ChordRing, start, key: int) -> tuple:
    """The seed's greedy loop, straight from the definitions: the
    ``(pred, node]`` stop test, the first live successor, and for the
    finger step a scan of the table from its top for the first live
    finger inside ``(node, key)``.  Reads no cache and counts nothing."""
    in_interval = ring.space.in_interval
    cur, hops, path = start, 0, [start.uid]
    while hops < 8 * ring.bits + ring.num_nodes:
        pred = cur.predecessor
        if pred is None or not pred.alive:
            if ring.successor_of(key) is cur:
                break
        elif in_interval(key, pred.uid, cur.uid):
            break
        succ = cur.successor
        if succ is None or succ is cur:
            break
        nxt = succ
        if not in_interval(key, cur.uid, succ.uid):
            for finger in reversed(cur.fingers):
                if (
                    finger is not None
                    and finger.alive
                    and finger.uid != cur.uid
                    and in_interval(finger.uid, cur.uid, key, closed_right=False)
                ):
                    nxt = finger
                    break
        cur = nxt
        hops += 1
        path.append(cur.uid)
    return cur.uid, hops, tuple(path)


def _routes(ring: ChordRing, pairs) -> list[tuple]:
    """``(owner, hops, path)`` of every ``(start, key)``; on a finger-routed
    tier each is first held against the reference scan."""
    routes = []
    for start, key in pairs:
        result = ring.lookup(start, key)
        route = (result.owner.uid, result.hops, tuple(result.path))
        if not isinstance(ring, SingleHopRing):
            assert route == _reference_route(ring, start, key), (start.uid, key)
        routes.append(route)
    return routes


def _maintenance_storm(ring: ChordRing, seed: int) -> list:
    """A seeded interleaving of every entry point that edits routing state
    — the three membership events, the two per-node maintenance steps and
    the sweep — with a batch of lookups after each: some from random
    nodes, some from the node the step touched."""
    rng = random.Random(seed)
    size = ring.space.size
    departed: list[int] = []
    transcript = []
    for step in range(60):
        ids = ring.node_ids
        touched = ring.node(ids[rng.randrange(len(ids))])
        roll = rng.randrange(6)
        if roll == 0 and len(ids) > 8:
            ring.leave(touched.uid)
        elif roll == 1 and len(ids) > 8:
            ring.fail(touched.uid)
            departed.append(touched.uid)
        elif roll == 2:
            free = [i for i in range(size) if i not in ring]
            touched = ring.join(
                departed.pop() if departed else free[rng.randrange(len(free))]
            )
        elif roll == 3:
            ring.stabilize_step(touched)
        elif roll == 4:
            ring.refresh_routing_step(touched)
        else:
            ring.stabilize_all()
        ids = ring.node_ids
        pairs = [
            (ring.node(ids[rng.randrange(len(ids))]), rng.randrange(size))
            for _ in range(12)
        ]
        if touched.alive:
            pairs += [(touched, rng.randrange(size)) for _ in range(6)]
        transcript.append((step, _routes(ring, pairs), asdict(ring.network.stats)))
    return transcript


class TestFingerRow:
    @_ring_tiers
    def test_maintenance_storm_twins_agree(self, ring_class):
        node_ids = random.Random(3).sample(range(64), 24)
        cached, plain = _twin_rings(ring_class, 6, node_ids)
        with_rows = _maintenance_storm(cached, seed=29)
        without = _maintenance_storm(plain, seed=29)
        for row_step, plain_step in zip(with_rows, without):
            assert row_step == plain_step, row_step[0]
        assert not plain._cpf_cache

    def _check_everywhere(self, rings, starts=None) -> None:
        """Every ``(start, key)`` agrees with the reference scan on both
        twins, and the twins with each other, message counts included."""
        observed = []
        for ring in rings:
            nodes = list(ring.nodes()) if starts is None else starts(ring)
            pairs = [(node, key) for node in nodes for key in range(ring.space.size)]
            observed.append((_routes(ring, pairs), asdict(ring.network.stats)))
        assert observed[0] == observed[1]

    @pytest.mark.parametrize(
        "ring_class",
        [ChordRing, partial(ReCordOverlay, fanout=4, seed=7)],
        ids=["chord", "record"],
    )
    def test_staged_tables(self, ring_class):
        node_ids = random.Random(3).sample(range(64), 24)
        rings = _twin_rings(ring_class, 6, node_ids)
        self._check_everywhere(rings)

        # Fingers written out of distance order: the first finger the scan
        # meets inside (node, key) is no longer the furthest one, so no
        # bisect answers for it and the row build refuses the table.
        for ring in rings:
            tables = {node: list(node.fingers) for node in ring.nodes()}
            for node in ring.nodes():
                random.Random(node.uid).shuffle(node.fingers)
            ring.invalidate_routing_caches()
            with pytest.raises(ValueError, match="must ascend"):
                for node in ring.nodes():
                    ring._finger_row(node)
            for node, table in tables.items():
                node.fingers = table
            ring.invalidate_routing_caches()

        # Dead, missing and self fingers: each only drops out of a row.
        doomed = sorted(node_ids)[::5]
        corpses = {ring: [ring.node(uid) for uid in doomed] for ring in rings}
        for ring in rings:
            for uid in doomed:
                ring.fail(uid)
            for node in ring.nodes():
                rng = random.Random(node.uid)
                for level in rng.sample(range(len(node.fingers)), 3):
                    node.fingers[level] = rng.choice([None, node, *corpses[ring]])
            ring.invalidate_routing_caches()
        self._check_everywhere(rings)

        # predecessor / successor_list are live reads: no flush after these.
        for ring in rings:
            nodes = list(ring.nodes())
            nodes[1].predecessor = None  # the oracle stop test
            nodes[2].predecessor = corpses[ring][0]
            nodes[3].successor_list = list(corpses[ring])  # nowhere to go
            nodes[4].successor_list = [corpses[ring][1], *nodes[4].successor_list]
            nodes[5].successor_list = [nodes[5]]  # believes it is alone
        self._check_everywhere(rings)

        # key == node id past the stop test (span == size): a departed
        # requester that lost its predecessor asks for its own old id.
        for ring in rings:
            for corpse in corpses[ring]:
                corpse.predecessor = None
        self._check_everywhere(rings, starts=corpses.get)

    @pytest.mark.parametrize("node_ids", ([9], [9, 40]), ids=["one-node", "two-nodes"])
    def test_tiny_rings(self, node_ids):
        self._check_everywhere(_twin_rings(ChordRing, 6, node_ids))

    def test_row_memory_budget(self):
        """At paper scale a row is 360 B (11 distances in an
        ``array('q')``, 11 nodes in a tuple); two lists of boxed ints
        would be ~670 B, +0.65 MiB of ``peak_rss_mb`` (bound: 5%) for each
        of the three Chord-backed services."""
        ring = ChordRing(11)
        ring.build_full()
        size = ring.space.size
        for node in ring.nodes():
            ring.lookup(node, (node.uid + size // 2 + 1) % size)
        rows = ring._cpf_cache
        assert len(rows) == ring.num_nodes
        held = sum(
            sys.getsizeof(row) + sys.getsizeof(row[0]) + sys.getsizeof(row[1])
            for row in rows.values()
        )
        assert held / len(rows) <= 400
