"""Cached routing must be observably identical to uncached routing.

The overlays memoise *derived* routing state (Chord's ``successor_of``
and per-node live-finger lists, Cycloid's key-owner resolution) per
membership epoch.  These tests drive a cached and an uncached twin
through identical seeded churn storms — joins, graceful leaves, crash
failures, stabilization sweeps — probing owners, hop counts, full routed
paths and range walks after every event, and require byte-identical
transcripts.  A divergence means a cache outlived its epoch.

The twins also pin the incremental stabilization sweep against the full
one: the cached overlay's ``stabilize_all`` re-derives only its stale set,
the uncached twin's sweeps everything, and the storm sweeps directly after
every rejoin of a crashed id (a new node object under an id the stale
entries still name) as well as every fifth event.

Chord's finger step reads a per-node *finger row* (``_cpf_cache``): the
live, de-duplicated fingers with their clockwise distances, one bisect per
hop.  ``TestFingerRow`` holds it against the seed's reversed table scan,
written out here as the reference, through a storm that also runs the
per-node maintenance steps and on hand-staged tables no figure reaches.

The replica sets are memoised the same way (``Overlay._holders``); their
twins are services, because the memo's readers are the write paths —
``register`` / ``deregister`` between membership and repair events, with
every node's directory, every withdrawal's count and the message counts
compared after each step.
"""

from __future__ import annotations

import random
import sys
from functools import partial

import pytest

from repro.baselines.maan import MaanService
from repro.core.lorm import LormService
from repro.core.resource import ResourceInfo
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim.durability import successor_replication
from repro.sim.invariants import directory_layout
from repro.workloads.attributes import AttributeSchema

_STORM_EVENTS = 40
_PROBES_PER_EVENT = 6


def _chord_probe(ring: ChordRing, rng: random.Random) -> list:
    """Owners, hops, paths and walks — everything a service observes."""
    size = ring.space.size
    transcript = []
    for _ in range(_PROBES_PER_EVENT):
        ids = ring.node_ids
        start = ring.node(ids[rng.randrange(len(ids))])
        key = rng.randrange(size)
        result = ring.lookup(start, key)
        transcript.append(
            (
                "lookup",
                result.owner.node_id,
                result.hops,
                tuple(result.path),
                result.complete,
            )
        )
        from_key = rng.randrange(size)
        until_key = (from_key + rng.randrange(1, max(2, size // 4))) % size
        walk = ring.walk_arc(ring.successor_of(from_key), from_key, until_key)
        transcript.append(
            ("walk", tuple(node.node_id for node in walk), walk.truncated)
        )
    return transcript


def _chord_storm(ring: ChordRing, seed: int) -> list:
    """A deterministic churn storm; returns the full probe transcript."""
    rng = random.Random(seed)
    size = ring.space.size
    departed: list[int] = []
    transcript = _chord_probe(ring, rng)
    for step in range(_STORM_EVENTS):
        roll = rng.random()
        ids = ring.node_ids
        if roll < 0.25 and len(ids) > 8:
            ring.leave(ids[rng.randrange(len(ids))])
        elif roll < 0.5 and len(ids) > 8:
            victim = ids[rng.randrange(len(ids))]
            ring.fail(victim)
            departed.append(victim)
        elif departed:
            ring.join(departed.pop(rng.randrange(len(departed))))
            ring.stabilize_all()
        else:
            newcomer = rng.randrange(size)
            if newcomer in set(ids):
                continue
            ring.join(newcomer)
        if step % 5 == 4:
            ring.stabilize_all()
        transcript.extend(_chord_probe(ring, rng))
    return transcript


def _cycloid_probe(overlay: CycloidOverlay, rng: random.Random) -> list:
    d = overlay.dimension
    num_clusters = overlay.cubical_space.size
    transcript = []
    for _ in range(_PROBES_PER_EVENT):
        ids = overlay.node_ids
        start = overlay.node(ids[rng.randrange(len(ids))])
        target = CycloidId(rng.randrange(d), rng.randrange(num_clusters))
        transcript.append(("owner", overlay.closest_node(target).cid))
        result = overlay.lookup(start, target)
        transcript.append(
            (
                "lookup",
                result.owner.cid,
                result.hops,
                tuple(result.path),
                result.complete,
            )
        )
        k_from, k_to = rng.randrange(d), rng.randrange(d)
        anchor = overlay.closest_node(CycloidId(k_from, target.a))
        walk = overlay.walk_cluster(anchor, k_from, k_to)
        transcript.append(
            ("walk", tuple(node.cid for node in walk), walk.truncated)
        )
    return transcript


def _cycloid_storm(overlay: CycloidOverlay, seed: int) -> list:
    rng = random.Random(seed)
    d = overlay.dimension
    num_clusters = overlay.cubical_space.size
    departed: list[CycloidId] = []
    transcript = _cycloid_probe(overlay, rng)
    for step in range(_STORM_EVENTS):
        roll = rng.random()
        ids = overlay.node_ids
        if roll < 0.25 and len(ids) > 8:
            victim = ids[rng.randrange(len(ids))]
            overlay.leave(victim)
            departed.append(victim)
        elif roll < 0.5 and len(ids) > 8:
            victim = ids[rng.randrange(len(ids))]
            overlay.fail(victim)
            departed.append(victim)
        elif departed:
            overlay.join(departed.pop(rng.randrange(len(departed))))
            overlay.stabilize_all()
        else:
            cid = CycloidId(rng.randrange(d), rng.randrange(num_clusters))
            if cid in set(overlay.node_ids):
                continue
            overlay.join(cid)
        if step % 5 == 4:
            overlay.stabilize_all()
        transcript.extend(_cycloid_probe(overlay, rng))
    return transcript


#: Every ring tier built on the Chord machinery shares its routing caches.
_ring_tiers = pytest.mark.parametrize(
    "ring_class",
    [ChordRing, SingleHopRing, partial(ReCordOverlay, fanout=4, seed=7)],
    ids=["chord", "singlehop", "record"],
)


def _twin_rings(ring_class, bits: int, node_ids) -> tuple[ChordRing, ChordRing]:
    """The same ring twice: with the routing caches, and without."""
    cached = ring_class(bits, routing_cache=True)
    cached.build(node_ids)
    plain = ring_class(bits, routing_cache=False)
    plain.build(node_ids)
    return cached, plain


class TestChordCacheEquivalence:
    def _rings(self, ring_class=ChordRing) -> tuple[ChordRing, ChordRing]:
        return _twin_rings(ring_class, 7, random.Random(11).sample(range(128), 48))

    @_ring_tiers
    def test_storm_transcripts_identical(self, ring_class):
        cached, plain = self._rings(ring_class)
        assert _chord_storm(cached, seed=23) == _chord_storm(plain, seed=23)

    @_ring_tiers
    def test_caches_actually_engage(self, ring_class):
        cached, plain = self._rings(ring_class)
        _chord_storm(cached, seed=23)
        _chord_storm(plain, seed=23)
        assert cached._succ_cache
        # Single-hop jumps to the believed owner: no finger scan to memoise.
        assert bool(cached._cpf_cache) == (ring_class is not SingleHopRing)
        assert not plain._succ_cache and not plain._cpf_cache

    def test_invalidation_on_membership_change(self):
        cached, _ = self._rings()
        size = cached.space.size
        for key in range(size):
            cached.successor_of(key)
        joiner = next(i for i in range(size) if i not in cached._nodes)
        # The memo currently answers ``joiner``'s key with its old owner;
        # after the join it must answer with the joiner itself (the join
        # flushes the epoch, then repopulates while refreshing routing).
        assert cached.successor_of(joiner).node_id != joiner
        cached.join(joiner)
        assert cached.successor_of(joiner).node_id == joiner


class TestCycloidCacheEquivalence:
    def _overlays(self) -> tuple[CycloidOverlay, CycloidOverlay]:
        all_ids = [CycloidId(k, a) for a in range(16) for k in range(4)]
        node_ids = random.Random(5).sample(all_ids, 48)
        cached = CycloidOverlay(4, routing_cache=True)
        cached.build(node_ids)
        plain = CycloidOverlay(4, routing_cache=False)
        plain.build(node_ids)
        return cached, plain

    def test_storm_transcripts_identical(self):
        cached, plain = self._overlays()
        assert _cycloid_storm(cached, seed=31) == _cycloid_storm(plain, seed=31)

    def test_caches_actually_engage(self):
        cached, plain = self._overlays()
        _cycloid_storm(cached, seed=31)
        _cycloid_storm(plain, seed=31)
        assert cached._owner_cache
        assert not plain._owner_cache

    def test_invalidation_on_membership_change(self):
        cached, _ = self._overlays()
        for a in range(16):
            for k in range(4):
                cached.closest_node(CycloidId(k, a))
        live = set(cached.node_ids)
        joiner = next(
            CycloidId(k, a)
            for a in range(16)
            for k in range(4)
            if CycloidId(k, a) not in live
        )
        # The memo holds the joiner's key under its old owner; the join
        # must flush it so the key re-resolves to the joiner itself.
        assert cached.closest_node(joiner).cid != joiner
        cached.join(joiner)
        assert cached.closest_node(joiner).cid == joiner


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
        transcript.append((step, _routes(ring, pairs), ring.network.stats.as_dict()))
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
            observed.append((_routes(ring, pairs), ring.network.stats.as_dict()))
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


# ----------------------------------------------------------------------
# The holders memo (``Overlay._holders``): replica sets per membership epoch
# ----------------------------------------------------------------------
_SCHEMA = AttributeSchema.synthetic(6)


def _chord_service(replication: int, routing_cache: bool) -> MaanService:
    ring = ChordRing(7, durability=successor_replication(replication), routing_cache=routing_cache)
    ring.build(random.Random(11).sample(range(128), 48))
    return MaanService(ring, _SCHEMA, seed=3)


def _cycloid_service(replication: int, routing_cache: bool) -> LormService:
    overlay = CycloidOverlay(
        4, durability=successor_replication(replication), routing_cache=routing_cache
    )
    all_ids = [CycloidId(k, a) for a in range(16) for k in range(4)]
    overlay.build(random.Random(5).sample(all_ids, 48))
    return LormService(overlay, _SCHEMA, seed=3)


def _write_storm(service, seed: int) -> list:
    """A seeded interleaving of every membership and repair entry point
    with registrations and withdrawals in between; the transcript is what
    a caller can observe after each step."""
    rng = random.Random(seed)
    overlay = service.overlay
    specs = _SCHEMA.specs
    live: list[ResourceInfo] = []
    departed: list = []
    transcript = []
    for step in range(60):
        for _ in range(3):
            spec = specs[rng.randrange(len(specs))]
            info = ResourceInfo(
                spec.name, rng.uniform(spec.lo, spec.hi), f"p{rng.randrange(12)}"
            )
            service.register(info, routed=False)
            live.append(info)
        removed = [
            service.deregister(live.pop(rng.randrange(len(live))))
            for _ in range(min(2, len(live)))
        ]
        # Withdrawing what is not there touches the same holders.
        removed.append(service.deregister(ResourceInfo(specs[0].name, specs[0].lo, "nobody")))
        roll = rng.random()
        ids = overlay.node_ids
        if roll < 0.2 and len(ids) > 8:
            victim = ids[rng.randrange(len(ids))]
            overlay.leave(victim)
            departed.append(victim)
        elif roll < 0.4 and len(ids) > 8:
            victim = ids[rng.randrange(len(ids))]
            overlay.fail(victim)
            departed.append(victim)
        elif roll < 0.6 and departed:
            overlay.join(departed.pop(rng.randrange(len(departed))))
        elif roll < 0.8:
            overlay.stabilize_all()
        else:
            overlay.repair_replication()
        transcript.append(
            (step, removed, directory_layout(overlay), overlay.network.stats.as_dict())
        )
    return transcript


class TestHoldersMemo:
    @pytest.mark.parametrize("replication", (1, 2, 3))
    @pytest.mark.parametrize("build", (_chord_service, _cycloid_service))
    def test_write_storm_transcripts_identical(self, build, replication):
        cached = _write_storm(build(replication, True), seed=41)
        plain = _write_storm(build(replication, False), seed=41)
        for with_memo, without in zip(cached, plain):
            assert with_memo == without, with_memo[0]

    @pytest.mark.parametrize("build", (_chord_service, _cycloid_service))
    def test_memo_engages_only_with_the_routing_cache(self, build):
        info = ResourceInfo(_SCHEMA.specs[0].name, _SCHEMA.specs[0].lo, "p0")
        cached, plain = build(2, True), build(2, False)
        for service in (cached, plain):
            service.register(info, routed=False)
        assert cached.overlay._holders
        assert not plain.overlay._holders

    @pytest.mark.parametrize("build", (_chord_service, _cycloid_service))
    def test_every_membership_entry_point_empties_it(self, build):
        overlay = build(2, True).overlay
        key_ids = range(0, overlay.id_space_size, 3)

        def fill() -> None:
            for key_id in key_ids:
                overlay.replica_set_of(key_id)
            assert len(overlay._holders) == len(key_ids)

        ids = overlay.node_ids
        fill()
        overlay.leave(ids[0])
        assert not overlay._holders
        fill()
        overlay.fail(ids[1])
        assert not overlay._holders
        fill()
        overlay.join(ids[0])
        assert not overlay._holders
        fill()
        overlay.build(ids)
        assert not overlay._holders

    @pytest.mark.parametrize("build", (_chord_service, _cycloid_service))
    def test_a_caller_cannot_edit_the_memo(self, build):
        overlay = build(3, True).overlay
        holders = overlay.replica_set_of(5)
        assert isinstance(holders, tuple) and len(holders) == 3
        assert overlay.replica_set_of(5) is holders
        assert list(holders) == overlay.durability.holders(overlay, 5)
