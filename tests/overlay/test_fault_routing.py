"""Fault-path routing: the one-pass hop step, zero-loss parity, honest
failure, walk truncation.

The contract under test: each overlay's ``_fault_step`` answers exactly
what the stop test and preference list it replaced answered (kept below as
the reference); with an *active but lossless* injector the fault path
routes exactly like the legacy path (Chord) or lands on the true owner
(Cycloid); with real loss the membership oracle is never consulted, every
unfinishable route surfaces as a ``complete=False`` result instead of an
exception, and cut-short range walks come back flagged ``truncated``.
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest

from repro.overlay.chord import ChordNode, ChordRing
from repro.overlay.cycloid import CycloidId, CycloidNode, CycloidOverlay
from repro.overlay.node import WalkResult
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim.faults import (
    DEFAULT_POLICY,
    NO_RETRY_POLICY,
    ArcPartition,
    FaultInjector,
    FaultPlan,
)


def partitioned(arc: ArcPartition) -> FaultInjector:
    injector = FaultInjector(FaultPlan())
    injector.arm_partition(arc)
    return injector


def empty_arc_injector() -> FaultInjector:
    """Active (a partition is armed) but lossless: the armed arc holds no
    node of any fixture overlay, so every message delivers, yet
    ``faults_active`` is True and the fault code path runs."""
    return partitioned(ArcPartition(1 << 40, 1 << 40, space=1 << 41))


def lossy_injector(rate: float, seed: int = 0) -> FaultInjector:
    return FaultInjector(FaultPlan(loss_rate=rate, seed=seed))


# ----------------------------------------------------------------------
# The reference: the two hooks a fault-path hop called before
# ``_fault_step`` fused them — the stop test, then the preference list.
# ----------------------------------------------------------------------
def chord_owns_local(ring: ChordRing, node: ChordNode, key: int) -> bool:
    pred = node.predecessor
    if pred is None:
        succ = node.successor
        return succ is None or succ is node
    return ring.space.in_interval(key, pred.node_id, node.node_id)


def chord_hop_candidates(ring: ChordRing, cur: ChordNode, key: int, policy) -> list:
    succ = cur.successor
    if (
        succ is not None
        and succ is not cur
        and ring.space.in_interval(key, cur.node_id, succ.node_id)
    ):
        return ring._successor_candidates(cur, policy)
    out: list = []
    seen = {cur.node_id}

    def add(candidate) -> None:
        if candidate is not None and candidate.alive and candidate.node_id not in seen:
            seen.add(candidate.node_id)
            out.append((candidate.node_id, candidate))

    fingers = [
        finger
        for finger in reversed(cur.fingers)
        if finger is not None
        and finger.alive
        and finger is not cur
        and ring.space.in_interval(
            finger.node_id, cur.node_id, key, closed_left=False, closed_right=False
        )
    ]
    if not policy.failover:
        add(fingers[0] if fingers else succ)
        return out
    for finger in fingers:
        add(finger)
    add(succ)
    return out


def singlehop_hop_candidates(ring: SingleHopRing, cur: ChordNode, key: int, policy) -> list:
    out = chord_hop_candidates(ring, cur, key, policy)
    target = ring._believed_owner_id(cur.node_id, key)
    node = ring._nodes.get(target)
    if node is not None and node is not cur and node.alive:
        out = [(target, node)] + [(i, n) for i, n in out if i != target]
    return out


def cycloid_owns_local(overlay: CycloidOverlay, node: CycloidNode, key: CycloidId) -> bool:
    tk, ta = key
    own = overlay._key_badness(node, tk, ta)
    return not any(overlay._key_badness(n, tk, ta) < own for n in node.table_entries())


def cycloid_hop_candidates(
    overlay: CycloidOverlay, cur: CycloidNode, key: CycloidId, policy
) -> list:
    tk, ta = key
    own = overlay._key_badness(cur, tk, ta)
    scored = [(overlay._key_badness(n, tk, ta), n) for n in cur.table_entries()]
    improving = sorted((e for e in scored if e[0] < own), key=itemgetter(0))
    if not policy.failover:
        improving = improving[:1]
    return [(overlay.linearize(n.cid), n) for _, n in improving]


def cycloid_slot_scan(
    overlay: CycloidOverlay, cur: CycloidNode, key: CycloidId, policy
) -> list | None:
    """The one-pass step before slot rows: the seven slots read and
    scored on every call (the memoised :meth:`CycloidOverlay._slot_row`
    must answer exactly this)."""
    tk, ta = key
    d = overlay.dimension
    size = overlay.cubical_space.size
    ck, ca = cur.uid
    gap = (ca - ta) % size
    lag = (ck - tk) % d
    own = (size - gap if 2 * gap > size else gap) * d + (d - lag if 2 * lag > d else lag)
    improving = []
    for node in (
        cur.cubical_neighbor, *cur.cyclic_neighbors, *cur.inside_leaf, *cur.outside_leaf
    ):
        if node is None or not node.alive:
            continue
        k, a = node.uid
        gap = (a - ta) % size
        lag = (k - tk) % d
        score = (size - gap if 2 * gap > size else gap) * d + (
            d - lag if 2 * lag > d else lag
        )
        if score < own:
            for entry in improving:
                if entry[2] is node:
                    break
            else:
                improving.append((score, a * d + k, node))
    if not improving:
        return None
    improving.sort(key=itemgetter(0))
    if not policy.failover:
        del improving[1:]
    return [(lin, node) for _, lin, node in improving]


def reference_step(overlay, cur, key, policy):
    """What one fault-path hop used: ``None`` if ``cur`` owns ``key``,
    else the preference list."""
    if isinstance(overlay, CycloidOverlay):
        owns, candidates = cycloid_owns_local, cycloid_hop_candidates
    else:
        owns = chord_owns_local
        candidates = (
            singlehop_hop_candidates if isinstance(overlay, SingleHopRing)
            else chord_hop_candidates
        )
    if owns(overlay, cur, key):
        return None
    return candidates(overlay, cur, key, policy)


#: Failover on, and off.
POLICIES = (DEFAULT_POLICY, NO_RETRY_POLICY)


def maim_chord(ring: ChordRing, seed: int) -> None:
    """Crash a few nodes without stabilizing, then stage the local states a
    fault-path hop must judge alone: dead, missing and self fingers; dead,
    missing, wrong and self predecessors; a dead first successor, an
    all-dead successor list and a self-successor."""
    r = random.Random(seed)
    corpses = []
    for uid in r.sample(list(ring.node_ids), max(2, ring.num_nodes // 8)):
        corpses.append(ring.node(uid))
        ring.fail(uid)
    live = list(ring.nodes())
    for node in r.sample(live, len(live) // 3):
        for level in r.sample(range(len(node.fingers)), 3):
            node.fingers[level] = r.choice([None, node, r.choice(corpses)])
    ring.invalidate_routing_caches()
    for node in r.sample(live, len(live) // 3):
        node.predecessor = r.choice([None, node, r.choice(corpses), r.choice(live)])
    first_dead, all_dead, own = r.sample(live, 3)
    first_dead.successor_list = [r.choice(corpses), *first_dead.successor_list]
    all_dead.successor_list = corpses[:2]
    own.successor_list = [own]


def maim_cycloid(overlay: CycloidOverlay, seed: int) -> None:
    """Crash a few nodes without stabilizing (dead table entries), then
    stage missing, self and repeated entries."""
    r = random.Random(seed)
    for cid in r.sample(list(overlay.node_ids), overlay.num_nodes // 8):
        overlay.fail(cid)
    live = list(overlay.nodes())
    for node in r.sample(live, len(live) // 3):
        other = r.choice(live)
        node.cubical_neighbor = r.choice([None, node, other])
        node.inside_leaf = (node.inside_leaf[0], r.choice([node.inside_leaf[0], other]))
        node.outside_leaf = (other, node.outside_leaf[1])
    overlay.invalidate_routing_caches()


def assert_steps_match(overlay, keys) -> tuple[int, int]:
    """Every (node, key, policy) step equals the reference's; returns how
    many steps claimed ownership and how many offered failover."""
    owned = failovers = 0
    for policy in POLICIES:
        for node in list(overlay.nodes()):
            for key in keys:
                step = overlay._fault_step(node, key, policy)
                assert step == reference_step(overlay, node, key, policy), (node, key)
                owned += step is None
                failovers += step is not None and len(step) > 1
    return owned, failovers


def chord_keys(ring: ChordRing) -> range:
    return range(ring.space.size)


def cycloid_keys(overlay: CycloidOverlay) -> list[CycloidId]:
    d, clusters = overlay.dimension, overlay.cubical_space.size
    keys = [CycloidId(k, a) for a in range(clusters) for k in range(d)]
    return keys + [CycloidId(d + 1, clusters + 3), CycloidId(-1, -2)]


class TestFaultStepMatchesReference:
    """``_fault_step`` is the replaced stop test + preference list, hop for
    hop: the same owns verdict and the same candidates (ids, nodes, order)
    with failover on and off, on stabilized and on maimed local state."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ChordRing(6),
            lambda: ChordRing(6, routing_cache=False),
            lambda: ReCordOverlay(6, fanout=4, seed=7),
            lambda: SingleHopRing(6),
        ],
        ids=["chord", "chord-uncached", "record", "singlehop"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_chord_family(self, make, seed):
        ring = make()
        ring.build(random.Random(seed).sample(range(64), 40))
        assert_steps_match(ring, chord_keys(ring))
        if isinstance(ring, SingleHopRing):
            # Unlearned joins and departures: the believed owner is stale.
            for uid in random.Random(seed + 10).sample(range(64), 12):
                if uid in ring:
                    ring.leave(uid)
                else:
                    ring.join(uid)
            assert ring.pending_events()
        maim_chord(ring, seed)
        owned, failovers = assert_steps_match(ring, chord_keys(ring))
        assert owned and failovers

    @pytest.mark.parametrize("seed", range(3))
    def test_cycloid(self, seed):
        overlay = CycloidOverlay(4)
        all_ids = [CycloidId(k, a) for a in range(16) for k in range(4)]
        overlay.build(all_ids if seed == 0 else random.Random(seed).sample(all_ids, 40))
        assert_steps_match(overlay, cycloid_keys(overlay))
        maim_cycloid(overlay, seed)
        owned, failovers = assert_steps_match(overlay, cycloid_keys(overlay))
        assert owned and failovers


class TestSlotRowCoherence:
    """Cycloid's memoised slot rows never outlive the slots they copy:
    after every event that rewrites a routing table, each ``(node, key)``
    step equals the per-call seven-slot scan.  Rows are filled before each
    event, so a refresh that forgets to drop one is caught."""

    @staticmethod
    def _check(overlay: CycloidOverlay) -> None:
        keys = cycloid_keys(overlay)
        for policy in POLICIES:
            for node in list(overlay.nodes()):
                for key in keys:
                    assert overlay._fault_step(node, key, policy) == cycloid_slot_scan(
                        overlay, node, key, policy
                    ), (node.uid, key)
        assert overlay._slot_rows, "the steps must run on memoised rows"

    @staticmethod
    def _tables(overlay: CycloidOverlay) -> list:
        """Every node's seven slots, by identity."""
        return [
            tuple(map(id, (n.cubical_neighbor, *n.cyclic_neighbors, *n.inside_leaf, *n.outside_leaf)))
            for n in overlay.nodes()
        ]

    def test_rows_follow_every_table_rewrite(self):
        r = random.Random(21)
        overlay = CycloidOverlay(4)
        overlay.build(r.sample([CycloidId(k, a) for a in range(16) for k in range(4)], 44))
        check = self._check
        check(overlay)
        absent = [CycloidId(k, a) for a in range(16) for k in range(4) if CycloidId(k, a) not in overlay]
        overlay.join(absent[0])
        check(overlay)
        overlay.leave(r.choice(overlay.node_ids))
        check(overlay)
        for _ in range(3):
            overlay.fail(r.choice(overlay.node_ids))
        check(overlay)  # the far links of a departure stay stale ...
        before = self._tables(overlay)
        overlay.stabilize_all()  # ... until the sweep re-derives them
        assert self._tables(overlay) != before
        check(overlay)
        for _ in range(3):
            overlay.fail(r.choice(overlay.node_ids))
        check(overlay)
        before = self._tables(overlay)
        for node in list(overlay.nodes()):
            overlay.refresh_routing_step(node)
        assert self._tables(overlay) != before
        check(overlay)
        # Leaf sets staged out of date by hand: the stabilize steps alone
        # (no invalidation) must repair tables and rows alike.
        for node in r.sample(list(overlay.nodes()), 12):
            node.inside_leaf = node.inside_leaf[::-1]
            node.outside_leaf = (None, None)
        overlay.invalidate_routing_caches()
        check(overlay)
        before = self._tables(overlay)
        for node in list(overlay.nodes()):
            overlay.stabilize_step(node)
        assert self._tables(overlay) != before
        check(overlay)

    def test_hand_staged_tables_after_invalidation(self):
        overlay = CycloidOverlay(4)
        overlay.build_full()
        self._check(overlay)
        maim_cycloid(overlay, 5)  # stages by hand, then invalidates
        self._check(overlay)

    def test_uncached_overlay_memoises_nothing(self):
        overlay = CycloidOverlay(4, routing_cache=False)
        overlay.build_full()
        node = overlay.node(CycloidId(0, 0))
        assert overlay._fault_step(node, CycloidId(2, 9), DEFAULT_POLICY)
        assert not overlay._slot_rows


class TestChordParity:
    """The fault path at zero loss reproduces the legacy route exactly."""

    def test_lookup_identical_to_legacy(self, full_ring):
        r = random.Random(1)
        cases = [
            (full_ring.node(r.randrange(64)), r.randrange(64))
            for _ in range(80)
        ]
        full_ring.network.faults = empty_arc_injector()
        faulty = [full_ring.lookup(s, k) for s, k in cases]
        full_ring.network.faults = None
        legacy = [full_ring.lookup(s, k) for s, k in cases]
        for f, l in zip(faulty, legacy):
            assert f.owner is l.owner
            assert f.hops == l.hops
            assert f.path == l.path
            assert f.complete and f.retries == 0 and not f.timed_out

    def test_lookup_identical_on_sparse_ring(self, sparse_ring):
        r = random.Random(2)
        cases = [
            (sparse_ring.node(r.choice(sparse_ring.node_ids)), r.randrange(128))
            for _ in range(80)
        ]
        sparse_ring.network.faults = empty_arc_injector()
        faulty = [sparse_ring.lookup(s, k) for s, k in cases]
        sparse_ring.network.faults = None
        legacy = [sparse_ring.lookup(s, k) for s, k in cases]
        for f, l in zip(faulty, legacy):
            assert (f.owner, f.hops, f.path) == (l.owner, l.hops, l.path)

    def test_walk_identical_to_legacy(self, full_ring):
        full_ring.network.faults = empty_arc_injector()
        faulty = full_ring.walk_arc(full_ring.node(10), 10, 30)
        full_ring.network.faults = None
        legacy = full_ring.walk_arc(full_ring.node(10), 10, 30)
        assert list(faulty) == list(legacy)
        assert isinstance(faulty, WalkResult)
        assert not faulty.truncated

    def test_null_plan_keeps_legacy_path_and_counters(self, full_ring):
        """A null-plan injector is a strict identity: same results, and the
        fault counters never move."""
        full_ring.network.faults = FaultInjector(FaultPlan())
        assert not full_ring.faults_active
        result = full_ring.lookup(full_ring.node(0), 40)
        assert result.complete
        stats = full_ring.network.stats
        assert stats.dropped == 0 and stats.retries == 0
        assert stats.timeouts == 0
        full_ring.network.faults = None


class TestCycloidParity:
    def test_greedy_fault_route_finds_true_owner(self, full_overlay):
        r = random.Random(3)
        full_overlay.network.faults = empty_arc_injector()
        try:
            for _ in range(80):
                start = full_overlay.node(
                    CycloidId(r.randrange(4), r.randrange(16))
                )
                target = CycloidId(r.randrange(4), r.randrange(16))
                result = full_overlay.lookup(start, target)
                assert result.complete and not result.timed_out
                assert result.owner is full_overlay.closest_node(target)
        finally:
            full_overlay.network.faults = None

    def test_sparse_overlay_reaches_equally_close_owner(self, sparse_overlay):
        """On a sparse overlay ties exist; the believed owner must be
        exactly as close to the key as the oracle's choice."""
        r = random.Random(4)
        sparse_overlay.network.faults = empty_arc_injector()
        try:
            for _ in range(80):
                start = sparse_overlay.node(r.choice(sparse_overlay.node_ids))
                target = CycloidId(r.randrange(4), r.randrange(16))
                result = sparse_overlay.lookup(start, target)
                assert result.complete
                tk, ta = target.k % 4, target.a % 16
                oracle = sparse_overlay.closest_node(target)
                assert sparse_overlay._key_badness(
                    result.owner, tk, ta
                ) == sparse_overlay._key_badness(oracle, tk, ta)
        finally:
            sparse_overlay.network.faults = None

    def test_walk_identical_to_legacy(self, full_overlay):
        start = full_overlay.node(CycloidId(0, 5))
        full_overlay.network.faults = empty_arc_injector()
        faulty = full_overlay.walk_cluster(start, 0, 3)
        full_overlay.network.faults = None
        legacy = full_overlay.walk_cluster(start, 0, 3)
        assert list(faulty) == list(legacy)
        assert not faulty.truncated


class TestOracleIndependence:
    """With faults active the membership oracle must never be consulted."""

    def test_chord_fault_lookup_never_calls_oracle(self, full_ring, monkeypatch):
        def forbidden(key):  # pragma: no cover - must not run
            raise AssertionError("oracle consulted on the fault path")

        full_ring.network.faults = lossy_injector(0.3, seed=11)
        monkeypatch.setattr(full_ring, "successor_of", forbidden)
        try:
            r = random.Random(5)
            for _ in range(40):
                start = full_ring.node(r.randrange(64))
                result = full_ring.lookup(start, r.randrange(64))
                assert isinstance(result.complete, bool)  # never raises
        finally:
            full_ring.network.faults = None

    def test_cycloid_fault_lookup_never_calls_oracle(
        self, full_overlay, monkeypatch
    ):
        def forbidden(target):  # pragma: no cover - must not run
            raise AssertionError("oracle consulted on the fault path")

        full_overlay.network.faults = lossy_injector(0.3, seed=12)
        monkeypatch.setattr(full_overlay, "closest_node", forbidden)
        try:
            r = random.Random(6)
            for _ in range(40):
                start = full_overlay.node(
                    CycloidId(r.randrange(4), r.randrange(16))
                )
                target = CycloidId(r.randrange(4), r.randrange(16))
                result = full_overlay.lookup(start, target)
                assert isinstance(result.complete, bool)
        finally:
            full_overlay.network.faults = None


class TestHonestFailure:
    def test_partition_makes_lookup_fail_not_raise(self):
        ring = ChordRing(6)
        ring.build_full()
        ring.network.faults = partitioned(ArcPartition(32, 63, space=64))
        result = ring.lookup(ring.node(0), 40)
        assert not result.complete
        assert result.timed_out
        assert result.owner is not None  # last node reached, not the owner
        assert ring.network.stats.dropped > 0
        # Same-side keys still resolve completely.
        ok = ring.lookup(ring.node(0), 10)
        assert ok.complete and ok.owner.node_id == 10

    def test_retries_absorb_moderate_loss(self):
        ring = ChordRing(6)
        ring.build_full()
        ring.network.faults = lossy_injector(0.1, seed=13)
        r = random.Random(7)
        results = [
            ring.lookup(ring.node(r.randrange(64)), r.randrange(64))
            for _ in range(50)
        ]
        # Retry + failover masks 10% loss: every lookup still completes...
        assert all(res.complete for res in results)
        # ...but not for free: retransmissions happened and were counted.
        assert sum(res.retries for res in results) > 0
        assert ring.network.stats.retries > 0

    def test_no_retry_policy_fails_honestly_under_loss(self):
        ring = ChordRing(6)
        ring.build_full()
        ring.lookup_policy = NO_RETRY_POLICY
        ring.network.faults = lossy_injector(0.3, seed=14)
        r = random.Random(8)
        results = [
            ring.lookup(ring.node(r.randrange(64)), r.randrange(64))
            for _ in range(100)
        ]
        failed = [res for res in results if not res.complete]
        assert failed, "30% loss with no retries must kill some lookups"
        assert all(res.timed_out for res in failed)
        assert all(res.retries == 0 for res in results)
        assert ring.network.stats.timeouts > 0

    def test_cycloid_partition_fails_honestly(self):
        overlay = CycloidOverlay(4)
        overlay.build_full()
        # Cut off clusters 8..15 (linearized ids 32..63).
        overlay.network.faults = partitioned(ArcPartition(32, 63, space=64))
        result = overlay.lookup(overlay.node(CycloidId(0, 0)), CycloidId(2, 10))
        assert not result.complete
        assert result.timed_out


class TestWalkTruncation:
    def test_chord_walk_truncates_at_partition(self):
        ring = ChordRing(6)
        ring.build_full()
        ring.network.faults = partitioned(ArcPartition(32, 63, space=64))
        walk = ring.walk_arc(ring.node(20), 20, 40)
        assert walk.truncated
        assert walk.reason == "unreachable successor chain"
        assert walk.timed_out
        assert [n.node_id for n in walk] == list(range(20, 32))

    def test_cycloid_walk_truncates_at_partition(self):
        overlay = CycloidOverlay(4)
        overlay.build_full()
        # Sever cyclic positions 2..3 of cluster 0 (linearized ids 2..3).
        overlay.network.faults = partitioned(ArcPartition(2, 3, space=64))
        walk = overlay.walk_cluster(overlay.node(CycloidId(0, 0)), 0, 3)
        assert walk.truncated
        assert walk.reason == "unreachable cluster successor"
        assert walk.timed_out
        assert [n.cid for n in walk] == [CycloidId(0, 0), CycloidId(1, 0)]

    def test_walk_result_is_a_list(self):
        walk = WalkResult(["a", "b"])
        walk.truncated, walk.reason, walk.retries = True, "test", 2
        assert list(walk) == ["a", "b"]
        assert len(walk) == 2
        assert walk.truncated
        assert walk.retries == 2
        assert not WalkResult().truncated


class TestDegradedResultAggregation:
    def test_query_result_defaults_complete(self):
        from repro.core.resource import QueryResult

        result = QueryResult(matches=(), hops=3, visited_nodes=1)
        assert result.complete and result.retries == 0 and not result.timed_out

    def test_multi_query_join_is_under_approximation(self):
        from repro.core.resource import MultiQueryResult, QueryResult

        ok = QueryResult(matches=(), hops=2, visited_nodes=1, retries=1)
        bad = QueryResult(
            matches=(), hops=5, visited_nodes=0,
            complete=False, retries=3, timed_out=True,
        )
        joined = MultiQueryResult(
            providers=frozenset(), sub_results=(ok, bad)
        )
        assert not joined.complete
        assert joined.retries == 4
        all_ok = MultiQueryResult(providers=frozenset(), sub_results=(ok, ok))
        assert all_ok.complete
