"""The :class:`repro.overlay.base.Overlay` contract, for every overlay class.

``ChordRing``, ``ReCordOverlay``, ``SingleHopRing`` and ``CycloidOverlay``
share one skeleton: the same ``lookup`` dispatch, traced wrapper,
fault-path route, walk-span wrapper, storage, replica repair and depart
path — literally the same function objects — and only differ in the
geometry hooks underneath.  These tests pin that, and the behaviour the
skeleton promises, on all four.
"""

from __future__ import annotations

import copy
import gc
import random
import re

import pytest

from repro.obs.spans import QueryTracer
from repro.overlay.base import Overlay
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim.durability import successor_replication
from repro.sim.faults import FaultInjector, FaultPlan, LookupPolicy
from repro.sim.invariants import InvariantViolation, check_replica_placement

OVERLAY_CLASSES = (ChordRing, ReCordOverlay, SingleHopRing, CycloidOverlay)

#: Every method the skeleton owns; each must resolve to ``Overlay``'s one
#: definition on every class ...
SKELETON = (
    "num_nodes", "node", "__contains__", "node_ids", "faults_active", "lookup",
    "_lookup_traced",
    "_lookup_faulty", "walk", "_truncate_walk", "replica_set_of",
    "native_holders", "store", "routed_store", "discard",
    "repair_replication", "repair_replication_step", "leave", "fail",
    "_depart", "_refresh_routing_state", "stabilize_step",
    "refresh_routing_step", "stabilize_all", "outlink_counts",
    "directory_sizes",
)
#: ... except where the single-hop tier changes the *accounting*: it
#: disseminates membership events through the stabilize machinery.
PERMITTED_OVERRIDES = {
    SingleHopRing: {"_refresh_routing_state", "stabilize_step", "stabilize_all"},
}


def make_overlay(cls, *, full: bool = False, **kwargs):
    """A 64-position overlay of ``cls``: full, or 40 scattered members."""
    rng = random.Random(7)
    if cls is CycloidOverlay:
        overlay = cls(4, **kwargs)
        ids = [CycloidId(k, a) for a in range(16) for k in range(4)]
    else:
        overlay = cls(6, **kwargs)
        ids = list(range(64))
    overlay.build(ids if full else rng.sample(ids, 40))
    return overlay


def native_key(overlay, rng: random.Random):
    """A uniformly random key in ``overlay``'s native key type."""
    return overlay.key_of(rng.randrange(overlay.id_space_size))


def walk_bounds(overlay, start):
    """``(lo, hi)`` of a walk that leaves ``start`` but stays short."""
    if isinstance(overlay, CycloidOverlay):
        return start.k, (start.k + 2) % overlay.dimension
    return start.node_id, (start.node_id + 20) % overlay.id_space_size


@pytest.mark.parametrize("cls", OVERLAY_CLASSES)
class TestOneSkeleton:
    def test_skeleton_methods_resolve_to_overlay(self, cls):
        permitted = PERMITTED_OVERRIDES.get(cls, set())
        for name in SKELETON:
            shared = getattr(cls, name) is getattr(Overlay, name)
            assert shared != (name in permitted), name

    def test_walk_is_published_under_the_overlays_own_name(self, cls):
        name = "walk_cluster" if cls is CycloidOverlay else "walk_arc"
        assert getattr(cls, name) is Overlay.walk
        # The service engine resolves the walk through this name, per call.
        assert cls.walk_name == name


@pytest.mark.parametrize("cls", OVERLAY_CLASSES)
class TestMembershipEpoch:
    def test_node_ids_is_derived_once_per_epoch(self, cls):
        overlay = make_overlay(cls)
        ids = overlay.node_ids
        assert overlay.node_ids is ids  # entry-node selection reads it per query
        assert list(ids) == [node.uid for node in overlay.nodes()]
        rng = random.Random(5)
        for change in ("leave", "join", "fail", "join", "build"):
            before = overlay.node_ids
            if change == "join":
                overlay.join(victim)
            elif change == "build":
                overlay.build(before[::2])
            else:
                victim = rng.choice(before)
                getattr(overlay, change)(victim)
            after = overlay.node_ids
            assert after is not before and after is overlay.node_ids
            # ... patched across the event or derived afresh, the same tuple:
            assert after == tuple(overlay._ordered_ids()), change
            assert list(after) == [node.uid for node in overlay.nodes()], change
            assert len(after) == overlay.num_nodes == len(set(after))
            assert all(node_id in overlay for node_id in after)
            assert (victim in overlay) == (victim in after), change

    def test_fault_free_hops_are_counted_once_each(self, cls):
        overlay = make_overlay(cls)
        rng = random.Random(13)
        nodes = list(overlay.nodes())
        total = 0
        for _ in range(60):
            stats = overlay.network.stats
            before = (stats.routing_hops, stats.messages)
            result = overlay.lookup(rng.choice(nodes), native_key(overlay, rng))
            assert stats.routing_hops - before[0] == result.hops == len(result.path) - 1
            assert stats.messages - before[1] == result.hops
            total += result.hops
        assert total > 0


@pytest.mark.parametrize("cls", OVERLAY_CLASSES)
class TestTracedEqualsUntraced:
    def test_lookup(self, cls):
        overlay = make_overlay(cls)
        rng = random.Random(11)
        nodes = list(overlay.nodes())
        for _ in range(40):
            start, key = rng.choice(nodes), native_key(overlay, rng)
            plain = overlay.lookup(start, key)
            overlay.tracer = tracer = QueryTracer()
            traced = overlay.lookup(start, key)
            overlay.tracer = None
            assert traced == plain
            (trace,) = tracer.traces
            assert trace.hop_count() == traced.hops == len(traced.path) - 1

    def test_lookup_under_loss(self, cls):
        policy = LookupPolicy(max_retries=3)
        for seed in range(6):
            results = []
            for traced in (False, True):
                overlay = make_overlay(cls, full=True)
                overlay.network.faults = FaultInjector(
                    FaultPlan(loss_rate=0.3, seed=seed)
                )
                tracer = QueryTracer() if traced else None
                overlay.tracer = tracer
                overlay.lookup_policy = policy
                nodes = list(overlay.nodes())
                results.append(overlay.lookup(nodes[0], overlay.key_of(47)))
            plain, traced_result = results
            # Same seeded drops, same route: compare by value (the two
            # overlays hold distinct node objects).
            assert traced_result.path == plain.path
            assert traced_result.retries == plain.retries
            assert traced_result.complete == plain.complete
            (trace,) = tracer.traces
            assert trace.hop_count() == traced_result.hops
            assert len(trace.events_of("retry")) == traced_result.retries

    def test_walk(self, cls):
        overlay = make_overlay(cls)
        for start in list(overlay.nodes())[::7]:
            lo, hi = walk_bounds(overlay, start)
            plain = overlay.walk(start, lo, hi)
            overlay.tracer = tracer = QueryTracer()
            traced = overlay.walk(start, lo, hi)
            overlay.tracer = None
            assert traced == plain
            assert traced.truncated == plain.truncated
            (trace,) = tracer.traces
            assert trace.hop_count() == len(traced) - 1


@pytest.mark.parametrize("cls", OVERLAY_CLASSES)
class TestStorageAndRepair:
    def test_store_places_on_the_replica_set(self, cls):
        overlay = make_overlay(cls, durability=successor_replication(3))
        key = native_key(overlay, random.Random(3))
        owner = overlay.store("ns", key, "item")
        key_id = overlay.key_id(key)
        replicas = overlay.replica_set_of(overlay.key_id(key))
        assert owner is replicas[0] is overlay.owner_of(key_id)
        assert replicas == overlay.replica_set_of(key_id)
        for holder in replicas:
            assert holder.items_at("ns", key_id) == ["item"]
        assert overlay.discard("ns", key, "item") == len(replicas)
        assert sum(n.directory_size("ns") for n in overlay.nodes()) == 0

    def test_routed_store_matches_oracle_placement(self, cls):
        oracle, routed = (make_overlay(cls, durability=successor_replication(2)) for _ in range(2))
        rng = random.Random(5)
        for i in range(20):
            key = native_key(oracle, rng)
            oracle.store("ns", key, i)
            result = routed.routed_store(next(iter(routed.nodes())), "ns", key, i)
            assert result.owner.uid == oracle.owner_of(oracle.key_id(key)).uid
        assert [n.directory_size("ns") for n in routed.nodes()] == [
            n.directory_size("ns") for n in oracle.nodes()
        ]

    def test_repair_leaves_every_bucket_exactly_on_its_replica_set(self, cls):
        # Full clusters, so a Cycloid crash leaves its cluster's sets short.
        overlay = make_overlay(cls, full=True, durability=successor_replication(3))
        rng = random.Random(9)
        for i in range(60):
            overlay.store("ns", native_key(overlay, rng), f"v{i}")
        for _ in range(6):
            overlay.fail(rng.choice(overlay.node_ids))
            overlay.leave(rng.choice(overlay.node_ids))
        with pytest.raises(InvariantViolation, match="replica drift"):
            check_replica_placement(overlay)
        assert overlay.repair_replication() > 0
        check_replica_placement(overlay)
        # A second pass finds nothing left to move into place.
        assert overlay.repair_replication_step().copies_moved == 0
        overlay.check_invariants()


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def load(overlay, count: int, seen: list, fail: bool = False):
    """``count`` entries under distinct keys, noting in ``seen`` the
    collector's state as each is drawn; then raise if ``fail``."""
    for i in range(count):
        seen.append(gc.isenabled())
        yield "ns", overlay.key_of(i), i
    if fail:
        raise RuntimeError("stream broke")


class TestStoreAllCollector:
    """``store_all`` runs a load with the cyclic collector paused and
    leaves it as it found it."""

    def test_enabled_stays_enabled(self, collector):
        overlay, seen = make_overlay(ChordRing), []
        gc.enable()
        overlay.store_all(load(overlay, 5, seen))
        assert seen == [False] * 5
        assert gc.isenabled()

    def test_a_callers_pause_stays_in_force(self, collector):
        overlay = make_overlay(ChordRing)
        gc.disable()
        overlay.store_all(load(overlay, 5, []))
        assert not gc.isenabled()

    def test_a_stream_that_raises_reenables_and_counts_the_stored_copies(self, collector):
        overlay = make_overlay(ChordRing, durability=successor_replication(2))
        stats = overlay.network.stats
        before = stats.maintenance_messages
        gc.enable()
        with pytest.raises(RuntimeError, match="stream broke"):
            overlay.store_all(load(overlay, 3, [], fail=True))
        assert gc.isenabled()
        assert sum(n.directory_size("ns") for n in overlay.nodes()) == 6
        assert stats.maintenance_messages - before == 3


@pytest.mark.parametrize("cls", OVERLAY_CLASSES)
@pytest.mark.parametrize("removal", ["leave", "fail"])
class TestDepartValidation:
    """``leave`` / ``fail`` normalise ids exactly as ``join`` does and
    refuse non-members before touching any state."""

    @staticmethod
    def vacant_and_alias(overlay):
        """A vacant normalised id plus an un-normalised spelling of it."""
        if isinstance(overlay, CycloidOverlay):
            vacant = next(
                CycloidId(k, a) for a in range(16) for k in range(4)
                if CycloidId(k, a) not in overlay.node_ids
            )
            return vacant, CycloidId(vacant.k + 4, vacant.a + 16)
        vacant = next(i for i in range(64) if i not in overlay.node_ids)
        return vacant, vacant + 64

    def test_unnormalised_id_departs_like_it_joined(self, cls, removal):
        overlay = make_overlay(cls)
        vacant, alias = self.vacant_and_alias(overlay)
        assert overlay.join(alias).uid == vacant
        getattr(overlay, removal)(alias)
        assert vacant not in overlay.node_ids
        assert overlay.num_nodes == 40
        overlay.stabilize_all()
        overlay.check_invariants()

    def test_absent_id_is_refused_before_any_state_is_touched(self, cls, removal):
        overlay = make_overlay(cls)
        overlay.store("ns", native_key(overlay, random.Random(1)), "x")
        vacant, _ = self.vacant_and_alias(overlay)

        def state():
            return (
                list(overlay.node_ids),
                overlay.directory_sizes(),
                overlay.network.stats.snapshot(),
                copy.deepcopy(getattr(overlay, "_pending", None)),
            )

        before = state()
        with pytest.raises(
            ValueError, match=re.escape(str(vacant)) + r".*population 40"
        ):
            getattr(overlay, removal)(vacant)
        assert state() == before
        overlay.check_invariants()
