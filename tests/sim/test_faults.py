"""Tests for the fault-injection layer (plans, injector, delivery policy)."""

from __future__ import annotations

import pytest

from repro.overlay.chord import ChordRing
from repro.sim.faults import (
    DEFAULT_POLICY,
    NO_RETRY_POLICY,
    ArcPartition,
    FaultInjector,
    FaultPlan,
    LookupPolicy,
)
from repro.sim.network import SimulatedNetwork


class TestArcPartition:
    def test_contains_plain_arc(self):
        p = ArcPartition(10, 20, space=64)
        assert p.contains(10) and p.contains(15) and p.contains(20)
        assert not p.contains(9) and not p.contains(21)

    def test_contains_wrapping_arc(self):
        p = ArcPartition(60, 4, space=64)
        assert p.contains(62) and p.contains(0) and p.contains(4)
        assert not p.contains(5) and not p.contains(59)

    def test_ids_wrap_into_space(self):
        p = ArcPartition(10, 20, space=64)
        assert p.contains(64 + 15)

    def test_severs_only_across_the_cut(self):
        p = ArcPartition(10, 20, space=64)
        assert p.severs(15, 40) and p.severs(40, 15)
        assert not p.severs(12, 18)  # both inside
        assert not p.severs(30, 50)  # both outside

    def test_unknown_endpoints_never_sever(self):
        p = ArcPartition(10, 20, space=64)
        assert not p.severs(None, 40)
        assert not p.severs(15, None)

    def test_invalid_space_rejected(self):
        with pytest.raises(ValueError):
            ArcPartition(0, 1, space=0)


class TestFaultPlan:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=-0.1)


class TestFaultInjector:
    def test_null_plan_inactive(self):
        injector = FaultInjector(FaultPlan())
        assert not injector.active
        assert injector.delivered(1, 2)

    def test_active_means_can_affect_a_message(self):
        """Regression: only loss, an armed partition or a marked slow node
        make the injector active — an injector that can neither drop nor
        slow a message must leave every lookup on the fault-free path."""
        assert FaultInjector(FaultPlan(loss_rate=0.1)).active
        injector = FaultInjector(FaultPlan(seed=3))
        assert not injector.active
        arc = ArcPartition(0, 31, space=256)
        injector.arm_partition(arc)
        assert injector.active
        injector.disarm_partition(arc)
        assert not injector.active
        injector.mark_slow(5, 10.0)
        assert injector.active

    def test_inactive_injector_keeps_lookups_on_the_plain_path(self, monkeypatch):
        ring = ChordRing(6)
        ring.build_full()
        ring.network.faults = FaultInjector(FaultPlan(seed=3))

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("inactive injector routed through the fault path")

        monkeypatch.setattr(ring, "_lookup_faulty", forbidden)
        assert ring.lookup(ring.node(0), 40).owner.node_id == 40

    def test_loss_stream_reproducible(self):
        """Fresh injectors from one plan replay the identical drop pattern."""
        plan = FaultPlan(loss_rate=0.3, seed=42)
        a, b = FaultInjector(plan), FaultInjector(plan)
        assert [a.delivered(0, 1) for _ in range(200)] == [
            b.delivered(0, 1) for _ in range(200)
        ]

    def test_loss_rate_statistics(self):
        injector = FaultInjector(FaultPlan(loss_rate=0.25, seed=7))
        n = 4000
        delivered = sum(injector.delivered(0, 1) for _ in range(n))
        assert delivered / n == pytest.approx(0.75, abs=0.03)

    def test_partition_deterministic_and_healable(self):
        injector = FaultInjector(FaultPlan())
        assert not injector.active
        injector.arm_partition(ArcPartition(0, 31, space=256))
        assert injector.active
        assert not injector.delivered(10, 100)
        assert injector.delivered(10, 20)
        assert injector.delivered(100, 200)
        assert injector.disarm_partition(ArcPartition(0, 31, space=256))
        assert not injector.active
        assert injector.delivered(10, 100)

    def test_disarm_partition_heals_one_while_others_stay(self):
        first = ArcPartition(0, 31, space=256)
        second = ArcPartition(128, 159, space=256)
        injector = FaultInjector(FaultPlan())
        injector.arm_partition(first)
        injector.arm_partition(second)
        assert not injector.delivered(10, 100)
        assert not injector.delivered(140, 100)
        assert injector.disarm_partition(first)
        assert injector.delivered(10, 100)  # first split healed...
        assert not injector.delivered(140, 100)  # ...second still armed
        assert injector._partitions == [second]
        assert injector.active

    def test_disarm_unknown_partition_returns_false(self):
        injector = FaultInjector(FaultPlan())
        assert not injector.disarm_partition(ArcPartition(0, 1, space=8))


class TestLookupPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.max_retries == 2
        assert DEFAULT_POLICY.failover
        assert (DEFAULT_POLICY.timeout, DEFAULT_POLICY.backoff_factor) == (0.5, 2.0)

    def test_no_retry_policy_is_brittle(self):
        assert NO_RETRY_POLICY.max_retries == 0
        assert not NO_RETRY_POLICY.failover

    def test_backoff_schedule(self):
        policy = LookupPolicy(backoff_base=0.1)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            LookupPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            LookupPolicy(backoff_base=-0.1)


class TestDeliverFirst:
    """One message to the first reachable candidate, through a route's
    sender (``SimulatedNetwork.sender``): retries, failover, timeouts."""

    def _network(self, injector=None) -> SimulatedNetwork:
        return SimulatedNetwork(faults=injector)

    def _partitioned(self, partition: ArcPartition) -> SimulatedNetwork:
        injector = FaultInjector(FaultPlan())
        injector.arm_partition(partition)
        return self._network(injector)

    def test_no_faults_is_exact_identity(self):
        network = self._network()
        node, retries, skipped = network.sender(DEFAULT_POLICY)(0, [(1, "a"), (2, "b")])
        assert (node, retries, skipped) == ("a", 0, 0)
        assert network.stats == SimulatedNetwork().stats  # nothing counted

    def test_empty_candidates(self):
        assert self._network().sender(DEFAULT_POLICY)(0, []) == (None, 0, 0)

    def test_partition_forces_failover(self):
        network = self._partitioned(ArcPartition(100, 120, space=256))
        # First candidate is across the cut, second is on our side.
        send = network.sender(DEFAULT_POLICY)
        node, retries, skipped = send(10, [(110, "cut"), (50, "near")])
        assert node == "near"
        assert skipped == 1
        assert retries == DEFAULT_POLICY.max_retries  # burnt on the cut one
        assert network.stats.dropped == DEFAULT_POLICY.max_retries + 1
        assert network.stats.timeouts == DEFAULT_POLICY.max_retries + 1
        assert network.stats.routing_hops == 0  # hops belong to movement

    def test_all_candidates_unreachable(self):
        network = self._partitioned(ArcPartition(100, 120, space=256))
        send = network.sender(NO_RETRY_POLICY)
        node, retries, skipped = send(10, [(110, "a"), (115, "b")])
        assert node is None
        assert retries == 0
        assert skipped == 2
        assert network.stats.timeouts == 2

    def test_retry_absorbs_transient_loss(self):
        # Seed 8 is pinned so the first draw drops and the second delivers.
        plan = FaultPlan(loss_rate=0.5, seed=8)
        probe = FaultInjector(plan)
        assert [probe.delivered(0, 1) for _ in range(2)] == [False, True]
        network = self._network(FaultInjector(plan))
        node, retries, skipped = network.sender(DEFAULT_POLICY)(0, [(1, "a")])
        assert node == "a"
        assert retries == 1
        assert skipped == 0
        assert network.stats.retries == 1
