"""Tests for lease-tracked periodic reporting."""

from __future__ import annotations

import pytest

from repro.baselines.maan import MaanService
from repro.baselines.mercury import MercuryService
from repro.baselines.sword import SwordService
from repro.core.lorm import LormService
from repro.core.refresh import RefreshManager
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.sim.durability import successor_replication
from repro.sim.engine import Simulator
from repro.workloads.attributes import AttributeSchema

SCHEMA = AttributeSchema.synthetic(5)


def make_service(kind: str = "lorm"):
    if kind == "lorm":
        return LormService.build_full(4, SCHEMA, seed=1)
    if kind == "mercury":
        return MercuryService.build_full(6, SCHEMA, seed=1)
    if kind == "sword":
        return SwordService.build_full(6, SCHEMA, seed=1)
    return MaanService.build_full(6, SCHEMA, seed=1)


def cpu_query() -> Query:
    return Query(AttributeConstraint.at_least("cpu-mhz", 100.0))


class TestDeregister:
    @pytest.mark.parametrize("kind", ["lorm", "mercury", "sword", "maan"])
    def test_register_then_deregister_round_trip(self, kind):
        service = make_service(kind)
        info = ResourceInfo("cpu-mhz", 2000.0, "p1")
        service.register(info, routed=False)
        assert service.query(cpu_query()).providers == {"p1"}
        removed = service.deregister(info)
        assert removed >= 1
        assert service.query(cpu_query()).providers == frozenset()
        assert service.total_info_pieces() == 0

    def test_deregister_absent_is_zero(self):
        service = make_service()
        assert service.deregister(ResourceInfo("cpu-mhz", 1.0, "ghost")) == 0

    def test_deregister_with_replication_removes_all_copies(self):
        service = LormService.build_full(4, SCHEMA, seed=2, durability=successor_replication(2))
        info = ResourceInfo("cpu-mhz", 2000.0, "p1")
        service.register(info, routed=False)
        assert service.total_info_pieces() == 2
        assert service.deregister(info) == 2
        assert service.total_info_pieces() == 0


class TestLeases:
    def test_report_registers_once(self):
        manager = RefreshManager(make_service(), ttl=10.0)
        info = ResourceInfo("cpu-mhz", 1500.0, "p1")
        manager.report(info, now=0.0)
        manager.report(info, now=5.0)  # renewal, same value
        assert manager.renewals == 1
        assert manager.service.total_info_pieces() == 1

    def test_renewal_extends_lease(self):
        manager = RefreshManager(make_service(), ttl=10.0)
        info = ResourceInfo("cpu-mhz", 1500.0, "p1")
        manager.report(info, now=0.0)
        manager.report(info, now=8.0)
        assert manager.expire(now=12.0) == 0  # renewed at 8 -> expires 18
        assert manager.expire(now=18.0) == 1

    def test_changed_value_replaces_stale_report(self):
        service = make_service()
        manager = RefreshManager(service, ttl=10.0)
        manager.report(ResourceInfo("cpu-mhz", 3000.0, "p1"), now=0.0)
        manager.report(ResourceInfo("cpu-mhz", 900.0, "p1"), now=1.0)
        assert manager.renewals == 0  # a changed value is not a renewal
        assert service.total_info_pieces() == 1
        result = service.query(Query(AttributeConstraint.at_least("cpu-mhz", 2000.0)))
        assert result.providers == frozenset()  # old 3000 report is gone

    def test_expire_withdraws_from_directories(self):
        service = make_service()
        manager = RefreshManager(service, ttl=5.0)
        manager.report(ResourceInfo("cpu-mhz", 1500.0, "p1"), now=0.0)
        assert manager.expire(now=5.0) == 1
        assert service.query(cpu_query()).providers == frozenset()
        assert manager.expire(now=100.0) == 0

    def test_invalid_ttl(self):
        with pytest.raises(ValueError):
            RefreshManager(make_service(), ttl=0.0)


class TestSimIntegration:
    def test_periodic_expiry_in_simulation(self):
        service = make_service()
        manager = RefreshManager(service, ttl=10.0)
        sim = Simulator()
        manager.install_periodic_expiry(sim, period=5.0, horizon=60.0)

        # p1 reports once and goes silent; p2 keeps renewing.
        manager.report(ResourceInfo("cpu-mhz", 1500.0, "p1"), now=0.0)

        def renew(t: float) -> None:
            manager.report(ResourceInfo("cpu-mhz", 2500.0, "p2"), now=t)

        for t in range(0, 55, 5):
            sim.schedule_at(float(t), lambda t=float(t): renew(t))
        sim.run()

        assert service.query(cpu_query()).providers == {"p2"}
        assert manager.expirations == 1

    def test_dead_provider_ages_out_after_crash(self):
        """Combine crashes with leases: a crashed provider's reports are
        not renewed, so its stale availability disappears after the TTL
        even though nobody deregistered explicitly."""
        service = LormService.build_full(4, SCHEMA, seed=3, durability=successor_replication(2))
        manager = RefreshManager(service, ttl=10.0)
        manager.report(ResourceInfo("cpu-mhz", 2222.0, "dead-box"), now=0.0)
        # (the provider machine crashes; its directory entries survive on
        # replicas, but its renewals stop)
        assert manager.expire(now=10.0) == 1
        assert service.query(cpu_query()).providers == frozenset()
