"""Tests for the LORM service: ID mapping, placement, queries, Prop 3.1."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lorm import LormService
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.overlay.cycloid import CycloidId
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


@pytest.fixture(scope="module")
def schema() -> AttributeSchema:
    return AttributeSchema.synthetic(6)


@pytest.fixture()
def service(schema) -> LormService:
    return LormService.build_full(dimension=4, schema=schema, seed=3)


def _resc_id(service, attribute, value):
    """The key LORM stores ``(attribute, value)`` under: its rescID
    ``(ℋ(value), H(attribute))`` (Section III)."""
    ((_, key),) = service._placements(ResourceInfo(attribute, value, "probe"))
    return key


class TestIdMapping:
    def test_resc_id_structure(self, service):
        rid = _resc_id(service, "cpu-mhz", 2500.0)
        assert 0 <= rid.k < 4
        assert 0 <= rid.a < 16

    def test_same_attribute_same_cluster(self, service):
        """All information of one attribute maps to one cluster (Section III)."""
        spec = service.schema.spec("cpu-mhz")
        clusters = {
            _resc_id(service, "cpu-mhz", v).a
            for v in np.linspace(spec.lo, spec.hi, 50)
        }
        assert len(clusters) == 1

    def test_value_hash_monotone_within_cluster(self, service):
        spec = service.schema.spec("cpu-mhz")
        ks = [
            _resc_id(service, "cpu-mhz", float(v)).k
            for v in np.linspace(spec.lo, spec.hi, 100)
        ]
        assert ks == sorted(ks)

    def test_different_attributes_usually_different_clusters(self, service):
        clusters = {service.attr_key(name) for name in service.schema.names}
        assert len(clusters) > 1


class TestRegistration:
    def test_register_places_at_root(self, service):
        info = ResourceInfo("cpu-mhz", 2500.0, "node-a")
        service.register(info)
        rid = _resc_id(service, "cpu-mhz", 2500.0)
        owner = service.overlay.closest_node(rid)
        assert info in owner.items_in("lorm")

    def test_unrouted_register_identical_placement(self, schema):
        routed = LormService.build_full(4, schema, seed=1)
        direct = LormService.build_full(4, schema, seed=1)
        infos = [
            ResourceInfo("cpu-mhz", v, f"p{i}")
            for i, v in enumerate((200.0, 900.0, 4500.0))
        ]
        for info in infos:
            routed.register(info, routed=True)
            direct.register(info, routed=False)
        assert routed.directory_sizes() == direct.directory_sizes()

    def test_register_hops_recorded(self, service):
        hops = service.register(ResourceInfo("cpu-mhz", 800.0, "p"))
        assert hops >= 0
        assert service.metrics.samples("register.hops") == [float(hops)]


class TestPointQueries:
    def test_finds_exact_value(self, service):
        service.register(ResourceInfo("cpu-mhz", 1234.0, "prov"))
        result = service.query(Query(AttributeConstraint.point("cpu-mhz", 1234.0)))
        assert result.providers == {"prov"}
        assert result.visited_nodes == 1

    def test_misses_absent_value(self, service):
        service.register(ResourceInfo("cpu-mhz", 1234.0, "prov"))
        result = service.query(Query(AttributeConstraint.point("cpu-mhz", 4321.0)))
        assert result.matches == ()

    def test_attribute_isolation(self, service):
        """Same value under a different attribute must not match."""
        service.register(ResourceInfo("cpu-mhz", 500.0, "p1"))
        result = service.query(Query(AttributeConstraint.point("num-cores", 500.0)))
        assert result.matches == ()


class TestRangeQueries:
    def test_range_query_complete(self, service):
        """Proposition 3.1: the walk between the two roots finds every
        value in range."""
        spec = service.schema.spec("cpu-mhz")
        values = np.linspace(spec.lo, spec.hi, 25)
        for i, v in enumerate(values):
            service.register(ResourceInfo("cpu-mhz", float(v), f"p{i}"))
        lo, hi = float(values[5]), float(values[18])
        result = service.query(Query(AttributeConstraint.between("cpu-mhz", lo, hi)))
        expected = {f"p{i}" for i in range(5, 19)}
        assert result.providers == expected

    def test_range_visits_bounded_by_cluster(self, service):
        result = service.query(
            Query(AttributeConstraint.at_least("cpu-mhz", 100.0))
        )
        assert result.visited_nodes <= service.overlay.dimension

    def test_half_open_range(self, service):
        service.register(ResourceInfo("free-memory-mb", 4096.0, "big"))
        service.register(ResourceInfo("free-memory-mb", 64.0, "small"))
        result = service.query(
            Query(AttributeConstraint.at_least("free-memory-mb", 1024.0))
        )
        assert result.providers == {"big"}

    def test_collect_matches_off_keeps_accounting(self, service):
        service.register(ResourceInfo("cpu-mhz", 900.0, "p"))
        service.collect_matches = False
        try:
            q = Query(AttributeConstraint.between("cpu-mhz", 100.0, 5000.0))
            result = service.query(q)
            assert result.matches == ()
            assert result.visited_nodes >= 1
        finally:
            service.collect_matches = True


class TestMultiQuery:
    def test_join_on_provider(self, service):
        service.register(ResourceInfo("cpu-mhz", 3000.0, "both"))
        service.register(ResourceInfo("disk-gb", 500.0, "both"))
        service.register(ResourceInfo("cpu-mhz", 3000.0, "cpu-only"))
        from repro.core.resource import MultiAttributeQuery

        mq = MultiAttributeQuery(
            (
                AttributeConstraint.at_least("cpu-mhz", 2000.0),
                AttributeConstraint.at_least("disk-gb", 100.0),
            )
        )
        result = service.multi_query(mq)
        assert result.providers == {"both"}
        assert result.total_hops == sum(r.hops for r in result.sub_results)

    def test_equivalence_with_bruteforce(self, schema):
        service = LormService.build_full(4, schema, seed=11)
        wl = GridWorkload(schema, infos_per_attribute=25, seed=13)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        rng = np.random.default_rng(17)
        for _ in range(25):
            mq = wl.sample_multi_query(3, QueryKind.RANGE, rng)
            assert service.multi_query(mq).providers == (
                wl.matching_providers_bruteforce(mq)
            )


class TestStructureMetrics:
    def test_constant_outlinks(self, service):
        assert max(service.outlink_counts()) <= 7

    def test_directory_sizes_sum_to_pieces(self, service):
        service.register(ResourceInfo("cpu-mhz", 100.0, "a"))
        service.register(ResourceInfo("os", 5.0, "b"))
        assert service.total_info_pieces() == 2

    def test_num_nodes(self, service):
        assert service.num_nodes() == 64


class TestChurnHooks:
    def test_leave_then_rejoin_round_trip(self, schema):
        service = LormService.build_full(3, schema, seed=5)
        n0 = service.num_nodes()
        assert service.churn_leave()
        assert service.num_nodes() == n0 - 1
        assert service.churn_join()
        assert service.num_nodes() == n0

    def test_join_without_departures_is_noop(self, schema):
        service = LormService.build_full(3, schema, seed=5)
        assert not service.churn_join()

    def test_queries_survive_churn(self, schema):
        service = LormService.build_full(4, schema, seed=6)
        wl = GridWorkload(schema, infos_per_attribute=20, seed=7)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        for _ in range(15):
            service.churn_leave()
        service.stabilize()
        rng = np.random.default_rng(23)
        for _ in range(10):
            mq = wl.sample_multi_query(2, QueryKind.RANGE, rng)
            assert service.multi_query(mq).providers == (
                wl.matching_providers_bruteforce(mq)
            )
