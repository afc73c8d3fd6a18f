"""Tests for Mercury's record/pointer optimisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mercury import MercuryService
from repro.baselines.mercury_pointers import (
    PointerMercuryService,
    RecordEnvelope,
    RecordPointer,
)
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.sim.loadstats import LoadStats
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


@pytest.fixture(scope="module")
def schema() -> AttributeSchema:
    return AttributeSchema.synthetic(5)


def record_for(wl: GridWorkload, provider_idx: int) -> list[ResourceInfo]:
    return [
        ResourceInfo(spec.name, wl.provider_value(spec.name, provider_idx),
                     wl.provider_name(provider_idx))
        for spec in wl.schema
    ]


@pytest.fixture()
def loaded(schema):
    service = PointerMercuryService.build_full(6, schema, seed=8)
    wl = GridWorkload(schema, infos_per_attribute=30, seed=9)
    for p in range(wl.num_providers):
        service.register_record(record_for(wl, p), routed=False)
    return service, wl


class TestRegistration:
    def test_one_envelope_per_provider(self, loaded):
        service, wl = loaded
        assert service.stored_record_copies() == wl.num_providers

    def test_pointers_for_remaining_attributes(self, loaded):
        service, wl = loaded
        assert service.stored_pointers() == wl.num_providers * (len(wl.schema) - 1)

    def test_record_needs_single_provider(self, schema):
        service = PointerMercuryService.build_full(6, schema, seed=1)
        with pytest.raises(ValueError):
            service.register_record(
                [ResourceInfo("cpu-mhz", 1.0, "a"), ResourceInfo("disk-gb", 1.0, "b")]
            )

    def test_empty_record_rejected(self, schema):
        service = PointerMercuryService.build_full(6, schema, seed=1)
        with pytest.raises(ValueError):
            service.register_record([])

    def test_single_info_register_wraps_record(self, schema):
        service = PointerMercuryService.build_full(6, schema, seed=1)
        service.register(ResourceInfo("cpu-mhz", 2000.0, "p"), routed=False)
        assert service.stored_record_copies() == 1
        assert service.stored_pointers() == 0


class TestQueries:
    def test_home_attribute_query(self, loaded):
        service, wl = loaded
        value = wl.provider_value(wl.schema.names[0], 3)
        q = Query(AttributeConstraint.point(wl.schema.names[0], value))
        assert wl.provider_name(3) in service.query(q).providers

    def test_pointer_attribute_query_chases(self, loaded):
        service, wl = loaded
        attr = wl.schema.names[2]  # non-home attribute -> pointers
        value = wl.provider_value(attr, 5)
        q = Query(AttributeConstraint.point(attr, value))
        result = service.query(q)
        assert wl.provider_name(5) in result.providers

    def test_answers_match_plain_mercury(self, schema):
        pointered = PointerMercuryService.build_full(6, schema, seed=21)
        plain = MercuryService.build_full(6, schema, seed=21)
        wl = GridWorkload(schema, infos_per_attribute=25, seed=22)
        for p in range(wl.num_providers):
            pointered.register_record(record_for(wl, p), routed=False)
        for info in wl.resource_infos():
            plain.register(info, routed=False)
        rng = np.random.default_rng(23)
        for _ in range(25):
            mq = wl.sample_multi_query(3, QueryKind.RANGE, rng)
            assert pointered.multi_query(mq).providers == (
                plain.multi_query(mq).providers
            ) == wl.matching_providers_bruteforce(mq)

    def test_pointer_queries_cost_extra_hops(self, loaded, schema):
        """Chasing pointers trades hops for storage: a non-home range query
        costs at least as many hops as the same query in plain Mercury."""
        service, wl = loaded
        plain = MercuryService.build_full(6, schema, seed=8)
        for info in wl.resource_infos():
            plain.register(info, routed=False)
        attr = wl.schema.names[1]
        spec = wl.schema.spec(attr)
        q = Query(AttributeConstraint.between(
            attr, spec.distribution.ppf(0.2), spec.distribution.ppf(0.6)
        ))
        start_p = service.ring.node(service.ring.node_ids[0])
        start_m = plain.ring.node(plain.ring.node_ids[0])
        assert service.query(q, start_p).hops >= plain.query(q, start_m).hops


    def test_attached_load_stats_see_serve_and_route_load(self, loaded):
        """Regression: ``attach_load_stats`` used to succeed and then read
        zero — the pointer-chase override never fed the sink."""
        service, wl = loaded
        stats = LoadStats()
        service.attach_load_stats(stats)
        attr = wl.schema.names[1]  # non-home attribute -> pointers are chased
        spec = wl.schema.spec(attr)
        q = Query(AttributeConstraint.between(
            attr, spec.distribution.ppf(0.2), spec.distribution.ppf(0.6)
        ))
        result = service.query(q, service.ring.node(service.ring.node_ids[0]))
        window = stats.take_window()
        # Every walked hub node served, plus one home node per chased match.
        assert window.total_serves == result.visited_nodes + len(result.matches)
        assert window.by_attribute == {attr: window.total_serves}
        assert sum(window.routes.values()) > 0
        service.attach_load_stats(None)
        service.query(q)
        assert stats.take_window().total_serves == 0


class TestStorageSavings:
    def test_total_pieces_reduced_vs_plain(self, loaded, schema):
        """Plain Mercury stores m full copies per provider; pointers store
        1 full copy + (m-1) pointers."""
        service, wl = loaded
        plain = MercuryService.build_full(6, schema, seed=8)
        for info in wl.resource_infos():
            plain.register(info, routed=False)
        # Count *record copies* (heavyweight items).
        assert service.stored_record_copies() == wl.num_providers
        assert plain.total_info_pieces() == wl.num_providers * len(schema)

    def test_dataclasses_exposed(self):
        env = RecordEnvelope("p", (ResourceInfo("a", 1.0, "p"),))
        assert env.value_of("a") == 1.0
        assert env.value_of("zzz") is None
        ptr = RecordPointer("p", 1.0, "a", 3)
        assert ptr.home_key == 3


class TestDeregistration:
    def test_deregister_record_removes_envelope_and_pointers(self, schema):
        service = PointerMercuryService.build_full(6, schema, seed=31)
        wl = GridWorkload(schema, infos_per_attribute=10, seed=32)
        record = record_for(wl, 4)
        service.register_record(record, routed=False)
        assert service.stored_record_copies() == 1
        removed = service.deregister_record(record)
        assert removed == len(record)  # envelope + (m-1) pointers
        assert service.stored_record_copies() == 0
        assert service.stored_pointers() == 0

    def test_deregister_absent_record_is_zero(self, schema):
        service = PointerMercuryService.build_full(6, schema, seed=33)
        wl = GridWorkload(schema, infos_per_attribute=10, seed=34)
        assert service.deregister_record(record_for(wl, 0)) == 0

    def test_single_info_deregister(self, schema):
        service = PointerMercuryService.build_full(6, schema, seed=35)
        info = ResourceInfo("cpu-mhz", 1000.0, "p")
        service.register(info, routed=False)
        assert service.deregister(info) == 1
        assert service.total_info_pieces() == 0
