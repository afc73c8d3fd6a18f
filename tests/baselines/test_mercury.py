"""Tests for the Mercury comparator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mercury import MercuryService
from repro.baselines.mercury_pointers import PointerMercuryService
from repro.core.hotspot import DynamicReplicator
from repro.core.resource import AttributeConstraint, Query, ResourceInfo
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


@pytest.fixture(scope="module")
def schema() -> AttributeSchema:
    return AttributeSchema.synthetic(6)


@pytest.fixture()
def service(schema) -> MercuryService:
    return MercuryService.build_full(6, schema, seed=2)


class TestPlacement:
    def test_value_indexed_placement(self, service):
        info = ResourceInfo("cpu-mhz", 2500.0, "p")
        service.register(info)
        key = service.value_hash("cpu-mhz")(2500.0)
        owner = service.ring.successor_of(key)
        assert info in owner.items_in("hub:cpu-mhz")

    def test_hubs_are_namespaced_per_attribute(self, service):
        service.register(ResourceInfo("cpu-mhz", 2500.0, "p"))
        for node in service.ring.nodes():
            assert node.items_in("hub:disk-gb") == []

    def test_every_store_keys_on_one_hub_string(self, service):
        """A hub's name is one shared object, not a fresh copy per
        (node, hub) store."""
        for i, value in enumerate((1000.0, 2500.0, 3900.0)):
            service.register(ResourceInfo("cpu-mhz", value, f"p{i}"))
        names = {
            id(namespace)
            for node in service.ring.nodes()
            for namespace, _, _ in node.stored_entries()
        }
        assert len(names) == 1

    def test_same_attribute_spreads_over_ring(self, service):
        """Value indexing spreads one attribute's infos over many nodes —
        the opposite of SWORD (basis of Figure 3(d) balance).  Values are
        drawn from the attribute's own distribution so the CDF-calibrated
        LPH can uniformise them."""
        spec = service.schema.spec("cpu-mhz")
        rng = np.random.default_rng(0)
        for i, v in enumerate(spec.distribution.sample(rng, 40)):
            service.register(ResourceInfo("cpu-mhz", float(v), f"p{i}"))
        holders = [n for n in service.ring.nodes() if n.directory_size("hub:cpu-mhz")]
        assert len(holders) > 20


class TestQueries:
    def test_point_query(self, service):
        service.register(ResourceInfo("cpu-mhz", 1200.0, "p"))
        result = service.query(Query(AttributeConstraint.point("cpu-mhz", 1200.0)))
        assert result.providers == {"p"}
        assert result.visited_nodes == 1

    def test_range_query_walks_arc(self, service):
        spec = service.schema.spec("cpu-mhz")
        values = np.linspace(spec.lo, spec.hi, 30)
        for i, v in enumerate(values):
            service.register(ResourceInfo("cpu-mhz", float(v), f"p{i}"))
        result = service.query(
            Query(AttributeConstraint.between("cpu-mhz", float(values[4]), float(values[20])))
        )
        assert result.providers == {f"p{i}" for i in range(4, 21)}
        assert result.visited_nodes > 1

    def test_range_visited_scales_with_span(self, service):
        spec = service.schema.spec("cpu-mhz")
        dist = spec.distribution
        narrow = service.query(
            Query(AttributeConstraint.between("cpu-mhz", dist.ppf(0.40), dist.ppf(0.45)))
        )
        wide = service.query(
            Query(AttributeConstraint.between("cpu-mhz", dist.ppf(0.10), dist.ppf(0.90)))
        )
        assert wide.visited_nodes > narrow.visited_nodes

    def test_equivalence_with_bruteforce(self, schema):
        service = MercuryService.build_full(6, schema, seed=21)
        wl = GridWorkload(schema, infos_per_attribute=25, seed=22)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        rng = np.random.default_rng(23)
        for _ in range(20):
            mq = wl.sample_multi_query(3, QueryKind.RANGE, rng)
            assert service.multi_query(mq).providers == (
                wl.matching_providers_bruteforce(mq)
            )


class TestStructure:
    def test_outlinks_scaled_by_hub_count(self, service):
        base = service.ring.outlink_counts()
        scaled = service.outlink_counts()
        assert scaled == [len(service.schema) * c for c in base]

    def test_maintenance_scale(self, service):
        assert service.maintenance_scale() == 6

    def test_build_sparse_population(self, schema):
        service = MercuryService.build(8, 100, schema, seed=1)
        assert service.num_nodes() == 100


@pytest.mark.parametrize("cls", [MercuryService, PointerMercuryService])
def test_no_attribute_root_to_salt_or_replicate(cls, schema):
    with pytest.raises(ValueError, match="no attribute root"):
        cls.build_full(4, schema, salts=2)
    service = cls.build_full(4, schema)
    with pytest.raises(ValueError, match="no attribute root"):
        service.attach_hot_replicator(DynamicReplicator(service))
    assert service.hot_replicator is None
