"""SWORD's and MAAN's directory reads go through the node's ordered view.

The answers must be exactly what a scan of the same directory bucket
keeps — under every way a read is redirected (salted roots sharing a node,
hot replicas in their own namespace) and across registrations and
withdrawals that flush the views between two queries.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.baselines.maan import MaanService
from repro.baselines.sword import _NAMESPACE, SwordService
from repro.core.hotspot import DynamicReplicator, SaltPlan
from repro.core.resource import (
    AttributeConstraint,
    MultiAttributeQuery,
    Query,
    ResourceInfo,
)
from repro.sim.loadstats import LoadStats
from repro.sim.maintenance import MaintenanceBudget
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


@pytest.fixture(scope="module")
def schema() -> AttributeSchema:
    return AttributeSchema.synthetic(5)


@pytest.fixture(scope="module")
def workload(schema) -> GridWorkload:
    return GridWorkload(schema, infos_per_attribute=20, seed=5)


def scan(service, q: Query, namespace: str) -> Counter:
    """What a scan of the bucket this query reads would keep."""
    route_key, dir_ns, dir_key = service.attr_read_target(q.attribute, q.requester, namespace)
    holder = service.ring.successor_of(route_key)
    return Counter(
        i for i in holder.items_at(dir_ns, dir_key)
        if i.attribute == q.attribute and q.constraint.matches(i.value)
    )


def sub_queries(workload, count: int, requesters: int):
    rng = np.random.default_rng(17)
    for index in range(count):
        kind = QueryKind.RANGE if index % 2 else QueryKind.POINT
        mq = workload.sample_multi_query(2, kind, rng)
        for constraint in mq.constraints:
            yield Query(constraint, requester=f"req-{index % requesters:03d}")


class TestSwordRedirectedReads:
    def test_two_salted_roots_on_one_node(self, schema, workload):
        # Three salted roots over two nodes: two of them share a node, so
        # that node answers from two buckets of one namespace.
        service = SwordService.build(6, 2, schema, seed=3, salting=SaltPlan(salts=3))
        for info in workload.resource_infos():
            service.register(info, routed=False)
        attribute = schema.specs[0].name
        keys = service.attr_store_keys(attribute)
        holders = [service.ring.successor_of(key).node_id for key in keys]
        assert len(set(keys)) == 3 and len(set(holders)) < 3
        picked = set()
        for q in sub_queries(workload, 30, requesters=12):
            result = service.query(q)
            assert Counter(result.matches) == scan(service, q, _NAMESPACE)
            picked.add(service.attr_read_target(q.attribute, q.requester, _NAMESPACE)[2])
        assert len(picked) > len(schema)  # several salted roots per attribute were read
        whole = Query(AttributeConstraint(attribute), requester="req-000")
        assert len(service.query(whole).matches) == workload.infos_per_attribute

    def test_hot_replicas(self, schema, workload, monkeypatch):
        service = SwordService.build_full(6, schema, seed=3)
        for info in workload.resource_infos():
            service.register(info, routed=False)
        attribute = schema.specs[0].name
        spec = schema.spec(attribute)
        # React faster than the experiment: hot at 2x the mean, two replicas.
        monkeypatch.setattr(DynamicReplicator, "TRIGGER_RATIO", 2.0)
        monkeypatch.setattr(DynamicReplicator, "MAX_REPLICAS", 2)
        monkeypatch.setattr(DynamicReplicator, "DECAY_WINDOWS", 1)
        replicator = DynamicReplicator(service, _NAMESPACE)
        service.attach_hot_replicator(replicator)
        stats = LoadStats()
        service.attach_load_stats(stats)
        hot = MultiAttributeQuery(
            (AttributeConstraint.between(attribute, spec.lo, spec.hi),), requester="r"
        )
        for _ in range(30):
            service.multi_query(hot)
        service.attach_load_stats(None)
        replicator.observe(stats.take_window(), service.num_nodes())
        replicator.tick(MaintenanceBudget(0, 0, 10_000))
        assert len(replicator.holders(attribute)) == 2
        namespaces = set()
        for q in sub_queries(workload, 40, requesters=20):
            result = service.query(q)
            assert Counter(result.matches) == scan(service, q, _NAMESPACE)
            namespaces.add(service.attr_read_target(q.attribute, q.requester, _NAMESPACE)[1])
        assert namespaces == {_NAMESPACE, replicator.replica_namespace}
        # A registration mirrored onto the replicas is visible on the next
        # read of every copy (native root and replica views both flushed).
        service.register(ResourceInfo(attribute, spec.lo, "fresh-provider"), routed=False)
        point = AttributeConstraint.point(attribute, spec.lo)
        for index in range(20):
            result = service.query(Query(point, requester=f"req-{index:03d}"))
            assert "fresh-provider" in result.providers


class TestMaanAcrossWrites:
    @pytest.mark.parametrize("kind", [QueryKind.POINT, QueryKind.RANGE])
    def test_register_query_deregister_query(self, schema, kind):
        workload = GridWorkload(schema, infos_per_attribute=20, seed=8)
        service = MaanService.build_full(6, schema, seed=4)
        infos = list(workload.resource_infos())
        for info in infos:
            service.register(info, routed=False)
        rng = np.random.default_rng(23)
        queries = [workload.sample_multi_query(2, kind, rng) for _ in range(25)]
        for mq in queries:
            assert service.multi_query(mq).providers == (
                workload.matching_providers_bruteforce(mq)
            )
        # Withdraw every provider the queries found, a few at a time, and
        # ask again: each answer shrinks by exactly the withdrawn providers.
        withdrawn: set[str] = set()
        for mq in queries:
            victims = sorted(workload.matching_providers_bruteforce(mq) - withdrawn)[:2]
            for info in infos:
                if info.provider in victims:
                    assert service.deregister(info) == 2  # attribute + value map
            withdrawn.update(victims)
            assert service.multi_query(mq).providers == (
                workload.matching_providers_bruteforce(mq) - withdrawn
            )
        # ... and registering them back restores the full answers.
        for info in infos:
            if info.provider in withdrawn:
                service.register(info)
        for mq in queries:
            assert service.multi_query(mq).providers == (
                workload.matching_providers_bruteforce(mq)
            )
