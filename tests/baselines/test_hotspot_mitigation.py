"""Tests for hotspot mitigations: key salting and dynamic replication."""

from __future__ import annotations

import pytest

from repro.baselines.sword import _NAMESPACE
from repro.core.hotspot import DynamicReplicator, SaltPlan, route_choice
from repro.core.resource import AttributeConstraint, MultiAttributeQuery, ResourceInfo
from repro.experiments.common import build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.sim.loadstats import LoadStats, LoadWindow
from repro.sim.maintenance import MaintenanceBudget

CONFIG = SMOKE_CONFIG.scaled(num_attributes=6, infos_per_attribute=12)


@pytest.fixture(scope="module")
def workload():
    return build_workload(CONFIG)


@pytest.fixture(scope="module")
def base(workload):
    return build_service(CONFIG, "SWORD", workload=workload)


@pytest.fixture(scope="module")
def salted(workload):
    return build_service(CONFIG, "SWORD", workload=workload, salting=SaltPlan(salts=3))


def _attr_query(service, attribute, requester):
    spec = service.schema.spec(attribute)
    constraint = AttributeConstraint.between(attribute, spec.lo, spec.hi)
    return MultiAttributeQuery((constraint,), requester=requester)


def _hammer(service, attribute, count):
    """``count`` distinct-requester full-range queries on one attribute."""
    stats = LoadStats()
    service.attach_load_stats(stats)
    try:
        answers = []
        for i in range(count):
            q = _attr_query(service, attribute, f"req-{i:04d}")
            answers.append(service.multi_query(q).providers)
    finally:
        service.attach_load_stats(None)
    return stats.take_window(), answers


class TestRouteChoice:
    def test_stable_and_in_range(self):
        picks = [route_choice("cpu", f"req-{i}", 5) for i in range(100)]
        assert all(0 <= p < 5 for p in picks)
        assert picks == [route_choice("cpu", f"req-{i}", 5) for i in range(100)]

    def test_spreads_over_requesters(self):
        assert len({route_choice("cpu", f"req-{i}", 5) for i in range(100)}) == 5

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            route_choice("cpu", "req", 0)


class TestSaltPlan:
    def test_salted_names(self):
        assert SaltPlan(salts=3).salted_names("cpu") == ("cpu#s0", "cpu#s1", "cpu#s2")

    def test_applies_to_all_by_default(self, salted):
        # A plan salts every attribute's root: S store keys each.
        for attribute in salted.schema.names:
            assert len(set(salted.attr_store_keys(attribute))) == 3, attribute

    def test_choose_within_fanout(self):
        plan = SaltPlan(salts=4)
        assert all(0 <= plan.choose("cpu", f"r{i}") < 4 for i in range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            SaltPlan(salts=0)


class TestSaltedService:
    def test_lorm_rejects_salting(self, workload):
        with pytest.raises(ValueError):
            build_service(CONFIG, "LORM", workload=workload, salting=SaltPlan())

    def test_store_keys_are_distinct_salted_roots(self, salted):
        attribute = salted.schema.specs[0].name
        keys = salted.attr_store_keys(attribute)
        assert len(keys) == 3
        assert len(set(keys)) == 3
        assert salted.attr_key(attribute) not in keys

    def test_every_salted_root_holds_the_full_directory(self, salted):
        attribute = salted.schema.specs[0].name
        for key in salted.attr_store_keys(attribute):
            holder = salted.ring.successor_of(key)
            assert len(holder.items_at(_NAMESPACE, key)) == CONFIG.infos_per_attribute

    def test_answers_match_unsalted(self, base, salted, workload):
        for i, q in enumerate(workload.query_stream(15, 2, label="salt-transparency")):
            assert salted.multi_query(q).providers == base.multi_query(q).providers, i

    def test_salting_spreads_serve_load(self, base, salted):
        attribute = base.schema.specs[0].name
        base_load, base_answers = _hammer(base, attribute, 30)
        salt_load, salt_answers = _hammer(salted, attribute, 30)
        assert salt_answers == base_answers
        # Unmitigated: one root serves everything.  Salted: three roots
        # split the same 30 queries, so the hottest node serves less.
        assert len(base_load.serves) == 1
        assert len(salt_load.serves) == 3
        assert max(salt_load.serves.values()) < max(base_load.serves.values())


def _hot_copies(service, attribute):
    """Each hot replica key's directory copy, read at the key's owner."""
    replicator = service.hot_replicator
    return [
        service.ring.successor_of(key).items_at(replicator.replica_namespace, key)
        for key in replicator.holders(attribute)
    ]


@pytest.fixture()
def fast_replicator(monkeypatch):
    """A faster-reacting replicator than the experiment's: hot at 2x the
    mean load, two replicas, gone after one cold window."""
    monkeypatch.setattr(DynamicReplicator, "TRIGGER_RATIO", 2.0)
    monkeypatch.setattr(DynamicReplicator, "MAX_REPLICAS", 2)
    monkeypatch.setattr(DynamicReplicator, "DECAY_WINDOWS", 1)


@pytest.mark.usefixtures("fast_replicator")
class TestDynamicReplicator:
    @pytest.fixture()
    def service(self, workload):
        # Function-scoped: replicator state must not leak across tests.
        return build_service(CONFIG, "SWORD", workload=workload)

    def _replicate(self, service, attribute, queries=30):
        replicator = DynamicReplicator(service, _NAMESPACE)
        service.attach_hot_replicator(replicator)
        window, answers = _hammer(service, attribute, queries)
        hot = replicator.observe(window, service.num_nodes())
        report = replicator.tick(MaintenanceBudget(0, 0, 10_000))
        return replicator, hot, report, answers

    def test_hot_attribute_detected_and_replicated(self, service):
        attribute = service.schema.specs[0].name
        replicator, hot, report, _ = self._replicate(service, attribute)
        assert hot == {attribute}
        assert report["created"] == 1
        assert report["copies"] == 2 * CONFIG.infos_per_attribute
        assert len(replicator.holders(attribute)) == 2

    def test_copies_charged_to_maintenance(self, service):
        attribute = service.schema.specs[0].name
        before = service.ring.network.stats.maintenance_messages
        self._replicate(service, attribute)
        assert service.ring.network.stats.maintenance_messages >= before + 24

    def test_replicated_reads_spread_and_stay_transparent(self, service):
        attribute = service.schema.specs[0].name
        replicator, _, _, before = self._replicate(service, attribute)
        load, after = _hammer(service, attribute, 30)
        assert after == before
        assert len(load.serves) == 3  # native root + 2 replicas
        targets = {replicator.route_for(attribute, f"req-{i:04d}") for i in range(30)}
        assert None in targets and len(targets) == 3

    def test_replicated_reads_survive_replica_repair(self, service):
        attribute = service.schema.specs[0].name
        _, _, _, before = self._replicate(service, attribute)
        service.ring.repair_replication()
        _, after = _hammer(service, attribute, 30)
        assert after == before

    def test_on_register_mirrors_to_replicas(self, service, workload):
        attribute = service.schema.specs[0].name
        replicator, _, _, _ = self._replicate(service, attribute)
        info = ResourceInfo(attribute, 1.0, "fresh-provider")
        service.register(info, routed=False)
        assert all(info in copy for copy in _hot_copies(service, attribute))
        service.deregister(info)
        assert not any(info in copy for copy in _hot_copies(service, attribute))

    def test_departed_holder_is_skipped_until_it_rejoins(self, service):
        attribute = service.schema.specs[0].name
        _, _, _, before = self._replicate(service, attribute)
        gone = service.hot_replicator.holders(attribute)[0]
        service.ring.leave(gone)
        assert gone not in service.ring
        _, away = _hammer(service, attribute, 30)
        service.ring.join(gone)
        assert gone in service.ring
        _, back = _hammer(service, attribute, 30)
        assert away == back == before

    def test_cold_windows_decay_replicas(self, service):
        attribute = service.schema.specs[0].name
        replicator, _, _, _ = self._replicate(service, attribute)
        stats = LoadStats()
        replicator.observe(stats.take_window(), service.num_nodes())  # cold window
        assert all(_hot_copies(service, attribute))
        report = replicator.tick(MaintenanceBudget(0, 0, 10_000))
        assert report["dropped"] == 1
        assert replicator.holders(attribute) == []
        for node in service.ring.nodes():
            assert not node.directory_size(replicator.replica_namespace)

    def test_detach_clears_replicas(self, service):
        attribute = service.schema.specs[0].name
        replicator, _, _, _ = self._replicate(service, attribute)
        assert replicator.holders(attribute)
        service.attach_hot_replicator(None)
        assert replicator.holders(attribute) == []
        assert service.hot_replicator is None

    def test_validation(self, service):
        with pytest.raises(ValueError):
            DynamicReplicator(service, _NAMESPACE).observe(LoadWindow(), population=0)
