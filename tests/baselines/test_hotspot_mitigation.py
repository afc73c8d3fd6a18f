"""Tests for hotspot mitigations: the attribute-root table's salted roots
and hot keys."""

from __future__ import annotations

import pytest

from repro.core.hotspot import DynamicReplicator, route_choice
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
    return build_service(CONFIG, "SWORD", workload=workload, salting=3)


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


class TestSaltedService:
    def test_salted_roots_hash_the_salted_names(self, salted):
        assert salted.root_keys("cpu") == tuple(
            ("sword", salted.attr_hash(name)) for name in ("cpu#s0", "cpu#s1", "cpu#s2")
        )

    def test_applies_to_all_by_default(self, salted):
        # A salted service salts every attribute's root: S static roots each.
        for attribute in salted.schema.names:
            assert len(set(salted.root_keys(attribute))) == 3, attribute

    def test_reads_pick_a_salted_root(self, salted):
        keys = salted.root_keys("cpu")
        assert {salted.root_read("cpu", f"r{i}") for i in range(50)} == set(keys)

    def test_salts_validation(self, workload):
        with pytest.raises(ValueError):
            build_service(CONFIG, "SWORD", workload=workload, salting=0)

    def test_lorm_rejects_salting(self, workload):
        with pytest.raises(ValueError):
            build_service(CONFIG, "LORM", workload=workload, salting=4)

    def test_rejects_a_hot_replicator(self, salted):
        # Hot keys follow the native root, which a salted service leaves empty.
        with pytest.raises(ValueError, match="salted"):
            salted.attach_hot_replicator(DynamicReplicator(salted))
        assert salted.hot_replicator is None

    def test_store_keys_are_distinct_salted_roots(self, salted):
        attribute = salted.schema.specs[0].name
        keys = [key for _, key in salted.root_keys(attribute)]
        assert len(keys) == 3
        assert len(set(keys)) == 3
        assert salted.attr_key(attribute) not in keys

    def test_every_salted_root_holds_the_full_directory(self, salted):
        attribute = salted.schema.specs[0].name
        for namespace, key in salted.root_keys(attribute):
            holder = salted.ring.successor_of(key)
            assert len(holder.items_at(namespace, key)) == CONFIG.infos_per_attribute

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
    """Each hot key's directory copy, read at the key's owner."""
    return [
        service.ring.successor_of(key).items_at(namespace, key)
        for namespace, key in service.root_keys(attribute)[1:]
    ]


def _replicate(service, attribute, queries=30):
    """Attach a replicator, hammer ``attribute`` and apply one tick."""
    replicator = DynamicReplicator(service)
    service.attach_hot_replicator(replicator)
    window, answers = _hammer(service, attribute, queries)
    hot = replicator.observe(window, service.num_nodes())
    report = replicator.tick(MaintenanceBudget(0, 0, 10_000))
    return replicator, hot, report, answers


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

    def test_hot_attribute_detected_and_replicated(self, service):
        attribute = service.schema.specs[0].name
        _, hot, report, _ = _replicate(service, attribute)
        assert hot == {attribute}
        assert report["created"] == 1
        assert report["copies"] == 2 * CONFIG.infos_per_attribute
        assert len(service.root_keys(attribute)) == 3  # native root + 2 hot keys

    def test_copies_charged_to_maintenance(self, service):
        attribute = service.schema.specs[0].name
        before = service.ring.network.stats.maintenance_messages
        _replicate(service, attribute)
        assert service.ring.network.stats.maintenance_messages >= before + 24

    def test_replicated_reads_spread_and_stay_transparent(self, service):
        attribute = service.schema.specs[0].name
        _, _, _, before = _replicate(service, attribute)
        load, after = _hammer(service, attribute, 30)
        assert after == before
        assert len(load.serves) == 3  # native root + 2 replicas
        targets = {service.root_read(attribute, f"req-{i:04d}") for i in range(30)}
        assert targets == set(service.root_keys(attribute))

    def test_replicated_reads_survive_replica_repair(self, service):
        attribute = service.schema.specs[0].name
        _, _, _, before = _replicate(service, attribute)
        service.ring.repair_replication()
        _, after = _hammer(service, attribute, 30)
        assert after == before

    def test_on_register_mirrors_to_replicas(self, service, workload):
        attribute = service.schema.specs[0].name
        _replicate(service, attribute)
        info = ResourceInfo(attribute, 1.0, "fresh-provider")
        service.register(info, routed=False)
        assert all(info in copy for copy in _hot_copies(service, attribute))
        service.deregister(info)
        assert not any(info in copy for copy in _hot_copies(service, attribute))

    def test_departed_holder_is_skipped_until_it_rejoins(self, service):
        attribute = service.schema.specs[0].name
        _, _, _, before = _replicate(service, attribute)
        gone = service.hot_keys[attribute][0]
        service.ring.leave(gone)
        assert gone not in service.ring
        _, away = _hammer(service, attribute, 30)
        service.ring.join(gone)
        assert gone in service.ring
        _, back = _hammer(service, attribute, 30)
        assert away == back == before

    def test_cold_windows_decay_replicas(self, service):
        attribute = service.schema.specs[0].name
        replicator, _, _, _ = _replicate(service, attribute)
        stats = LoadStats()
        replicator.observe(stats.take_window(), service.num_nodes())  # cold window
        assert all(_hot_copies(service, attribute))
        report = replicator.tick(MaintenanceBudget(0, 0, 10_000))
        assert report["dropped"] == 1
        assert service.root_keys(attribute) == (("sword", service.attr_key(attribute)),)
        for node in service.ring.nodes():
            assert not node.directory_size("sword:hot")

    def test_detach_clears_replicas(self, service):
        attribute = service.schema.specs[0].name
        _replicate(service, attribute)
        assert service.hot_keys[attribute]
        service.attach_hot_replicator(None)
        assert service.hot_keys == {}
        assert len(service.root_keys(attribute)) == 1
        assert service.hot_replicator is None

    def test_validation(self, service):
        with pytest.raises(ValueError):
            DynamicReplicator(service).observe(LoadWindow(), population=0)


@pytest.mark.usefixtures("fast_replicator")
class TestVisitOnlyRoot:
    """MAAN only visits its attribute root: its hot keys are route
    targets, with no directory copied under them."""

    @pytest.fixture()
    def service(self, workload):
        return build_service(CONFIG, "MAAN", workload=workload)

    def test_tick_copies_nothing(self, service):
        attribute = service.schema.specs[0].name
        _, hot, report, _ = _replicate(service, attribute)
        assert hot == {attribute}
        assert report == {"copies": 0, "created": 1, "dropped": 0}
        assert len(service.root_keys(attribute)) == 3
        service.register(ResourceInfo(attribute, 1.0, "fresh-provider"), routed=False)
        for node in service.ring.nodes():
            assert not node.directory_size("maan:attr:hot")

    def test_reads_spread_over_root_and_hot_keys(self, service):
        attribute = service.schema.specs[0].name
        unmitigated, _ = _hammer(service, attribute, 30)
        _replicate(service, attribute)
        load, _ = _hammer(service, attribute, 30)
        root, *hot = (service.ring.successor_of(key).uid for _, key in service.root_keys(attribute))
        # Every query's value walk visits the same nodes; only the visit
        # to the attribute root moves, from the root to its hot keys.
        assert load.serves[root] < unmitigated.serves[root]
        assert all(load.serves[uid] > unmitigated.serves[uid] for uid in hot)

    def test_answers_match_unmitigated(self, service):
        attribute = service.schema.specs[0].name
        _, _, _, before = _replicate(service, attribute)
        _, after = _hammer(service, attribute, 30)
        assert after == before
