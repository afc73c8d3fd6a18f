"""Tests for the shared service interface (ChordBackedService machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import DiscoveryService
from repro.baselines.sword import SwordService
from repro.core.resource import AttributeConstraint, MultiAttributeQuery, ResourceInfo
from repro.experiments.common import SYSTEM_NAMES, build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.sim.durability import successor_replication
from repro.sim.faults import NO_RETRY_POLICY, FaultInjector, FaultPlan
from repro.sim.invariants import directory_layout, overlay_of
from repro.sim.loadstats import LoadStats
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import QueryKind

#: Every service binding: the four systems on their native substrates plus
#: flat LORM on each ring tier.
BINDINGS = [(name, None) for name in SYSTEM_NAMES] + [
    ("LORM", tier) for tier in ("chord", "singlehop", "record")
]


@pytest.fixture(scope="module")
def schema() -> AttributeSchema:
    return AttributeSchema.synthetic(4)


class TestConstruction:
    def test_build_full_population(self, schema):
        service = SwordService.build_full(5, schema, seed=1)
        assert service.num_nodes() == 32

    def test_build_partial_population(self, schema):
        service = SwordService.build(8, 60, schema, seed=1)
        assert service.num_nodes() == 60

    def test_build_caps_at_space_size(self, schema):
        service = SwordService.build(4, 100, schema, seed=1)
        assert service.num_nodes() == 16


class TestValueHashes:
    def test_cached_per_attribute(self, schema):
        service = SwordService.build_full(5, schema, seed=1)
        assert service.value_hash("cpu-mhz") is service.value_hash("cpu-mhz")

    def test_lph_kind_respected(self, schema):
        from repro.hashing.locality import CdfLocalityHash, LinearLocalityHash

        cdf = SwordService.build_full(5, schema, seed=1, lph_kind="cdf")
        lin = SwordService.build_full(5, schema, seed=1, lph_kind="linear")
        assert isinstance(cdf.value_hash("cpu-mhz"), CdfLocalityHash)
        assert isinstance(lin.value_hash("cpu-mhz"), LinearLocalityHash)


class TestRandomNodes:
    def test_random_node_is_live(self, schema):
        service = SwordService.build_full(5, schema, seed=1)
        for _ in range(20):
            assert service.random_node().alive

    def test_seeded_reproducibility(self, schema):
        a = SwordService.build_full(5, schema, seed=4)
        b = SwordService.build_full(5, schema, seed=4)
        assert [a.random_node().node_id for _ in range(10)] == [
            b.random_node().node_id for _ in range(10)
        ]


    def test_entry_node_selection_is_written_once(self, schema):
        """Every system draws its entry node through the one
        ``DiscoveryService`` definition: one ``integers(n)`` draw from the
        query stream, indexing the overlay's per-epoch ``node_ids``."""
        # ... flat LORM (a ring under ``.overlay``) included.
        for system, tier in BINDINGS:
            service = build_service(SMOKE_CONFIG, system, overlay=tier)
            for name in ("random_node", "_resolve_start", "_query_impl"):
                assert getattr(type(service), name) is getattr(DiscoveryService, name), name
            overlay = overlay_of(service)
            twin = np.random.Generator(type(service._rng.bit_generator)())
            twin.bit_generator.state = service._rng.bit_generator.state
            service.churn_leave()  # a new membership epoch: fresh ids, same stream
            ids = overlay.node_ids
            for _ in range(5):
                assert service.random_node().uid == ids[int(twin.integers(len(ids)))]
            assert service._resolve_start(overlay.node(ids[0])) is overlay.node(ids[0])


class TestMultiQueryInterface:
    def test_multi_query_uses_one_entry_node(self, schema):
        """All sub-queries of one request originate at the same requester."""
        service = SwordService.build_full(5, schema, seed=1)
        service.register(ResourceInfo("cpu-mhz", 500.0, "p"))
        service.register(ResourceInfo("disk-gb", 5.0, "p"))
        start = service.random_node()
        mq = MultiAttributeQuery(
            (
                AttributeConstraint.at_least("cpu-mhz", 100.0),
                AttributeConstraint.at_least("disk-gb", 1.0),
            )
        )
        result = service.multi_query(mq, start=start)
        assert result.providers == {"p"}

    def test_metrics_recorded(self, schema):
        service = SwordService.build_full(5, schema, seed=1)
        mq = MultiAttributeQuery((AttributeConstraint.at_least("cpu-mhz", 0.0),))
        service.multi_query(mq)
        assert len(service.metrics.samples("multi_query.total_hops")) == 1
        assert len(service.metrics.samples("multi_query.total_visited")) == 1


#: Substrate plumbing `DiscoveryService` owns once, over `self.overlay`.
SUBSTRATE_PLUMBING = (
    "churn_leave", "churn_join", "churn_fail", "stabilize",
    "configure_faults", "directory_sizes", "outlink_counts", "num_nodes",
)

#: The sub-query engine and the ID mapping it runs on, also owned once.
QUERY_KERNEL = (
    "_query_impl", "_result", "attr_key", "value_hash", "structural_hop_bound",
)

#: Instance state `DiscoveryService.__init__` sets for every binding.
CONSTRUCTOR_STATE = (
    "overlay", "schema", "lph_kind", "collect_matches", "metrics", "_seeds",
    "_rng", "_churn_rng", "_departed", "attr_hash", "attr_placement",
    "_attr_ids", "_value_space", "_value_hashes", "_placers",
)

#: What reads a binding's placements (``_placer``), owned once as well.
REGISTRATION = (
    "register", "_register_impl", "register_all", "deregister", "_placements",
)


def _sub_queries(workload, kind, count=10):
    stream = workload.query_stream(count, 2, kind, label="contract")
    return [q for mq in stream for q in mq.sub_queries()]


class TestChurnBookkeeping:
    def test_substrate_plumbing_is_written_once(self):
        """Churn, fault wiring and the structure metrics resolve to the one
        ``DiscoveryService`` definition on every system (Mercury scales
        ``outlink_counts`` by its hubs), and churn draws its victims and
        rejoiners from ``_churn_rng`` in the order it always did."""
        from repro.baselines.base import ChordBackedService
        from repro.core.lorm import LormService

        for binding in (LormService, ChordBackedService):
            assert not set(SUBSTRATE_PLUMBING + QUERY_KERNEL) & set(vars(binding)), binding
            # ... and neither constructor assigns what the shared one does.
            stored = set(binding.__init__.__code__.co_names)
            assert not set(CONSTRUCTOR_STATE) & stored, binding
        for system, tier in BINDINGS:
            service = build_service(SMOKE_CONFIG, system, overlay=tier)
            for name in SUBSTRATE_PLUMBING + QUERY_KERNEL:
                shared = getattr(type(service), name) is getattr(DiscoveryService, name)
                assert shared != (system == "Mercury" and name == "outlink_counts"), name
            assert set(CONSTRUCTOR_STATE) <= set(vars(service))
            assert service.overlay is overlay_of(service)
            overlay = overlay_of(service)
            twin = np.random.Generator(type(service._churn_rng.bit_generator)())
            twin.bit_generator.state = service._churn_rng.bit_generator.state
            expected = []
            for depart in (service.churn_leave, service.churn_fail):
                ids = overlay.node_ids
                expected.append(ids[int(twin.integers(len(ids)))])
                assert depart()
                assert service._departed == expected
                assert expected[-1] not in overlay.node_ids
            rejoined = expected.pop(int(twin.integers(len(expected))))
            assert service.churn_join()
            assert service._departed == expected and rejoined in overlay.node_ids
            assert service.num_nodes() == overlay.num_nodes
            injector = object()
            service.configure_faults(injector)
            assert overlay.network.faults is injector
            service.configure_faults(None)

    def test_leave_then_join_recycles_ids(self, schema):
        service = SwordService.build_full(5, schema, seed=1)
        before = set(service.ring.node_ids)
        assert service.churn_leave()
        departed = before - set(service.ring.node_ids)
        assert service.churn_join()
        assert set(service.ring.node_ids) == before, departed

    def test_join_without_departures_noop(self, schema):
        service = SwordService.build_full(5, schema, seed=1)
        assert not service.churn_join()

    def test_leave_floor_of_two_nodes(self, schema):
        service = SwordService.build(5, 2, schema, seed=1)
        assert not service.churn_leave()

    def test_stabilize_runs(self, schema):
        service = SwordService.build_full(5, schema, seed=1)
        service.churn_leave()
        service.stabilize()
        service.ring.check_invariants()


class TestPlacement:
    @pytest.mark.parametrize("system,tier", BINDINGS)
    def test_a_binding_states_its_placement_once(self, system, tier):
        """``_placer`` is the binding's only word on where an info lives:
        registration, withdrawal and the bulk load are the shared ones, and
        a stored info sits under exactly its ``_placements``."""
        service = build_service(SMOKE_CONFIG, system, overlay=tier, register=False)
        for name in REGISTRATION:
            assert getattr(type(service), name) is getattr(DiscoveryService, name), name
        assert "_placer" in vars(type(service))
        spec = service.schema.specs[0]
        info = ResourceInfo(spec.name, (spec.lo + spec.hi) / 2, "p")
        placements = service._placements(info)
        assert len(placements) == service.lookups_per_attribute
        service.register(info)
        overlay = service.overlay
        stored = {
            (namespace, key_id)
            for node in overlay.nodes()
            for namespace, key_id, item in node.stored_entries()
        }
        assert stored == {(ns, overlay.key_id(key)) for ns, key in placements}
        assert service.deregister(info) == len(placements)
        assert service.total_info_pieces() == 0

    def test_traced_register_all_is_the_per_info_loop(self):
        """Traced, ``register_all`` shows one ``register`` span per info."""
        from repro.obs import QueryTracer

        service = build_service(SMOKE_CONFIG, "SWORD", register=False)
        tracer = QueryTracer()
        service.attach_tracer(tracer)
        service.register_all(list(build_workload(SMOKE_CONFIG).resource_infos())[:40])
        assert len(tracer.traces) == 40

    def test_bulk_load_counts_what_it_stored_when_the_stream_raises(self):
        infos = list(build_workload(SMOKE_CONFIG).resource_infos())[:10]
        bulk, reference = (
            build_service(SMOKE_CONFIG, "MAAN", register=False,
                          durability=successor_replication(2))
            for _ in range(2)
        )
        unknown = ResourceInfo("no-such-attribute", 1.0, "p")
        with pytest.raises(KeyError):
            bulk.register_all([*infos, unknown])
        for info in infos:
            reference.register(info, routed=False)
        assert directory_layout(bulk.overlay) == directory_layout(reference.overlay)
        assert bulk.overlay.network.stats == reference.overlay.network.stats


class TestSubQueryEngine:
    """One engine runs every approach's plan; its accounting is the
    network's."""

    @pytest.mark.parametrize("system,tier", BINDINGS)
    def test_plan_length_is_lookups_per_attribute(self, system, tier):
        """Theorems 4.2 / 4.7 as structure: one routed read per attribute,
        two for MAAN — point and range alike."""
        workload = build_workload(SMOKE_CONFIG)
        service = build_service(SMOKE_CONFIG, system, workload=workload, overlay=tier)
        for kind in (QueryKind.POINT, QueryKind.RANGE):
            for q in _sub_queries(workload, kind, count=3):
                plan = service._plan(q)
                assert len(plan) == service.lookups_per_attribute
                assert all(arc is None for _, arc, _ in plan[:-1])
                assert (plan[-1][1] is not None) == (q.is_range and system != "SWORD")

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    @pytest.mark.parametrize("system,tier", BINDINGS)
    def test_accounting_equals_network_counters(self, system, tier, loss):
        """Per sub-query, ``hops`` is the network's hop-counter delta,
        ``visited_nodes`` the serve load an attached :class:`LoadStats`
        saw, and the recorded ``query.hops`` / ``query.visited`` sample is
        the result's."""
        workload = build_workload(SMOKE_CONFIG)
        service = build_service(SMOKE_CONFIG, system, workload=workload, overlay=tier)
        if loss:
            service.configure_faults(
                FaultInjector(FaultPlan(loss_rate=loss, seed=5)), NO_RETRY_POLICY
            )
        stats = service.overlay.network.stats
        load = LoadStats()
        service.attach_load_stats(load)
        incomplete = 0
        for kind in (QueryKind.POINT, QueryKind.RANGE):
            for q in _sub_queries(workload, kind):
                before = stats.snapshot()
                result = service.query(q)
                delta = stats.delta_since(before)
                assert result.hops == delta.routing_hops
                assert result.visited_nodes == load.take_window().total_serves
                assert service.metrics.last("query.hops") == result.hops
                assert service.metrics.last("query.visited") == result.visited_nodes
                incomplete += not result.complete
        # The lossy leg must really have driven the failure paths.
        assert bool(incomplete) == bool(loss)

    @pytest.mark.parametrize("kind", [QueryKind.POINT, QueryKind.RANGE])
    def test_failure_on_maans_second_step_is_an_honest_partial(self, kind):
        """The attribute root was visited, the value root never reached:
        visited 1, both lookups' hops, no matches, ``complete=False``."""
        workload = build_workload(SMOKE_CONFIG)
        service = build_service(SMOKE_CONFIG, "MAAN", workload=workload)
        overlay = service.overlay
        route, routed = overlay.lookup, []

        def second_lookup_fails(start, key):
            routed.append(route(start, key))
            if len(routed) == 2:
                return routed[-1]._replace(complete=False, timed_out=True)
            return routed[-1]

        overlay.lookup = second_lookup_fails
        q = _sub_queries(workload, kind, count=1)[0]
        load = LoadStats()
        service.attach_load_stats(load)
        before = overlay.network.stats.snapshot()
        result = service.query(q)
        delta = overlay.network.stats.delta_since(before)
        assert len(routed) == 2
        assert result.matches == () and not result.complete and result.timed_out
        assert result.visited_nodes == 1 == load.take_window().total_serves
        assert result.hops == routed[0].hops + routed[1].hops == delta.routing_hops
        assert service.metrics.last("query.hops") == result.hops
        assert service.metrics.last("query.visited") == 1
