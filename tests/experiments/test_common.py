"""Tests for the shared experiment plumbing (ServiceBundle, builders)."""

from __future__ import annotations

import inspect

import pytest

from repro.baselines.base import ChordBackedService, build_ring
from repro.core.lorm import LormService
from repro.experiments.common import (
    SYSTEM_NAMES,
    build_service,
    build_services,
    build_workload,
)
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidOverlay
from repro.obs.replay import build_traced_service
from repro.sim.durability import successor_replication
from repro.sim.invariants import overlay_of
from repro.workloads.generator import QueryKind


class TestBuildWorkload:
    def test_parameters_flow_from_config(self, tiny_config):
        wl = build_workload(tiny_config)
        assert len(wl.schema) == tiny_config.num_attributes
        assert wl.infos_per_attribute == tiny_config.infos_per_attribute
        assert wl.seed == tiny_config.seed
        assert wl.mean_span_fraction == tiny_config.mean_span_fraction

    def test_deterministic(self, tiny_config):
        a = list(build_workload(tiny_config).resource_infos())
        b = list(build_workload(tiny_config).resource_infos())
        assert a == b


class TestBuildServices:
    def test_populations_match_across_overlays(self, tiny_config):
        bundle = build_services(tiny_config, register=False)
        populations = {s.num_nodes() for s in bundle.all()}
        assert populations == {tiny_config.population}

    def test_register_false_leaves_directories_empty(self, tiny_config):
        bundle = build_services(tiny_config, register=False)
        assert all(s.total_info_pieces() == 0 for s in bundle.all())

    def test_registered_totals(self, loaded_bundle):
        base = loaded_bundle.workload.total_info_pieces()
        assert loaded_bundle.lorm.total_info_pieces() == base
        assert loaded_bundle.maan.total_info_pieces() == 2 * base

    def test_routed_registration_same_placement(self, tiny_config):
        fast = build_services(tiny_config)
        slow = build_services(tiny_config, register=False)
        infos = tuple(slow.workload.resource_infos())
        for service in slow.all():
            for info in infos:
                service.register(info)
        assert fast.lorm.directory_sizes() == slow.lorm.directory_sizes()
        assert fast.sword.directory_sizes() == slow.sword.directory_sizes()

    def test_seed_offset_changes_service_seeds_not_workload(self, tiny_config):
        a = build_services(tiny_config, register=False, seed_offset=0)
        b = build_services(tiny_config, register=False, seed_offset=7)
        assert list(a.workload.resource_infos()) == list(b.workload.resource_infos())
        ids_a = [a.lorm.random_node().cid for _ in range(8)]
        ids_b = [b.lorm.random_node().cid for _ in range(8)]
        assert ids_a != ids_b

    def test_by_name(self, loaded_bundle):
        assert loaded_bundle.by_name("LORM") is loaded_bundle.lorm
        assert loaded_bundle.by_name("MAAN") is loaded_bundle.maan
        with pytest.raises(KeyError):
            loaded_bundle.by_name("Pastry")

    def test_set_collect_matches_toggles_everywhere(self, tiny_config):
        bundle = build_services(tiny_config, register=False)
        bundle.set_collect_matches(False)
        assert all(not s.collect_matches for s in bundle.all())
        bundle.set_collect_matches(True)
        assert all(s.collect_matches for s in bundle.all())

    def test_mercury_rejects_salting(self, tiny_config):
        # Mercury has no attribute root: salts would change nothing.
        with pytest.raises(ValueError, match="no attribute root"):
            build_service(tiny_config, "Mercury", register=False, salting=3)

    def test_full_ring_used_when_population_is_power_of_two(self, tiny_config):
        # d=5 -> population 160; with chord_bits=8 the ring is sparse.
        bundle = build_services(tiny_config, register=False)
        assert bundle.sword.ring.num_nodes == 160
        assert bundle.sword.ring.space.size == 256


class TestOneConstructionPath:
    @pytest.mark.parametrize(
        "overlay,replication,seed_offset",
        [(None, 2, 0), ("record", 2, 0), ("singlehop", 1, 5)],
    )
    def test_bundle_single_and_traced_builds_agree(
        self, tiny_config, overlay, replication, seed_offset
    ):
        """``build_services`` and ``build_traced_service`` are
        ``build_service`` per system: same membership, same placement,
        same first answer."""
        knobs = {"overlay": overlay, "durability": successor_replication(replication)}
        bundle = build_services(tiny_config, seed_offset=seed_offset, **knobs)
        mq = next(iter(bundle.workload.query_stream(1, 2, QueryKind.RANGE, label="same")))

        def fingerprint(service):
            return (
                overlay_of(service).node_ids,
                service.directory_sizes(),
                service.multi_query(mq),
            )

        for name in SYSTEM_NAMES:
            expected = fingerprint(bundle.by_name(name))
            single = build_service(tiny_config, name, seed_offset=seed_offset, **knobs)
            assert fingerprint(single) == expected, name
        if seed_offset == 0:  # a trace replays one copy per key, no offset
            plain = build_services(tiny_config, overlay=overlay)
            for name in SYSTEM_NAMES:
                traced, _, _ = build_traced_service(name, tiny_config, overlay=overlay)
                assert fingerprint(traced) == fingerprint(plain.by_name(name)), name


#: The construction path's parameters.  Each one exists because two
#: product callers pass it different values; a knob that comes back, or a
#: new one, fails here by name.  Redundancy is stated once, as
#: ``durability`` (``None`` = ``successor_replication(1)``).
CONSTRUCTION_SURFACE = {
    build_service: (
        "config", "name", "workload", "register", "salting", "overlay", "fanout",
        "durability", "seed_offset",
    ),
    build_services: ("config", "register", "seed_offset", "durability", "overlay", "fanout"),
    build_ring: ("bits", "num_nodes", "seed", "stream", "durability", "ring_factory"),
    ChordBackedService.build: (
        "bits", "num_nodes", "schema", "seed", "durability", "ring_factory", "kwargs",
    ),
    LormService.build_full: ("dimension", "schema", "seed", "durability", "kwargs"),
    LormService.build_flat: (
        "dimension", "schema", "seed", "durability", "ring_factory", "population", "kwargs",
    ),
    ChordRing.__init__: ("self", "bits", "routing_cache", "durability"),
    CycloidOverlay.__init__: ("self", "dimension", "routing_mode", "routing_cache", "durability"),
}


@pytest.mark.parametrize(
    "builder", CONSTRUCTION_SURFACE, ids=lambda builder: builder.__qualname__
)
def test_construction_surface(builder):
    assert tuple(inspect.signature(builder).parameters) == CONSTRUCTION_SURFACE[builder]
