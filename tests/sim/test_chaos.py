"""Tests for the declarative chaos-scenario timeline."""

from __future__ import annotations

import pytest

from repro.baselines.mercury import MercuryService
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidOverlay
from repro.sim.chaos import (
    DEMO_SCENARIO,
    ChaosScenario,
    CrashBurst,
    NodeFlap,
    PartitionWindow,
    network_ids_of,
    slow_victims,
)
from repro.sim.durability import successor_replication
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan


class TestIdSpaceOf:
    """The identifier space partition arcs are sized to."""

    def test_chord_space(self):
        assert ChordRing(6).id_space_size == 64

    def test_cycloid_linearized_capacity(self):
        assert CycloidOverlay(3).id_space_size == 3 * 2**3


class TestPartitionWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionWindow(lo_frac=-0.1, hi_frac=0.5, starts_at=0, heals_at=1)
        with pytest.raises(ValueError):
            PartitionWindow(lo_frac=0.0, hi_frac=1.5, starts_at=0, heals_at=1)
        with pytest.raises(ValueError):
            PartitionWindow(lo_frac=0.0, hi_frac=0.5, starts_at=2.0, heals_at=2.0)

    def test_arc_scales_to_the_identifier_space(self):
        window = PartitionWindow(lo_frac=0.0, hi_frac=0.25, starts_at=0, heals_at=1)
        small = window.arc_for(64)
        big = window.arc_for(256)
        assert (small.lo, small.hi, small.space) == (0, 15, 64)
        assert (big.lo, big.hi, big.space) == (0, 63, 256)


class TestNodeFlap:
    def test_down_and_up_cadence(self):
        flap = NodeFlap(first_down=10.0, period=4.0, cycles=2)
        assert flap.down_times() == [10.0, 14.0]
        assert flap.up_times() == [12.0, 16.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFlap(first_down=1.0, period=0.0)
        with pytest.raises(ValueError):
            NodeFlap(first_down=1.0, period=2.0, cycles=0)


class TestChaosScenario:
    def test_fault_and_heal_times(self):
        scenario = ChaosScenario(
            partitions=(PartitionWindow(0.0, 0.25, starts_at=2.0, heals_at=6.0),),
            bursts=(CrashBurst(at=8.0, count=3),),
            flaps=(NodeFlap(first_down=10.0, period=4.0, cycles=1),),
        )
        assert scenario.fault_times() == [2.0, 8.0, 10.0]
        assert scenario.heal_times() == [6.0, 12.0]
        assert scenario.horizon() == 12.0

    def test_empty_scenario_is_inert(self):
        scenario = ChaosScenario()
        assert scenario.fault_times() == []
        assert scenario.heal_times() == []
        assert scenario.horizon() == 0.0

    def _service(self, schema) -> MercuryService:
        return MercuryService.build(6, 24, schema, seed=11, durability=successor_replication(2))

    def test_install_schedules_every_declared_event(self, schema):
        service = self._service(schema)
        injector = FaultInjector(FaultPlan())
        sim = Simulator()
        scenario = ChaosScenario(
            partitions=(PartitionWindow(0.0, 0.25, starts_at=2.0, heals_at=6.0),),
            bursts=(CrashBurst(at=8.0, count=3),),
            flaps=(NodeFlap(first_down=10.0, period=4.0, cycles=2),),
        )
        # 2 partition switches + 3 crashes + 2*(down+up).
        assert scenario.install(sim, injector, service) == 2 + 3 + 4
        assert sim.run() == 9

    def test_partition_arms_then_heals_at_declared_times(self, schema):
        service = self._service(schema)
        injector = FaultInjector(FaultPlan())
        sim = Simulator()
        scenario = ChaosScenario(
            partitions=(PartitionWindow(0.0, 0.25, starts_at=2.0, heals_at=6.0),)
        )
        scenario.install(sim, injector, service)
        sim.run_until(2.0)
        assert injector.active
        assert len(injector._partitions) == 1
        assert injector._partitions[0].space == 64
        sim.run_until(6.0)
        assert not injector.active
        assert injector._partitions == []

    def test_burst_and_flap_drive_seeded_churn(self, schema):
        service = self._service(schema)
        injector = FaultInjector(FaultPlan())
        sim = Simulator()
        population = service.ring.num_nodes
        scenario = ChaosScenario(
            bursts=(CrashBurst(at=1.0, count=3),),
            flaps=(NodeFlap(first_down=2.0, period=2.0, cycles=1),),
        )
        scenario.install(sim, injector, service)
        sim.run_until(2.0)  # burst + flap-down fired
        assert service.ring.num_nodes == population - 4
        sim.run_until(3.0)  # flap-up rejoined one node
        assert service.ring.num_nodes == population - 3

    def test_demo_scenario_shape(self):
        assert DEMO_SCENARIO.fault_times() == [2.0, 8.0, 10.0]
        assert DEMO_SCENARIO.horizon() == 12.0


class TestSlowEvents:
    def test_network_ids_linearize_cycloid(self):
        overlay = CycloidOverlay(3)
        overlay.build_full()
        ids = network_ids_of(overlay)
        assert len(ids) == overlay.num_nodes
        assert ids == sorted(ids)
        assert all(0 <= i < 3 * 2**3 for i in ids)

    def test_slow_victims_are_a_deterministic_stride(self, full_ring):
        victims = slow_victims(full_ring, 0.1)
        assert victims == slow_victims(full_ring, 0.1)
        assert len(victims) == round(0.1 * full_ring.num_nodes)
        assert set(victims) <= set(network_ids_of(full_ring))
        assert len(set(victims)) == len(victims)

    def test_zero_fraction_marks_nobody(self, full_ring):
        assert slow_victims(full_ring, 0.0) == []
