"""The fault layer's declared surface, as positive lists.

Every fault kind has one declaration path (``docs/architecture.md``,
"Fault model"); an option added here without an experiment that selects
it has to edit this file, which is the point.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.overlay.base import Overlay
from repro.overlay.chord import ChordRing
from repro.sim.chaos import ChaosScenario
from repro.sim.faults import FaultInjector, FaultPlan, LookupPolicy


def _fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _parameters(func) -> tuple[str, ...]:
    return tuple(inspect.signature(func).parameters)


def test_fault_plan_fields():
    assert _fields(FaultPlan) == ("loss_rate", "seed")


def test_fault_injector_public_names():
    injector = FaultInjector(FaultPlan())
    public = {name for name in dir(injector) if not name.startswith("_")}
    assert public == {
        "active",
        "delivered",
        "latency_factor",
        "arm_partition",
        "disarm_partition",
        "mark_slow",
    }
    assert _parameters(FaultInjector) == ("plan",)


def test_chaos_scenario_fields():
    assert _fields(ChaosScenario) == ("name", "partitions", "bursts", "flaps")


def test_lookup_policy_fields():
    assert _fields(LookupPolicy) == (
        "max_retries",
        "backoff_base",
        "failover",
        "adaptive_timeout",
        "hedge",
    )


def test_route_entry_points_take_no_per_call_policy():
    assert _parameters(Overlay.lookup) == ("self", "start", "key")
    assert _parameters(Overlay.walk) == ("self", "start", "lo", "hi")


def test_chord_ring_width_is_bounded_to_machine_words():
    ChordRing(62)
    with pytest.raises(ValueError, match=r"\[1, 62\]"):
        ChordRing(63)
