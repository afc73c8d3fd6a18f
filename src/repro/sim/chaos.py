"""Declarative chaos-scenario timelines for the discovery services.

A :class:`~repro.sim.faults.FaultPlan` is *static*: a loss rate that
holds for the whole run.  A :class:`ChaosScenario` is the timeline form —
faults that switch on and off at declared simulated times, compiled onto a
:class:`~repro.sim.engine.Simulator` and driven through the runtime
switches of a :class:`~repro.sim.faults.FaultInjector` and the service's
seeded churn entry points:

* :class:`PartitionWindow` — an identifier-arc partition armed at
  ``starts_at`` and disarmed (healed) at ``heals_at``.  Arcs are
  declared as *fractions* of the identifier space, so one scenario
  applies unchanged to a ``2**bits`` Chord ring and a ``d·2**d``
  linearized Cycloid overlay.
* :class:`CrashBurst` — a correlated batch of crash failures at one
  instant.
* :class:`NodeFlap` — a node that repeatedly crashes and rejoins on a
  fixed cadence (down/up cycles).

Everything is deterministic given the service's seeds: the *times* are
declared, and *which* node crashes or flaps is drawn from the service's
own seeded churn stream.  Scenarios are frozen data — install them on
as many (simulator, injector, service) triples as needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim.faults import ArcPartition
from repro.sim.invariants import overlay_of
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultInjector

__all__ = [
    "PartitionWindow",
    "CrashBurst",
    "NodeFlap",
    "ChaosScenario",
    "network_ids_of",
    "slow_victims",
    "DEMO_SCENARIO",
    "CRASH_STORM_SCENARIO",
]


def network_ids_of(overlay: Any) -> list[int]:
    """Every live node's identifier in the *network's* integer space.

    Chord node IDs are already ring integers; Cycloid ``(k, a)`` IDs are
    linearized — the same mapping the fault path hands to
    ``deliver_first``, so fail-slow marks land on the IDs messages
    actually travel between.
    """
    # int(): ring ids built from numpy draws stay numpy integers.
    return sorted(int(overlay.uid_of(node)) for node in overlay.nodes())


def slow_victims(overlay: Any, fraction: float) -> list[int]:
    """The deterministic gray-failure victim set: ``fraction`` of the live
    population, evenly strided across the sorted identifier list.

    Deterministic (no RNG) so the tail sweeps ``mark_slow`` comparable
    victim sets on every overlay — the victims are a pure function of
    membership.
    """
    require(0.0 <= fraction <= 1.0, "slow fraction must be in [0, 1]")
    ids = network_ids_of(overlay)
    count = round(fraction * len(ids))
    if count <= 0:
        return []
    stride = len(ids) / count
    return [ids[min(int(i * stride), len(ids) - 1)] for i in range(count)]


@dataclass(frozen=True)
class PartitionWindow:
    """An ID-arc partition active during ``[starts_at, heals_at)``.

    ``lo_frac``/``hi_frac`` locate the clockwise arc as fractions of the
    identifier space; the concrete :class:`ArcPartition` is materialised
    per overlay at install time.
    """

    lo_frac: float
    hi_frac: float
    starts_at: float
    heals_at: float

    def __post_init__(self) -> None:
        require(0.0 <= self.lo_frac <= 1.0, "lo_frac must be in [0, 1]")
        require(0.0 <= self.hi_frac <= 1.0, "hi_frac must be in [0, 1]")
        require(self.starts_at >= 0, "partitions cannot start before t=0")
        require(self.heals_at > self.starts_at, "heals_at must follow starts_at")

    def arc_for(self, space: int) -> ArcPartition:
        """The concrete arc on an identifier space of ``space`` ids."""
        return ArcPartition(
            lo=int(self.lo_frac * (space - 1)),
            hi=int(self.hi_frac * (space - 1)),
            space=space,
        )


@dataclass(frozen=True)
class CrashBurst:
    """``count`` correlated crash failures striking at time ``at``."""

    at: float
    count: int

    def __post_init__(self) -> None:
        require(self.at >= 0, "bursts cannot strike before t=0")
        require(self.count >= 1, "a burst needs at least one crash")


@dataclass(frozen=True)
class NodeFlap:
    """A flapping node: crash at ``first_down + i*period``, rejoin half a
    period later, for ``cycles`` cycles."""

    first_down: float
    period: float
    cycles: int = 2

    def __post_init__(self) -> None:
        require(self.first_down >= 0, "flaps cannot start before t=0")
        require(self.period > 0, "flap period must be positive")
        require(self.cycles >= 1, "a flap needs at least one cycle")

    def down_times(self) -> list[float]:
        return [self.first_down + i * self.period for i in range(self.cycles)]

    def up_times(self) -> list[float]:
        return [t + self.period / 2 for t in self.down_times()]


@dataclass(frozen=True)
class ChaosScenario:
    """A seeded, declarative fault timeline.

    Frozen data: one scenario installs identically onto any number of
    (simulator, injector, service) triples — that is what lets the
    recovery experiment subject all four systems to the *same* chaos.
    """

    name: str = "chaos"
    partitions: tuple[PartitionWindow, ...] = ()
    bursts: tuple[CrashBurst, ...] = ()
    flaps: tuple[NodeFlap, ...] = ()

    def fault_times(self) -> list[float]:
        """Every fault *onset* instant, sorted (recovery clocks start here)."""
        times: set[float] = set()
        times.update(w.starts_at for w in self.partitions)
        times.update(b.at for b in self.bursts)
        for flap in self.flaps:
            times.update(flap.down_times())
        return sorted(times)

    def heal_times(self) -> list[float]:
        """Every instant a fault source switches off, sorted."""
        times: set[float] = set()
        times.update(w.heals_at for w in self.partitions)
        for flap in self.flaps:
            times.update(flap.up_times())
        return sorted(times)

    def horizon(self) -> float:
        """Earliest time by which every declared fault has struck and healed."""
        last = 0.0
        for t in self.fault_times() + self.heal_times():
            last = max(last, t)
        return last

    def install(
        self,
        sim: "Simulator",
        injector: "FaultInjector",
        service: Any,
    ) -> int:
        """Compile the timeline onto ``sim``; returns events scheduled.

        Partitions arm/disarm on the injector, sized to the service's
        overlay identifier space; bursts and flap-downs crash through
        ``service.churn_fail`` (so churn guards and seeded victim
        selection apply); flap-ups rejoin through ``service.churn_join``.
        """
        space = overlay_of(service).id_space_size
        scheduled = 0

        for window in self.partitions:
            arc = window.arc_for(space)
            sim.schedule_at(
                window.starts_at,
                (lambda a=arc: injector.arm_partition(a)),
                name=f"{self.name}:partition-arm",
            )
            sim.schedule_at(
                window.heals_at,
                (lambda a=arc: injector.disarm_partition(a)),
                name=f"{self.name}:partition-heal",
            )
            scheduled += 2

        for burst in self.bursts:
            for _ in range(burst.count):
                sim.schedule_at(burst.at, service.churn_fail, name=f"{self.name}:burst")
                scheduled += 1

        for flap in self.flaps:
            for t in flap.down_times():
                sim.schedule_at(t, service.churn_fail, name=f"{self.name}:flap-down")
                scheduled += 1
            for t in flap.up_times():
                sim.schedule_at(t, service.churn_join, name=f"{self.name}:flap-up")
                scheduled += 1

        return scheduled


#: The acceptance-criteria demo: a partition that heals, then a
#: correlated crash burst — availability dips during each fault and must
#: reconverge under budgeted maintenance (and must *not* under budget=0).
DEMO_SCENARIO = ChaosScenario(
    name="demo",
    partitions=(PartitionWindow(lo_frac=0.0, hi_frac=0.25, starts_at=2.0, heals_at=6.0),),
    bursts=(CrashBurst(at=8.0, count=10),),
    flaps=(NodeFlap(first_down=10.0, period=4.0, cycles=1),),
)

#: Pure correlated crash pressure, no partitions: two back-to-back bursts
#: with a flap between them.  The durability-policy sweep's second
#: scenario — where copies *live* (successor chain vs spread) and how many
#: holders a piece can lose decide whether anything is lost at all, with
#: no network faults to muddy the attribution.
CRASH_STORM_SCENARIO = ChaosScenario(
    name="crash-storm",
    bursts=(CrashBurst(at=2.0, count=12), CrashBurst(at=10.0, count=12)),
    flaps=(NodeFlap(first_down=16.0, period=4.0, cycles=1),),
)
