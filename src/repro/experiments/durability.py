"""Durability experiment: redundancy policies × chaos scenarios.

The recovery experiment fixes the redundancy scheme and sweeps the
maintenance budget; this one fixes the budget and sweeps the
:class:`~repro.sim.durability.DurabilityPolicy` — successor-list
replication (the seed scheme), symmetric spread replication and a
``(k, m)`` erasure code — through chaos timelines, asking the questions
Leslie's storage analysis poses:

* **durability** — how many decodable pieces did the timeline destroy
  outright (before/after policy census)?
* **time-to-recover** — how long until the survivors are fully redundant
  again (data TTR: structural invariants + zero replica deficit, with
  the availability floor at 0.0 so genuinely lost pieces do not mask the
  healing of the rest)?
* **repair bandwidth** — how many piece-equivalents did budgeted
  anti-entropy move to get there (copies moved × fragment weight — an
  erasure fragment costs ``1/k`` of a piece)?

Every (system, policy, scenario) cell is seeded and independent: one
service bundle per (policy, scenario), the same probe workload, the same
default maintenance budget and cadence as the chaos demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.common import build_services, query_cases
from repro.experiments.config import ExperimentConfig
from repro.experiments.recovery import HORIZON, chaos_trial
from repro.experiments.report import CellTable
from repro.sim.chaos import CRASH_STORM_SCENARIO, DEMO_SCENARIO, ChaosScenario
from repro.sim.durability import DEFAULT_POLICY_SPECS, DurabilityPolicy, parse_policy
from repro.sim.invariants import directory_census, overlay_of
from repro.sim.maintenance import DEFAULT_BUDGET, MaintenanceScheduler

__all__ = [
    "DurabilityCell",
    "DurabilityResult",
    "run_durability",
    "DEFAULT_SCENARIOS",
    "DEFAULT_SYSTEMS",
]

#: The chaos timelines every policy is subjected to.
DEFAULT_SCENARIOS: tuple[ChaosScenario, ...] = (DEMO_SCENARIO, CRASH_STORM_SCENARIO)

#: One Cycloid-backed and one Chord-backed system keep the sweep honest
#: about both overlay substrates without quadrupling its cost.
DEFAULT_SYSTEMS: tuple[str, ...] = ("LORM", "Mercury")


@dataclass(frozen=True)
class DurabilityCell:
    """One (system, policy, scenario) outcome."""

    system: str
    policy: str
    scenario: str
    #: Decodable pieces in the policy census before any fault.
    pieces_before: int
    #: Pieces the timeline destroyed outright (census shrinkage).
    pieces_lost: int
    #: Worst per-fault data time-to-recover (inf = never healed).
    ttr: float
    #: Replica deficit integrated over the timeline.
    deficit_area: float
    min_availability: float
    final_availability: float
    #: Raw copies moved by every maintenance round's repair leg.
    repair_copies: int
    #: ``repair_copies`` weighted by fragment cost (piece-equivalents).
    repair_bandwidth: float
    #: Bytes stored per byte of data when fully placed.
    storage_overhead: float
    #: Data recovery: every fault healed (finite TTR) and the final
    #: sample is structurally clean with zero replica deficit.
    recovered: bool

    @property
    def ok(self) -> bool:
        return self.recovered and math.isfinite(self.ttr)


@dataclass
class DurabilityResult(CellTable):
    """The full policy × scenario sweep."""

    name = "durability"
    title = (
        "durability: redundancy policies under chaos "
        "(TTR/recovered = data recovery, availability floor 0)"
    )
    cell_type = DurabilityCell
    key_fields = ("system", "policy", "scenario")
    columns = (
        ("system", lambda c: c.system),
        ("policy", lambda c: c.policy),
        ("scenario", lambda c: c.scenario),
        ("pieces", lambda c: str(c.pieces_before)),
        ("lost", lambda c: str(c.pieces_lost)),
        ("TTR", lambda c: "never" if math.isinf(c.ttr) else f"{c.ttr:.1f}s"),
        ("deficit area", lambda c: f"{c.deficit_area:.0f}"),
        ("min avail", lambda c: f"{c.min_availability:.2f}"),
        ("final avail", lambda c: f"{c.final_availability:.2f}"),
        ("repair copies", lambda c: str(c.repair_copies)),
        ("repair BW", lambda c: f"{c.repair_bandwidth:.1f}"),
        ("overhead", lambda c: f"{c.storage_overhead:.2f}"),
        ("recovered", lambda c: "yes" if c.recovered else "NO"),
    )

    @property
    def ok(self) -> bool:
        """Every cell recovered its surviving data within the horizon."""
        return bool(self.cells) and all(cell.ok for cell in self.cells)


def _census_size(service, policy: DurabilityPolicy) -> int:
    overlay = overlay_of(service)
    return sum(directory_census(overlay, policy).values())


def run_durability(
    config: ExperimentConfig,
    *,
    policies: tuple[DurabilityPolicy, ...] | None = None,
    scenarios: tuple[ChaosScenario, ...] = DEFAULT_SCENARIOS,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
) -> DurabilityResult:
    """Sweep durability policies × chaos scenarios over ``systems``.

    One freshly built bundle per (policy, scenario) — chaos mutates the
    overlays, so cells never share state — with the default maintenance
    budget on the tightest configured cadence, exactly like the chaos
    demo.  ``policies=None`` runs :data:`~repro.sim.durability.
    DEFAULT_POLICY_SPECS` (successor replication, symmetric replication
    and a (2, 1) erasure code).
    """
    if policies is None:
        policies = tuple(parse_policy(spec) for spec in DEFAULT_POLICY_SPECS)
    interval = min(config.maintenance_intervals)
    result = DurabilityResult(config=config)
    for scenario in scenarios:
        horizon = max(HORIZON, scenario.horizon() + 4 * interval)
        for policy in policies:
            bundle = build_services(config, register=True, durability=policy)
            cases = query_cases(bundle, config.num_recovery_queries, "recovery")
            for name in systems:
                service = bundle.by_name(name)
                before = _census_size(service, policy)
                scheduler = MaintenanceScheduler(service, DEFAULT_BUDGET, interval)
                tracker = chaos_trial(
                    service, cases, scenario,
                    interval=interval,
                    horizon=horizon,
                    injector_seed=config.seed,
                    availability_floor=0.0,
                    scheduler=scheduler,
                )
                after = _census_size(service, policy)
                timeline = tracker.availability_timeline()
                result.cells.append(DurabilityCell(
                    system=name,
                    policy=policy.name,
                    scenario=scenario.name,
                    pieces_before=before,
                    pieces_lost=max(0, before - after),
                    ttr=tracker.time_to_reconverge(),
                    deficit_area=tracker.deficit_area(),
                    min_availability=min(a for _, a in timeline),
                    final_availability=timeline[-1][1],
                    repair_copies=scheduler.copies_moved,
                    repair_bandwidth=scheduler.copies_moved * policy.fragment_weight,
                    storage_overhead=policy.storage_overhead,
                    recovered=tracker.reconverged,
                ))
    result.notes.append(
        f"default maintenance budget every {interval:g}s; availability floor "
        "0.0 — TTR clocks data recovery (structure + zero replica deficit), "
        "availability is reported alongside; repair BW = copies moved × "
        "fragment weight (an erasure fragment costs 1/k of a piece)."
    )
    result.notes.append(
        "policies: " + ", ".join(
            f"{p.name} (overhead {p.storage_overhead:g}x)" for p in policies
        )
        + "; scenarios: " + ", ".join(s.name for s in scenarios)
        + "; systems: " + ", ".join(systems) + "."
    )
    return result
