"""Recovery experiment: chaos timelines × budgeted maintenance.

The availability experiment measures a static fault level; here the
faults have a *timeline* — a partition that heals, a correlated crash
burst, a flapping node — and maintenance has a *cost*: each periodic
round spends a bounded :class:`~repro.sim.maintenance.MaintenanceBudget`
instead of the seed's free global sweeps.  Two entry points:

* :func:`run_chaos_demo` — the acceptance scenario.  All four systems
  live through the same seeded :data:`~repro.sim.chaos.DEMO_SCENARIO`
  twice: once under the default budget (every fault must heal — finite
  time-to-reconverge) and once under ``budget=0`` without the flap (the
  crash burst's replica deficit must *persist*, proving the harness
  detects non-recovery rather than assuming it; the flap's rejoin is left
  out because a join hands the rejoiner its copies, which is repair at
  the membership level).
* :func:`run_recovery` — the sweep figure: time-to-reconverge as a
  function of the maintenance-round interval, per approach × background
  churn rate R.

Everything is seeded; the same configuration renders byte-identical
reports on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.models import AnalysisCurve
from repro.experiments.common import build_services, query_cases
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.sim.chaos import DEMO_SCENARIO, ChaosScenario
from repro.sim.churn import ChurnProcess
from repro.sim.durability import successor_replication
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.maintenance import (
    DEFAULT_BUDGET,
    ZERO_BUDGET,
    MaintenanceBudget,
    MaintenanceScheduler,
)
from repro.sim.recovery import RecoveryTracker
from repro.utils.formatting import render_table
from repro.utils.seeding import SeedFactory

__all__ = ["run_chaos_demo", "run_recovery", "ChaosDemoResult", "chaos_trial"]

#: Simulated horizon of one chaos trial (s); a scenario that runs longer
#: extends it.
HORIZON = 60.0

#: Health-sampling cadence of a chaos trial (s).
SAMPLE_INTERVAL = 2.0

#: Replication factor.  Must be >= 2 so crash bursts leave surviving
#: copies that witness the replica deficit.
REPLICATION = 2


def _availability_probe(service, cases: list[tuple]):
    """A probe closure: exact-answer fraction under the *current* faults.

    Unlike ``measure_completeness`` this does not attach or detach the
    injector — the chaos timeline owns the injector for the whole run and
    the probe must see whatever is armed right now.
    """
    def probe() -> float:
        if not cases:
            return 1.0
        exact = sum(
            1 for query, truth in cases
            if service.multi_query(query).providers == truth
        )
        return exact / len(cases)

    return probe


def chaos_trial(
    service,
    cases: list[tuple],
    scenario: ChaosScenario,
    *,
    budget: MaintenanceBudget = DEFAULT_BUDGET,
    interval: float = 2.0,
    horizon: float = 40.0,
    churn_rate: float = 0.0,
    churn_seed: int = 0,
    injector_seed: int = 0,
    availability_floor: float = 1.0,
    scheduler: MaintenanceScheduler | None = None,
) -> RecoveryTracker:
    """Run one service through ``scenario`` under budgeted maintenance.

    Event order at equal timestamps is fixed by installation order —
    chaos events, then background churn, then maintenance rounds, then
    health samples — so a maintenance round scheduled at a fault instant
    sees the damage and the sample after it sees the round's effect.
    Returns the populated :class:`RecoveryTracker`.

    ``availability_floor`` is forwarded to the tracker: 1.0 (default)
    demands exact availability to count as recovered; 0.0 tracks *data*
    recovery alone (structure + replica deficit) — what the durability
    experiment uses, since a policy that genuinely lost pieces can still
    heal its redundancy.  A caller-supplied ``scheduler`` (budget and
    interval pre-bound; this function installs it) lets the caller read
    ``scheduler.copies_moved`` afterwards — the repair traffic behind the
    durability experiment's bandwidth column.
    """
    sim = Simulator()
    injector = FaultInjector(FaultPlan(seed=injector_seed))
    service.configure_faults(injector)
    tracker = RecoveryTracker(
        service, _availability_probe(service, cases), availability_floor=availability_floor
    )
    for onset in scenario.fault_times():
        tracker.note_fault(onset)
    try:
        scenario.install(sim, injector, service)
        if churn_rate > 0.0:
            process = ChurnProcess(
                churn_rate, SeedFactory(churn_seed).numpy("recovery-churn")
            )
            process.install(sim, horizon, service.churn_join, service.churn_leave)
        if scheduler is None:
            scheduler = MaintenanceScheduler(service, budget, interval)
        scheduler.install(sim, horizon)
        tracker.install(sim, horizon, SAMPLE_INTERVAL)
        sim.run_until(horizon)
    finally:
        service.configure_faults(None)
    return tracker


def _fmt_time(t: float) -> str:
    return "never" if math.isinf(t) else f"{t:.1f}s"


@dataclass
class ChaosDemoResult:
    """The acceptance-demo outcome: budgeted vs. zero-budget recovery."""

    figure: FigureResult
    #: service name -> tracker, under the default budget.
    budgeted: dict = field(default_factory=dict)
    #: service name -> tracker, under ZERO_BUDGET and the scenario less
    #: its flaps.
    unbudgeted: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The demo's contract: every system heals under the default
        budget, *no* system heals from the partition and the burst with
        maintenance disabled, and every system's availability visibly
        dipped during the faults."""
        if not self.budgeted or not self.unbudgeted:
            return False
        healed = all(t.reconverged for t in self.budgeted.values())
        stuck = all(not t.reconverged for t in self.unbudgeted.values())
        dipped = all(
            min(a for _, a in t.availability_timeline()) < 1.0
            for t in self.budgeted.values()
        )
        return healed and stuck and dipped

    def slo_table(self) -> str:
        """Per-system recovery SLO summary (both budget regimes)."""
        rows = []
        for name, tracker in self.budgeted.items():
            zero = self.unbudgeted[name]
            rows.append([
                name,
                _fmt_time(tracker.time_to_reconverge()),
                f"{tracker.deficit_area():.0f}",
                "yes" if tracker.reconverged else "NO",
                _fmt_time(zero.time_to_reconverge()),
                f"{zero.deficit_area():.0f}",
                "yes" if zero.reconverged else "NO",
            ])
        return render_table(
            ["system", "TTR", "deficit area", "reconverged",
             "TTR (budget=0)", "deficit area (b=0)", "reconverged (b=0)"],
            rows,
            title="chaos: recovery SLOs, default budget vs maintenance disabled",
        )

    def render(self) -> str:
        """Full text report: SLO table + availability timelines + notes."""
        return self.slo_table() + "\n\n" + self.figure.render()

    def save(self, directory) -> Path:
        """Persist alongside the figure's CSV/text output."""
        path = self.figure.save(directory)
        (Path(directory) / "chaos_slo.txt").write_text(self.render() + "\n")
        return path


def run_chaos_demo(config: ExperimentConfig) -> ChaosDemoResult:
    """The seeded acceptance demo over all four systems.

    One bundle per budget regime (identical seeds), the same scenario
    installed on every service; the ``budget=0`` control drops the
    scenario's flaps, since a rejoin refills the rejoiner's copies, so the
    two runs differ in maintenance and in that one rejoin.
    """
    scenario = DEMO_SCENARIO
    interval = min(config.maintenance_intervals)
    horizon = max(HORIZON, scenario.horizon() + 4 * interval)
    figure = FigureResult(
        figure_id="chaos",
        title=f"Lookup availability timeline under chaos ({scenario.name})",
        x_label="Simulated time (s)",
        y_label="Fraction of probe queries answered exactly",
    )
    result = ChaosDemoResult(figure=figure)
    for budget, into, faults in (
        (DEFAULT_BUDGET, result.budgeted, scenario),
        (ZERO_BUDGET, result.unbudgeted, replace(scenario, flaps=())),
    ):
        bundle = build_services(
            config, register=True, durability=successor_replication(REPLICATION)
        )
        cases = query_cases(bundle, config.num_recovery_queries, "recovery")
        for service in bundle.all():
            tracker = chaos_trial(
                service, cases, faults,
                budget=budget,
                interval=interval,
                horizon=horizon,
                injector_seed=config.seed,
            )
            into[service.name] = tracker
            if budget is DEFAULT_BUDGET:
                timeline = tracker.availability_timeline()
                figure.add(AnalysisCurve(
                    name=service.name,
                    x=tuple(t for t, _ in timeline),
                    y=tuple(a for _, a in timeline),
                ))
    fault_times = ", ".join(f"{t:g}s" for t in scenario.fault_times())
    figure.notes.append(
        f"scenario {scenario.name!r}: fault onsets at {fault_times}; "
        f"replication={REPLICATION}, maintenance every "
        f"{interval:g}s at the default budget, horizon {horizon:g}s."
    )
    figure.notes.append(
        "Recovery = structural invariants clean, replica deficit zero and "
        "probe availability back to 1.0.  The budget=0 control run, the "
        "same timeline without the flap (a rejoin refills its own copies), "
        "must NOT reconverge (the crash burst's replica deficit persists), "
        "proving non-recovery is detectable, not assumed."
    )
    return result


def run_recovery(config: ExperimentConfig) -> FigureResult:
    """Time-to-reconverge vs. maintenance interval, per approach × churn R.

    Background churn runs *on top of* the chaos timeline; the recovery
    clock still keys off the scenario's declared fault onsets.
    """
    seeds = SeedFactory(config.seed).fork("recovery")
    scenario = DEMO_SCENARIO
    result = FigureResult(
        figure_id="recovery",
        title="Time to reconverge vs maintenance interval (chaos timeline)",
        x_label="Maintenance round interval (s)",
        y_label="Time to reconverge (s; horizon+ = never)",
    )
    horizon = max(
        HORIZON,
        scenario.horizon() + 4 * max(config.maintenance_intervals),
    )
    #: Plot-able stand-in for "never recovered within the horizon".
    never = float(2 * horizon)
    stuck_cells = []
    for churn_rate in config.recovery_churn_rates:
        ttr_by_service: dict[str, list[float]] = {}
        for interval in config.maintenance_intervals:
            bundle = build_services(
                config, register=True,
                durability=successor_replication(REPLICATION),
                seed_offset=int(churn_rate * 100),
            )
            cases = query_cases(bundle, config.num_recovery_queries, "recovery")
            for service in bundle.all():
                tracker = chaos_trial(
                    service, cases, scenario,
                    budget=DEFAULT_BUDGET,
                    interval=interval,
                    horizon=horizon,
                    churn_rate=churn_rate,
                    churn_seed=seeds.child_seed(
                        f"{service.name}:R{churn_rate}:i{interval}"
                    ),
                    injector_seed=config.seed,
                )
                ttr = tracker.time_to_reconverge()
                if math.isinf(ttr):
                    stuck_cells.append(
                        f"{service.name} R={churn_rate:g} interval={interval:g}s"
                    )
                    ttr = never
                ttr_by_service.setdefault(service.name, []).append(ttr)
        for name, ttrs in ttr_by_service.items():
            result.add(AnalysisCurve(
                name=f"{name} R={churn_rate:g}",
                x=tuple(config.maintenance_intervals),
                y=tuple(ttrs),
            ))
    result.notes.append(
        f"Chaos scenario {scenario.name!r} under default per-round budgets; "
        f"replication={REPLICATION}; horizon {horizon:g}s; "
        f"cells that never reconverged are plotted at {never:g}s."
    )
    if stuck_cells:
        result.notes.append("never reconverged: " + "; ".join(stuck_cells))
    else:
        result.notes.append(
            "every approach reconverged at every swept interval and churn rate."
        )
    return result
