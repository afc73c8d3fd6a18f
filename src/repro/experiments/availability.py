"""Availability experiment: query completeness under loss × replication.

An experiment axis the paper never explores: its churn study (Section V-C)
keeps the network perfectly reliable and notes "there were no failures in
all test cases".  Here every overlay first suffers a crash storm (a
fraction of nodes fail without handing off their keys, with periodic
replica repair), then answers the same multi-attribute workload while the
fault injector drops a configured fraction of messages.

A query is counted *complete* when its provider set equals the brute-force
ground truth over the full pre-crash workload — so both failure modes
register honestly: keys lost to crashes (the replication axis) and lookups
or walks that die under message loss (the retry/failover axis).  The
resulting curves show completeness vs. loss rate, one curve per approach ×
replication factor.
"""

from __future__ import annotations

from repro.analysis.models import AnalysisCurve
from repro.experiments.common import ServiceBundle, build_services, query_cases
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.sim.durability import successor_replication
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.invariants import overlay_of
from repro.sim.network import MessageStats
from repro.utils.seeding import SeedFactory

__all__ = ["run_availability", "measure_completeness"]

#: Fraction of nodes crashed before querying.
CRASH_FRACTION = 0.05


def measure_completeness(
    service,
    cases: list[tuple],
    injector: FaultInjector | None,
) -> float:
    """Fraction of ``(query, truth)`` cases answered exactly right.

    Attaches ``injector`` to the service (under its own lookup policy) for
    the duration of the measurement and always detaches it afterwards, so
    the service comes back fault-free.
    """
    if not cases:
        return 1.0
    service.configure_faults(injector)
    try:
        exact = sum(
            1 for query, truth in cases
            if service.multi_query(query).providers == truth
        )
    finally:
        service.configure_faults(None)
    return exact / len(cases)


def _crash_storm(bundle: ServiceBundle, config: ExperimentConfig) -> int:
    """Crash a fraction of every overlay's nodes, with periodic repair.

    Repair interleaves with the failures (every quarter of the storm) the
    way periodic replica maintenance would in a live system, then a final
    stabilize + repair pass restores routing state and replica counts.
    """
    crashes = max(1, round(CRASH_FRACTION * config.population))
    repair_every = max(1, crashes // 4)
    for service in bundle.all():
        overlay = overlay_of(service)
        for i in range(crashes):
            if not service.churn_fail():
                break
            if (i + 1) % repair_every == 0:
                service.stabilize()
                overlay.repair_replication()
        service.stabilize()
        overlay.repair_replication()
    return crashes


def run_availability(config: ExperimentConfig) -> FigureResult:
    """Query completeness vs. message-loss rate, per approach × replication."""
    seeds = SeedFactory(config.seed).fork("availability")
    result = FigureResult(
        figure_id="availability",
        title="Query completeness under message loss and crash failures",
        x_label="Message loss rate",
        y_label="Fraction of exactly-answered queries",
    )
    crashes = None
    spend: dict[str, MessageStats] = {}
    for replication in config.availability_replications:
        bundle = build_services(
            config, register=True, seed_offset=replication,
            durability=successor_replication(replication),
        )
        crashes = _crash_storm(bundle, config)
        cases = query_cases(bundle, config.num_availability_queries, "availability")
        spend.clear()
        for service in bundle.all():
            stats = overlay_of(service).network.stats
            before = stats.snapshot()
            completeness = []
            for loss in config.loss_rates:
                plan = FaultPlan(
                    loss_rate=loss,
                    seed=seeds.child_seed(
                        f"{service.name}:r{replication}:loss{loss}"
                    ),
                )
                completeness.append(
                    measure_completeness(service, cases, FaultInjector(plan))
                )
            # Only the loss windows run between the snapshots, so the
            # delta is the requester's fault spend across them.
            spend[service.name] = stats.delta_since(before)
            result.add(
                AnalysisCurve(
                    name=f"{service.name} r={replication}",
                    x=tuple(config.loss_rates),
                    y=tuple(completeness),
                )
            )
    result.notes.append(
        f"{crashes} crash failures per overlay before querying "
        f"({CRASH_FRACTION:.0%} of n={config.population}); "
        "periodic + final replica repair and stabilization."
    )
    result.notes.append(
        "Completeness = exact match against full-workload brute force, so it "
        "reflects both crash-lost keys (replication axis) and lookups/walks "
        "killed by message loss (retry/failover axis).  Loss 0 runs the "
        "fault-free code path."
    )
    if spend:
        spent = "; ".join(
            f"{name}: {delta.retries} retries, {delta.timeouts} timeouts, "
            f"{delta.dropped} drops"
            for name, delta in spend.items()
        )
        result.notes.append(
            f"requester fault spend across the r={replication} sweep "
            f"(faults.* counters): {spent}."
        )
    return result
