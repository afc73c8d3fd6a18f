"""Lookup-vs-maintenance tradeoff across routing tiers (``repro tradeoff``).

The source paper fixes every system at O(log n) routing; the single-hop
(D1HT) and randomized-Chord (ReCord) literature shows the real design
space is a *curve*: more routing state bought with more maintenance
traffic buys fewer lookup hops.  This experiment draws that curve — the
figure the paper never drew — by sweeping

* **overlay tier**: plain Chord, ReCord at each configured fan-out, and
  the single-hop full-membership ring;
* **maintenance budget**: zero, the default bounded budget, unlimited;

under common random numbers (same membership stream, same workload, same
query stream per cell), for all four discovery systems.  Each cell churns
the network (leave/join alternating, one budgeted maintenance round per
event), measures maintenance messages per event, then runs traced point
queries and reads mean lookup hops straight off the LOOKUP spans.  At
unlimited budget every trace is additionally pushed through the
:func:`~repro.testing.traces.assert_trace_bounds` oracle, so the headline
single-hop claim ("1 hop") is verified hop by hop, not just as a metric.

The verdict (:attr:`TradeoffResult.ok`, the CI gate):

* at unlimited budget, single-hop mean lookup hops ≤ 1.05 for **every**
  system, with every trace oracle-verified;
* at unlimited budget, ReCord mean hops are monotonically non-increasing
  in the fan-out (nested finger sampling makes the tables supersets);
* every overlay × budget cell reports maintenance msgs/event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import SYSTEM_NAMES, build_services, resolve_systems
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import CellTable
from repro.obs.spans import QueryTracer, SpanKind
from repro.sim.invariants import overlay_of
from repro.sim.maintenance import (
    DEFAULT_BUDGET,
    UNLIMITED_BUDGET,
    ZERO_BUDGET,
    MaintenanceBudget,
)
from repro.testing.traces import assert_trace_bounds
from repro.workloads.generator import QueryKind

__all__ = [
    "TradeoffCell",
    "TradeoffResult",
    "run_tradeoff",
    "select_points",
    "SINGLEHOP_MEAN_HOPS_GATE",
]

#: The CI gate on single-hop mean lookup hops at unlimited budget.
SINGLEHOP_MEAN_HOPS_GATE = 1.05

#: Budget registry names → the budgets they denote.
BUDGETS: dict[str, MaintenanceBudget] = {
    "zero": ZERO_BUDGET,
    "default": DEFAULT_BUDGET,
    "unlimited": UNLIMITED_BUDGET,
}


def overlay_points(config: ExperimentConfig) -> tuple[tuple[str, str, int], ...]:
    """The swept (label, overlay-name, fanout) points, cheap to costly."""
    points = [("chord", "chord", 2)]
    for fanout in config.tradeoff_fanouts:
        points.append((f"record:f{fanout}", "record", int(fanout)))
    points.append(("singlehop", "singlehop", 2))
    return tuple(points)


def select_points(
    config: ExperimentConfig, overlays: tuple[str, ...] | None
) -> tuple[tuple[str, str, int], ...]:
    """:func:`overlay_points` restricted to the labels in ``overlays``
    (``None`` keeps all); an unknown label is a ``ValueError`` naming the
    valid ones, raised before anything is built."""
    points = overlay_points(config)
    if overlays is None:
        return points
    wanted = {o.lower() for o in overlays}
    unknown = wanted - {p[0].lower() for p in points}
    if unknown:
        raise ValueError(
            f"unknown tradeoff overlay point(s) {sorted(unknown)}; valid: "
            f"{', '.join(p[0] for p in points)}"
        )
    return tuple(p for p in points if p[0].lower() in wanted)


@dataclass
class TradeoffCell:
    """One overlay × budget × system measurement."""

    overlay: str
    budget: str
    system: str
    #: Mean / max hops over every routed LOOKUP span of the query phase.
    mean_hops: float
    max_hops: int
    #: Mean per-lookup latency implied by the hop count (hops × hop RTT).
    mean_latency: float
    #: Maintenance messages per churn event (dissemination + repair +
    #: the joiner's table download — the cost axis of the curve).
    maintenance_per_event: float
    #: Lookup retries observed during the query phase (stale-view probes).
    retries: int
    queries: int
    lookups: int
    #: Every trace passed :func:`assert_trace_bounds` (unlimited-budget
    #: cells only; bounded budgets legitimately exceed the fault-free
    #: ceilings while routing state is stale).
    verified: bool


@dataclass
class TradeoffResult(CellTable):
    """The full sweep plus the gate verdict."""

    systems: tuple[str, ...] = field(kw_only=True)

    name = "tradeoff"
    title = (
        "tradeoff: lookup hops/latency vs maintenance bandwidth "
        "(common random numbers)"
    )
    cell_type = TradeoffCell
    key_fields = ("overlay", "budget", "system")
    columns = (
        ("overlay", lambda c: c.overlay),
        ("budget", lambda c: c.budget),
        ("system", lambda c: c.system),
        ("mean hops", lambda c: f"{c.mean_hops:.2f}"),
        ("max", lambda c: str(c.max_hops)),
        ("latency", lambda c: f"{c.mean_latency * 1000:.0f}ms"),
        ("maint/event", lambda c: f"{c.maintenance_per_event:.1f}"),
        ("retries", lambda c: str(c.retries)),
        ("verified", lambda c: "yes" if c.verified else "-"),
    )

    def mean_hops_over_systems(self, overlay: str, budget: str) -> float:
        hops = [c.mean_hops for c in self.cells
                if c.overlay == overlay and c.budget == budget]
        if not hops:
            raise KeyError(f"no cells ({overlay}, {budget})")
        return sum(hops) / len(hops)

    @property
    def record_labels(self) -> tuple[str, ...]:
        """ReCord point labels in increasing fan-out order."""
        return tuple(
            f"record:f{f}" for f in sorted(self.config.tradeoff_fanouts)
        )

    @property
    def ok(self) -> bool:
        if not self.cells:
            return False
        try:
            for system in self.systems:
                cell = self.cell("singlehop", "unlimited", system)
                if cell.mean_hops > SINGLEHOP_MEAN_HOPS_GATE or not cell.verified:
                    return False
            means = [
                self.mean_hops_over_systems(label, "unlimited")
                for label in self.record_labels
            ]
        except KeyError:
            return False
        if any(b > a + 1e-9 for a, b in zip(means, means[1:])):
            return False
        return all(
            c.maintenance_per_event >= 0.0 for c in self.cells
        )

    def verdict_lines(self) -> list[str]:
        lines = []
        try:
            worst = max(
                self.cell("singlehop", "unlimited", s).mean_hops
                for s in self.systems
            )
            lines.append(
                f"single-hop @ unlimited budget: worst mean hops "
                f"{worst:.3f} (gate <= {SINGLEHOP_MEAN_HOPS_GATE:g}: "
                f"{'ok' if worst <= SINGLEHOP_MEAN_HOPS_GATE else 'MISS'})"
            )
            means = [
                self.mean_hops_over_systems(label, "unlimited")
                for label in self.record_labels
            ]
            arrow = " -> ".join(f"{m:.2f}" for m in means)
            mono = all(b <= a + 1e-9 for a, b in zip(means, means[1:]))
            lines.append(
                f"ReCord mean hops vs fan-out @ unlimited: {arrow} "
                f"(monotone: {'ok' if mono else 'MISS'})"
            )
        except KeyError:
            lines.append("(sweep incomplete: verdict cells missing)")
        lines.append(f"verdict: {'ok' if self.ok else 'GATE MISS'}")
        return lines


def _measure_cell(
    config: ExperimentConfig,
    label: str,
    overlay: str,
    fanout: int,
    budget_name: str,
    systems: tuple[str, ...],
) -> tuple[list[TradeoffCell], float]:
    """All systems' cells for one overlay × budget point, plus the hop
    RTT their ``mean_latency`` was derived with."""
    budget = BUDGETS[budget_name]
    bundle = build_services(config, overlay=overlay, fanout=fanout)
    services = [bundle.by_name(name) for name in systems]
    queries = list(
        bundle.workload.query_stream(
            config.tradeoff_queries, 1, QueryKind.POINT, label="tradeoff"
        )
    )
    cells = []
    for service in services:
        network = overlay_of(service).network
        # Churn phase: alternating leave/join, one budgeted maintenance
        # round per event; everything the overlay sends to stay routable
        # (dissemination, finger refresh, the joiner's table download)
        # lands in the maintenance counter.
        before = network.stats.snapshot()
        events = 0
        for i in range(config.tradeoff_churn_events):
            if (i % 2 == 0 and service.churn_leave()) or (
                i % 2 == 1 and service.churn_join()
            ):
                events += 1
            service.stabilize(budget)
        maintenance = network.stats.delta_since(before).maintenance_messages
        per_event = maintenance / events if events else float(maintenance)

        # Query phase: traced point lookups; hops come off the spans.
        tracer = QueryTracer(max_traces=len(queries) + 8)
        service.attach_tracer(tracer)
        before = network.stats.snapshot()
        for mq in queries:
            service.multi_query(mq)
        retries = network.stats.delta_since(before).retries
        service.attach_tracer(None)

        hop_counts = []
        verified = budget_name == "unlimited"
        for trace in tracer.traces:
            for span in trace.spans_of(SpanKind.LOOKUP):
                hop_counts.append(len(span.hop_spans()))
            if budget_name == "unlimited":
                assert_trace_bounds(trace, service)
        mean_hops = sum(hop_counts) / len(hop_counts) if hop_counts else 0.0
        cells.append(
            TradeoffCell(
                overlay=label,
                budget=budget_name,
                system=service.name,
                mean_hops=mean_hops,
                max_hops=max(hop_counts) if hop_counts else 0,
                mean_latency=mean_hops * network.hop_latency,
                maintenance_per_event=per_event,
                retries=retries,
                queries=len(queries),
                lookups=len(hop_counts),
                verified=verified,
            )
        )
    return cells, network.hop_latency


def run_tradeoff(
    config: ExperimentConfig,
    *,
    systems: tuple[str, ...] | None = None,
    overlays: tuple[str, ...] | None = None,
) -> TradeoffResult:
    """The overlay × maintenance-budget sweep under common random numbers.

    ``overlays`` restricts the swept points by label (``chord``,
    ``record:f<N>``, ``singlehop``); the verdict needs the single-hop and
    every ReCord point at unlimited budget, so restricted sweeps report
    ``ok=False`` unless those survive.
    """
    systems = resolve_systems(systems) if systems else SYSTEM_NAMES
    points = select_points(config, overlays)
    result = TradeoffResult(config=config, systems=systems)
    hop_rtt = 0.0
    for label, overlay, fanout in points:
        for budget_name in BUDGETS:
            cells, hop_rtt = _measure_cell(
                config, label, overlay, fanout, budget_name, systems
            )
            result.cells.extend(cells)
    result.notes.append(
        f"{config.tradeoff_queries} point queries and "
        f"{config.tradeoff_churn_events} churn events per cell; "
        f"latency = mean hops x {hop_rtt:.2f}s hop RTT"
    )
    return result
