"""Tail-latency experiment: gray failures × requester policies.

The loss experiments ask *whether* queries survive faults; this one asks
how long they take when nodes fail *slow* instead of failing stop.  Every
cell attaches a lognormal per-message latency model (median = the seed's
``hop_latency``) and marks a fraction of nodes gray-failing — their
messages take ``tail_slow_multiplier``× longer with probability
``tail_intermittency`` — then measures the response-time distribution of
multi-attribute range queries under three requester policies:

* **fixed** — the seed behaviour: a constant retransmission timeout;
* **adaptive** — RTT-estimator timeouts (EWMA + p95 window, Jacobson/
  Karels style), so retransmission rounds stop paying the worst-case wait;
* **hedged** — adaptive timeouts plus a backup request fired at the
  observed p95, first response wins ("the tail at scale" defense —
  effective precisely because gray failures are intermittent).

The headline acceptance check: at the highest swept slow-node fraction the
hedged policy must cut p99 response time at least 2× versus the fixed
policy on LORM and SWORD, meet the p99 SLO, and keep its hedge overhead
(extra messages) bounded.  All three policies are *result-transparent* —
owners, matches and completeness are identical; only time differs — which
the property suite verifies independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import CellTable
from repro.sim.chaos import slow_victims
from repro.sim.faults import (
    ADAPTIVE_POLICY,
    DEFAULT_POLICY,
    HEDGED_POLICY,
    FaultInjector,
    FaultPlan,
)
from repro.sim.invariants import overlay_of
from repro.sim.latency import LognormalLatency
from repro.utils.seeding import SeedFactory
from repro.workloads.generator import QueryKind

__all__ = ["TailCell", "TailResult", "run_tail", "POLICIES", "HEADLINE_SYSTEMS"]

#: The requester policies swept, in report order.
POLICIES = (
    ("fixed", DEFAULT_POLICY),
    ("adaptive", ADAPTIVE_POLICY),
    ("hedged", HEDGED_POLICY),
)

#: Systems the ≥2× p99 headline is asserted on (ISSUE 8 acceptance).
HEADLINE_SYSTEMS = ("LORM", "SWORD")

#: Maximum tolerated hedge overhead: hedged (backup) messages as a
#: fraction of all messages in the measurement window.
MAX_HEDGE_OVERHEAD = 0.25

#: Required p99 improvement of hedged over fixed at the headline fraction.
HEADLINE_SPEEDUP = 2.0

#: Attributes per measured query.
QUERY_ATTRIBUTES = 3


@dataclass(frozen=True)
class TailCell:
    """One (system, slow fraction, policy) measurement."""

    system: str
    slow_fraction: float
    policy: str
    p50: float
    p99: float
    p999: float
    mean: float
    #: Measured queries in the cell.
    queries: int
    #: Message-stat deltas over the measurement window.
    messages: int
    timeouts: int
    retries: int
    hedges: int
    hedges_won: int

    @property
    def hedge_overhead(self) -> float:
        """Backup messages as a fraction of all messages in the window."""
        if self.messages <= 0:
            return 0.0
        return self.hedges / self.messages


@dataclass
class TailResult(CellTable):
    """The full system × fraction × policy sweep plus the SLO verdict."""

    name = "tail"
    title = (
        "tail latency: gray failures x requester policies "
        "(lognormal per-message latency)"
    )
    cell_type = TailCell
    key_fields = ("system", "slow_fraction", "policy")
    columns = (
        ("system", lambda c: c.system),
        ("slow", lambda c: f"{c.slow_fraction:.0%}"),
        ("policy", lambda c: c.policy),
        ("p50 ms", lambda c: f"{c.p50 * 1000:.0f}"),
        ("p99 ms", lambda c: f"{c.p99 * 1000:.0f}"),
        ("p99.9 ms", lambda c: f"{c.p999 * 1000:.0f}"),
        ("mean ms", lambda c: f"{c.mean * 1000:.0f}"),
        ("timeouts", lambda c: str(c.timeouts)),
        ("hedges", lambda c: str(c.hedges)),
        ("won", lambda c: str(c.hedges_won)),
        ("hedge ovh", lambda c: f"{c.hedge_overhead:.1%}"),
    )

    @property
    def headline_fraction(self) -> float:
        """The slow-node fraction the verdict is computed at (the highest
        fraction swept; the config requires one above 0)."""
        return max(self.config.tail_slow_fractions)

    def speedup(self, system: str) -> float:
        """p99(fixed) / p99(hedged) at the headline fraction."""
        fraction = self.headline_fraction
        fixed = self.cell(system, fraction, "fixed").p99
        hedged = self.cell(system, fraction, "hedged").p99
        if hedged <= 0.0:
            return float("inf") if fixed > 0.0 else 1.0
        return fixed / hedged

    @property
    def ok(self) -> bool:
        """The ISSUE 8 headline: ≥2× p99 cut on LORM and SWORD under the
        gray-failure fraction, hedged p99 within the SLO, hedge overhead
        bounded."""
        if not self.cells:
            return False
        for system in HEADLINE_SYSTEMS:
            try:
                hedged = self.cell(system, self.headline_fraction, "hedged")
            except KeyError:
                return False
            if self.speedup(system) < HEADLINE_SPEEDUP:
                return False
            if hedged.p99 > self.config.tail_slo_p99:
                return False
        if any(
            c.hedge_overhead > MAX_HEDGE_OVERHEAD
            for c in self.cells
            if c.policy == "hedged"
        ):
            return False
        return True

    def verdict_lines(self) -> list[str]:
        fraction = self.headline_fraction
        lines = []
        for system in HEADLINE_SYSTEMS:
            try:
                speedup = self.speedup(system)
                hedged = self.cell(system, fraction, "hedged")
            except KeyError:
                continue
            verdict = (
                "ok"
                if speedup >= HEADLINE_SPEEDUP
                and hedged.p99 <= self.config.tail_slo_p99
                else "MISS"
            )
            lines.append(
                f"{system} @ {fraction:.0%} slow: p99 "
                f"{self.cell(system, fraction, 'fixed').p99 * 1000:.0f} ms "
                f"(fixed) -> {hedged.p99 * 1000:.0f} ms (hedged), "
                f"{speedup:.1f}x, SLO {self.config.tail_slo_p99 * 1000:.0f} "
                f"ms: {verdict}"
            )
        lines.append(f"verdict: {'ok' if self.ok else 'SLO MISS'}")
        return lines


def _measure_cell(
    service,
    queries,
    starts,
    config: ExperimentConfig,
    fraction: float,
    policy_name: str,
    policy,
) -> TailCell:
    """Run one (system, fraction, policy) cell on a shared bundle.

    The cell attaches its own seeded latency model and gray-failure
    injector, warms the RTT estimators on ``tail_warmup`` queries, then
    measures the rest.  Queries never mutate the overlay, so cells can
    share one bundle; faults and the latency model are detached on exit.
    """
    net = overlay_of(service).network
    # One latency seed per (system, fraction): policies face the same
    # base-latency randomness, so differences are pure policy effect
    # (common-random-numbers variance reduction).
    cell_seed = SeedFactory(config.seed).child_seed(
        f"tail:{service.name}:{fraction:g}"
    ) % (2**31)
    model = LognormalLatency(
        median=net.hop_latency, sigma=config.tail_sigma, seed=cell_seed
    )
    injector = FaultInjector(FaultPlan(seed=cell_seed))
    if fraction > 0.0:
        for victim in slow_victims(overlay_of(service), fraction):
            injector.mark_slow(
                victim, config.tail_slow_multiplier, config.tail_intermittency
            )
    service.configure_faults(injector, policy)
    service.configure_latency(model)
    try:
        for q, start in zip(queries[: config.tail_warmup],
                            starts[: config.tail_warmup]):
            service.multi_query(q, start)
        before = net.stats.snapshot()
        samples = []
        for q, start in zip(queries[config.tail_warmup:],
                            starts[config.tail_warmup:]):
            samples.append(service.multi_query(q, start).latency)
        delta = net.stats.delta_since(before)
    finally:
        service.configure_latency(None)
        service.configure_faults(None, DEFAULT_POLICY)
    data = np.asarray(samples)
    return TailCell(
        system=service.name,
        slow_fraction=fraction,
        policy=policy_name,
        p50=float(np.percentile(data, 50)),
        p99=float(np.percentile(data, 99)),
        p999=float(np.percentile(data, 99.9)),
        mean=float(data.mean()),
        queries=len(samples),
        messages=delta.messages,
        timeouts=delta.timeouts,
        retries=delta.retries,
        hedges=delta.hedges,
        hedges_won=delta.hedges_won,
    )


def run_tail(config: ExperimentConfig) -> TailResult:
    """Sweep system × slow-node fraction × requester policy.

    One shared bundle (queries don't mutate the overlays); per cell a
    fresh seeded lognormal latency model and gray-failure injector.  Every
    cell of one system replays the identical ``(query, entry-node)``
    pairs, so policies are compared on exactly the same work.
    """
    bundle = build_services(config)
    bundle.set_collect_matches(False)
    total = config.tail_warmup + config.tail_queries
    queries = list(
        bundle.workload.query_stream(
            total, QUERY_ATTRIBUTES, QueryKind.RANGE, label="tail"
        )
    )
    result = TailResult(config=config)
    for service in bundle.all():
        # Fixed entry nodes per system: every cell replays the same pairs.
        starts = [service.random_node() for _ in range(total)]
        for fraction in config.tail_slow_fractions:
            for policy_name, policy in POLICIES:
                result.cells.append(_measure_cell(
                    service, queries, starts, config,
                    fraction, policy_name, policy,
                ))
    result.notes.append(
        f"lognormal latency, median {bundle.lorm.overlay.network.hop_latency * 1000:.0f} "
        f"ms/hop, sigma {config.tail_sigma:g}; gray nodes x{config.tail_slow_multiplier:g} "
        f"with intermittency {config.tail_intermittency:g}; "
        f"{config.tail_queries} measured queries/cell after {config.tail_warmup} warmup."
    )
    result.notes.append(
        "policies are result-transparent (same owners/matches/completeness; "
        "verified by the property suite) — only response time and "
        "hedge/timeout accounting differ."
    )
    return result
