"""Differential correctness harness over the four discovery systems.

One seeded workload is replayed through LORM, Mercury, SWORD and MAAN and
every answer is compared against the brute-force oracle
(:meth:`~repro.workloads.generator.GridWorkload.matching_providers_bruteforce`):

* **exactness** — fault-free, every routed point / range /
  multi-attribute query must return exactly the oracle's provider set
  (after graceful churn too);
* **hop/visited bounds** — every sub-query stays within the service's
  structural ceilings (:meth:`DiscoveryService.subquery_hop_bound`), and
  the mean point-query hop count stays within 2x the theorem average
  (Theorems 4.7/4.8 closed forms);
* **invariants** — churn runs under :class:`~repro.sim.invariants.ChurnGuard`,
  so ring/link state, directory conservation and replica placement are
  validated at every event.

:func:`run_check` is the ``repro check`` CLI entry point: a fault-free
differential replay, a graceful-churn replay, and one guarded churn storm
(leave/join/fail/stabilize plus replica repair at replication 2, with a
deliberately duplicated piece so multiplicity handling is exercised).
Any divergence makes the report ``not ok`` and the CLI exit non-zero.
Per durability policy and per routing tier, churn is driven rule by rule
by the membership and service state machines in ``tests/properties/``;
this harness keeps what they do not check: answers against the
brute-force oracle at the experiments' scale, and hop counts against the
structural bounds and the Section IV theorems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.theorems import nonrange_query_hops_avg
from repro.core.resource import ResourceInfo
from repro.experiments.common import SYSTEM_NAMES, ServiceBundle, build_services
from repro.experiments.config import CHECK_CONFIG, ExperimentConfig
from repro.sim.durability import successor_replication
from repro.sim.invariants import (
    InvariantViolation,
    check_overlay,
    install_churn_guards,
    overlay_of,
)
from repro.workloads.generator import QueryKind

__all__ = [
    "CheckReport",
    "DifferentialReport",
    "Divergence",
    "run_check",
    "run_differential",
]

#: Mean point-query hops may exceed the theorem average by this factor
#: before the harness flags it (small populations are noisy).
MEAN_HOPS_SLACK = 2.0

_GRACEFUL_OPS = ("leave", "join", "stabilize")
_ALL_OPS = ("leave", "join", "fail", "stabilize")


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between a system and the oracle/bounds."""

    system: str
    kind: str  # result-set | incomplete | hop-bound |
    #            visited-bound | mean-hops | invariant
    detail: str
    query_index: int = -1

    def render(self) -> str:
        where = f" (query #{self.query_index})" if self.query_index >= 0 else ""
        return f"{self.system}: [{self.kind}]{where} {self.detail}"


@dataclass
class _SystemStats:
    queries: int = 0
    point_queries: int = 0
    point_hops: float = 0.0
    point_hops_expected: float = 0.0


@dataclass
class DifferentialReport:
    """Outcome of one differential replay."""

    systems: tuple[str, ...]
    num_queries: int
    churn_ops: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)
    stats: dict[str, _SystemStats] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"differential replay: {self.num_queries} queries x "
            f"{len(self.systems)} systems, {len(self.churn_ops)} churn ops, "
            f"replication 1"
        ]
        for name in self.systems:
            st = self.stats.get(name, _SystemStats())
            mean = st.point_hops / st.point_queries if st.point_queries else 0.0
            expected = (
                st.point_hops_expected / st.point_queries if st.point_queries else 0.0
            )
            bad = sum(1 for d in self.divergences if d.system == name)
            verdict = "ok" if not bad else f"{bad} divergence(s)"
            lines.append(
                f"  {name:8s} {st.queries:4d} queries  "
                f"mean point hops {mean:5.2f} (theorem avg {expected:5.2f})  "
                f"{verdict}"
            )
        for d in self.divergences:
            lines.append(f"  !! {d.render()}")
        return "\n".join(lines)


def _apply_op(service, op: str) -> None:
    if op == "leave":
        service.churn_leave()
    elif op == "join":
        service.churn_join()
    elif op == "fail":
        service.churn_fail()
    elif op == "stabilize":
        service.stabilize()
    else:
        raise ValueError(f"unknown churn op {op!r}")


def _query_mix(workload, num_queries: int, config: ExperimentConfig, label: str):
    """A deterministic mix of point / range / at-least multi-queries."""
    kinds = (QueryKind.POINT, QueryKind.RANGE, QueryKind.AT_LEAST)
    max_m = min(config.max_query_attributes, len(workload.schema))
    queries = []
    per_cell = num_queries // (len(kinds) * max_m) + 1
    for kind in kinds:
        for m in range(1, max_m + 1):
            queries.extend(
                workload.query_stream(per_cell, m, kind, label=f"{label}:{kind.value}")
            )
    # Interleave kinds/widths instead of running them in blocks.
    queries.sort(key=lambda q: q.requester)
    return queries[:num_queries]


def run_differential(
    *,
    systems: tuple[str, ...] = SYSTEM_NAMES,
    seed: int | None = None,
    num_queries: int = 60,
    churn_ops: tuple[str, ...] = (),
    label: str = "differential",
) -> DifferentialReport:
    """Replay one seeded workload, at ``CHECK_CONFIG`` scale, through
    ``systems`` against the oracle.

    ``churn_ops`` (names from leave/join/fail/stabilize) run before the
    replay, followed by a stabilization round.  Every answer must equal
    the oracle set — correct for fault-free runs and graceful churn — and
    every churn event is validated by a
    :class:`~repro.sim.invariants.ChurnGuard`.
    """
    config = CHECK_CONFIG if seed is None else CHECK_CONFIG.scaled(seed=seed)
    bundle: ServiceBundle = build_services(config)
    services = [bundle.by_name(name) for name in systems]
    for service in services:
        install_churn_guards(service)

    report = DifferentialReport(
        systems=tuple(systems),
        num_queries=num_queries,
        churn_ops=tuple(churn_ops),
        stats={name: _SystemStats() for name in systems},
    )
    dead: set[str] = set()

    def invariant_divergence(service, exc: InvariantViolation) -> None:
        report.divergences.append(
            Divergence(system=service.name, kind="invariant", detail=str(exc))
        )
        dead.add(service.name)

    for op in churn_ops:
        for service in services:
            if service.name in dead:
                continue
            try:
                _apply_op(service, op)
            except InvariantViolation as exc:
                invariant_divergence(service, exc)
    for service in services:
        if service.name in dead:
            continue
        try:
            service.stabilize()
        except InvariantViolation as exc:
            invariant_divergence(service, exc)

    queries = _query_mix(bundle.workload, num_queries, config, label=label)
    for qi, query in enumerate(queries):
        truth = bundle.workload.matching_providers_bruteforce(query)
        is_point = not query.is_range
        for service in services:
            if service.name in dead:
                continue
            st = report.stats[service.name]
            result = service.multi_query(query)
            st.queries += 1
            if not result.complete:
                report.divergences.append(
                    Divergence(
                        system=service.name, kind="incomplete", query_index=qi,
                        detail="fault-free query reported complete=False",
                    )
                )
                continue
            if result.providers != truth:
                missing = sorted(truth - result.providers)[:3]
                spurious = sorted(result.providers - truth)[:3]
                report.divergences.append(
                    Divergence(
                        system=service.name, kind="result-set", query_index=qi,
                        detail=f"missing {missing}, spurious {spurious}",
                    )
                )
            hop_bound = service.subquery_hop_bound()
            visited_bound = service.max_visited_per_subquery()
            for sub in result.sub_results:
                if sub.hops > hop_bound:
                    report.divergences.append(
                        Divergence(
                            system=service.name, kind="hop-bound", query_index=qi,
                            detail=f"sub-query took {sub.hops} hops, "
                            f"structural bound is {hop_bound}",
                        )
                    )
                if sub.visited_nodes > visited_bound:
                    report.divergences.append(
                        Divergence(
                            system=service.name, kind="visited-bound",
                            query_index=qi,
                            detail=f"sub-query visited {sub.visited_nodes} nodes, "
                            f"bound is {visited_bound}",
                        )
                    )
            if is_point:
                st.point_queries += 1
                st.point_hops += sum(s.hops for s in result.sub_results)
                st.point_hops_expected += nonrange_query_hops_avg(
                    service.name,
                    service.num_nodes(),
                    config.dimension,
                    len(query.constraints),
                )

    for service in services:
        if service.name in dead:
            continue
        st = report.stats[service.name]
        if st.point_queries >= 5:
            mean = st.point_hops / st.point_queries
            expected = st.point_hops_expected / st.point_queries
            if mean > MEAN_HOPS_SLACK * expected + MEAN_HOPS_SLACK:
                report.divergences.append(
                    Divergence(
                        system=service.name, kind="mean-hops",
                        detail=f"mean point-query hops {mean:.2f} exceeds "
                        f"{MEAN_HOPS_SLACK}x the theorem average {expected:.2f}",
                    )
                )
        try:
            check_overlay(overlay_of(service))
        except InvariantViolation as exc:
            invariant_divergence(service, exc)
    return report


def _churn_storm(
    systems: tuple[str, ...], seed: int, num_events: int
) -> tuple[list[Divergence], int]:
    """A guarded leave/join/fail/stabilize storm at replication 2, on the
    ``CHECK_CONFIG`` population drawn for ``seed``.

    Every service additionally carries one deliberately *duplicated*
    piece (the same info registered twice — two distinct pieces under one
    key), so directory conservation catches any multiplicity collapse in
    the churn or repair paths.  Returns (divergences, events validated).
    """
    config = CHECK_CONFIG.scaled(seed=CHECK_CONFIG.seed + seed)
    bundle = build_services(config, durability=successor_replication(2))
    services = [bundle.by_name(name) for name in systems]
    guards = {s.name: install_churn_guards(s) for s in services}
    spec = bundle.workload.schema.specs[0]
    dup = ResourceInfo(spec.name, (spec.lo + spec.hi) / 2.0, "dup-provider")
    for service in services:
        service.register(dup, routed=False)
        service.register(dup, routed=False)

    rng = np.random.default_rng(seed)
    ops = [_ALL_OPS[int(i)] for i in rng.integers(0, len(_ALL_OPS), size=num_events)]
    divergences: list[Divergence] = []
    dead: set[str] = set()
    for op in ops:
        for service in services:
            if service.name in dead:
                continue
            try:
                _apply_op(service, op)
            except InvariantViolation as exc:
                divergences.append(
                    Divergence(system=service.name, kind="invariant", detail=str(exc))
                )
                dead.add(service.name)
    for service in services:
        if service.name in dead:
            continue
        try:
            service.stabilize()
            overlay_of(service).repair_replication()
        except InvariantViolation as exc:
            divergences.append(
                Divergence(system=service.name, kind="invariant", detail=str(exc))
            )
    events = sum(guards[s.name].events for s in services)
    return divergences, events


@dataclass
class CheckReport:
    """Outcome of ``repro check``: its legs, in report order.

    A leg is ``(section title, outcome)``; the outcome of a differential
    replay is its :class:`DifferentialReport`, that of a guarded churn
    storm its ``(divergences, guarded events)``.
    """

    legs: list[tuple[str, DifferentialReport | tuple[list[Divergence], int]]]

    @property
    def divergences(self) -> list[Divergence]:
        found: list[Divergence] = []
        for _, outcome in self.legs:
            if isinstance(outcome, DifferentialReport):
                found += outcome.divergences
            else:
                found += outcome[0]
        return found

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = []
        for title, outcome in self.legs:
            if isinstance(outcome, DifferentialReport):
                lines.append(f"== {title} ==")
                lines.append(outcome.render())
                continue
            divergences, events = outcome
            lines.append(f"== {title}: {events} guarded events ==")
            if divergences:
                lines.extend(f"  !! {d.render()}" for d in divergences)
            else:
                lines.append("  all invariants held")
        lines.append(f"result: {'OK' if self.ok else 'DIVERGED'}")
        return "\n".join(lines)


def run_check(
    *,
    systems: tuple[str, ...] = SYSTEM_NAMES,
    seed: int = 0,
    num_queries: int = 45,
    churn_events: int = 40,
) -> CheckReport:
    """The full correctness check behind ``repro check``."""
    rng = np.random.default_rng(seed + 1)
    graceful_ops = tuple(
        _GRACEFUL_OPS[int(i)]
        for i in rng.integers(0, len(_GRACEFUL_OPS), size=churn_events // 2)
    )
    return CheckReport([
        ("fault-free differential replay",
         run_differential(systems=systems, seed=seed, num_queries=num_queries,
                          label="check-fault-free")),
        ("graceful-churn differential replay",
         run_differential(systems=systems, seed=seed,
                          num_queries=max(1, num_queries // 3),
                          churn_ops=graceful_ops, label="check-graceful")),
        ("churn storm (replication 2)", _churn_storm(systems, seed, churn_events)),
    ])
