"""Figure 6 — efficiency under churn (Section V-C).

Node joins and departures arrive as two independent Poisson processes of
rate R (the paper's example: one join and one departure every 2.5 s at
R = 0.4); R is swept over 0.1 … 0.5.  Resource requests are issued
throughout at a fixed rate until ``num_churn_requests`` have been resolved,
alternating non-range and range queries.  The paper reports:

* 6(a) — average logical hops per non-range query vs R, against the flat
  analysis lines of Theorems 4.7/4.8 (d for LORM, log2(n)/2 for
  Mercury/SWORD, log2(n) for MAAN);
* 6(b) — average visited nodes per range query vs R, against the Theorem
  4.9 lines (Mercury/MAAN overlap and are plotted once, as in the paper).

"Experiment results show that there were no failures in all test cases" —
the harness asserts the same: every query resolves.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import theorems
from repro.analysis.models import AnalysisCurve
from repro.experiments.common import build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.sim.churn import ChurnProcess
from repro.sim.engine import Simulator
from repro.utils.seeding import SeedFactory
from repro.workloads.generator import QueryKind

__all__ = ["ChurnTrialResult", "run_churn_trial", "run_fig6"]

#: Simulated seconds between periodic stabilization rounds.
_STABILIZE_PERIOD = 30.0
#: Query arrival rate (requests per simulated second).
QUERY_RATE = 10.0
#: Attributes per request: the analysis lines are the theorems'
#: per-attribute values.
_ATTRIBUTES_PER_QUERY = 1


class ChurnTrialResult(dict):
    """Per-approach outcome of one churn rate:
    ``{approach: (mean point-query hops, mean range-query visited)}``."""

    failures: int = 0


def run_churn_trial(config: ExperimentConfig, rate: float) -> ChurnTrialResult:
    """Simulate one churn rate across all four approaches.

    Each approach runs its own event-driven simulation with an identically
    seeded churn stream: joins/leaves fire as Poisson events, a
    stabilization round runs every 30 simulated seconds, and queries are
    issued at :data:`QUERY_RATE`/s, alternating non-range (hops
    metric) and range (visited-nodes metric).
    """
    bundle = build_services(config, seed_offset=int(rate * 1000))
    bundle.set_collect_matches(False)
    seeds = SeedFactory(config.seed).fork(f"fig6:{rate}")
    result = ChurnTrialResult()
    total_failures = 0

    num_queries = config.num_churn_requests
    horizon = num_queries / QUERY_RATE
    point_queries = list(
        bundle.workload.query_stream(
            (num_queries + 1) // 2, _ATTRIBUTES_PER_QUERY, QueryKind.POINT,
            label=f"fig6-point:{rate}",
        )
    )
    range_queries = list(
        bundle.workload.query_stream(
            num_queries // 2, _ATTRIBUTES_PER_QUERY, QueryKind.RANGE,
            label=f"fig6-range:{rate}",
        )
    )

    for service in bundle.all():
        sim = Simulator()

        churn = ChurnProcess(rate=rate, rng=seeds.numpy(f"churn:{service.name}"))
        churn.install(
            sim,
            horizon,
            on_join=service.churn_join,
            on_leave=service.churn_leave,
        )

        stabilize_t = _STABILIZE_PERIOD
        while stabilize_t < horizon:
            sim.schedule_at(stabilize_t, service.stabilize, name="stabilize")
            stabilize_t += _STABILIZE_PERIOD

        point_hops: list[int] = []
        range_visits: list[int] = []
        failures = 0

        def make_query_action(query, sink, metric):
            def action() -> None:
                nonlocal failures
                try:
                    outcome = service.multi_query(query)
                except RuntimeError:
                    failures += 1
                    return
                sink.append(getattr(outcome, metric))
            return action

        interval = 1.0 / QUERY_RATE
        t = interval
        point_iter = iter(point_queries)
        range_iter = iter(range_queries)
        for i in range(num_queries):
            if i % 2 == 0:
                query = next(point_iter)
                sim.schedule_at(t, make_query_action(query, point_hops, "total_hops"))
            else:
                query = next(range_iter)
                sim.schedule_at(t, make_query_action(query, range_visits, "total_visited"))
            t += interval

        sim.run()
        total_failures += failures
        result[service.name] = (
            float(np.mean(point_hops)) if point_hops else float("nan"),
            float(np.mean(range_visits)) if range_visits else float("nan"),
        )

    result.failures = total_failures
    return result


def run_fig6(config: ExperimentConfig) -> tuple[FigureResult, FigureResult]:
    """Both panels of Figure 6 across ``config.churn_rates``."""
    rates = tuple(float(r) for r in config.churn_rates)
    trials = {rate: run_churn_trial(config, rate) for rate in rates}
    total_failures = sum(t.failures for t in trials.values())

    n, d, mq = config.population, config.dimension, _ATTRIBUTES_PER_QUERY

    panel_a = FigureResult(
        figure_id="fig6a",
        title="Average hops per non-range query under churn",
        x_label="churn rate R (events/s)",
        y_label="average hops",
    )
    for name in ("MAAN", "LORM", "Mercury", "SWORD"):
        panel_a.add(
            AnalysisCurve(name, rates, tuple(trials[r][name][0] for r in rates))
        )
    for name, approach in (
        ("Analysis-MAAN", "MAAN"),
        ("Analysis-LORM", "LORM"),
        ("Analysis-SWORD/Mercury", "Mercury"),
    ):
        level = theorems.nonrange_query_hops_avg(approach, n, d, mq)
        panel_a.add(
            AnalysisCurve(name, rates, tuple(level for _ in rates))
        )
    if total_failures == 0:
        panel_a.notes.append(
            "no failures in any test case (matches the paper's observation)"
        )
    else:
        panel_a.notes.append(
            f"WARNING: {total_failures} queries failed to resolve "
            f"(paper reports zero failures)"
        )

    panel_b = FigureResult(
        figure_id="fig6b",
        title="Average visited nodes per range query under churn",
        x_label="churn rate R (events/s)",
        y_label="average visited nodes",
        log_y=True,
    )
    for name in ("MAAN", "Mercury", "LORM", "SWORD"):
        panel_b.add(
            AnalysisCurve(name, rates, tuple(trials[r][name][1] for r in rates))
        )
    for name, approach in (
        ("Analysis-Mercury/MAAN", "Mercury"),
        ("Analysis-LORM", "LORM"),
        ("Analysis-SWORD", "SWORD"),
    ):
        level = theorems.thm49_visited_nodes_avg(approach, n, d, mq)
        panel_b.add(
            AnalysisCurve(name, rates, tuple(level for _ in rates))
        )
    panel_b.notes.append(
        "Mercury and MAAN (and their analyses) overlap, as in the paper"
    )
    return panel_a, panel_b
