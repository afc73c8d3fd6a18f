"""Figure 4 — logical hops of non-range multi-attribute queries.

The paper varies the number of attributes per query from 1 to 10, lets 100
random requesters send 10 queries each, and plots (a) the average and (b)
the total number of logical hops per approach, together with two derived
analysis curves: "Analysis-LORM" = MAAN's measured curve divided by
``log2(n)/d`` (Theorem 4.7) and "Analysis-SWORD/Mercury" = MAAN's measured
curve divided by 2 (Theorem 4.8).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import theorems
from repro.analysis.models import AnalysisCurve, derive_curve
from repro.experiments.common import SYSTEM_NAMES, build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.workloads.generator import QueryKind

__all__ = ["run_fig4", "sweep_nonrange_hops"]


def sweep_nonrange_hops(config: ExperimentConfig) -> dict[str, dict[int, list[int]]]:
    """Per-approach, per-attribute-count samples of total query hops.

    Returns ``{approach: {m_query: [total hops of each query]}}`` for
    ``m_query`` in ``1..max_query_attributes``.
    """
    bundle = build_services(config)
    num_queries = config.num_requesters * config.queries_per_requester
    samples: dict[str, dict[int, list[int]]] = {
        name: {} for name in SYSTEM_NAMES
    }
    for m_query in range(1, config.max_query_attributes + 1):
        queries = list(
            bundle.workload.query_stream(
                num_queries, m_query, QueryKind.POINT, label="fig4"
            )
        )
        for service in bundle.all():
            per_query = [service.multi_query(q).total_hops for q in queries]
            samples[service.name][m_query] = per_query
    return samples


def _build_results(
    config: ExperimentConfig,
    samples: dict[str, dict[int, list[int]]],
    *,
    total: bool,
) -> FigureResult:
    xs = tuple(float(m) for m in sorted(next(iter(samples.values())).keys()))
    reduce_fn = (lambda v: float(np.sum(v))) if total else (lambda v: float(np.mean(v)))
    result = FigureResult(
        figure_id="fig4b" if total else "fig4a",
        title=(
            "Total logical hops of non-range queries"
            if total
            else "Average logical hops per non-range query"
        ),
        x_label="attributes per query",
        y_label="total hops" if total else "average hops",
    )
    curves: dict[str, AnalysisCurve] = {}
    for name in SYSTEM_NAMES:
        ys = tuple(reduce_fn(samples[name][int(m)]) for m in xs)
        curves[name] = AnalysisCurve(name, xs, ys)
    # Plot order mirrors the paper: MAAN worst, then LORM, then
    # Mercury/SWORD (whose curves overlap).
    for name in ("MAAN", "LORM", "Mercury", "SWORD"):
        result.add(curves[name])
    n, d = config.population, config.dimension
    result.add(
        derive_curve(
            "Analysis-LORM",
            curves["MAAN"],
            divide_by=theorems.thm47_contacted_reduction_vs_maan(n, d),
        )
    )
    result.add(
        derive_curve(
            "Analysis-SWORD/Mercury",
            curves["MAAN"],
            divide_by=theorems.thm48_contacted_reduction_mercury_sword_vs_maan(),
        )
    )
    result.notes.append(
        f"analysis: MAAN / (log2(n)/d) = MAAN / {theorems.thm47_contacted_reduction_vs_maan(n, d):.3f} "
        f"(Thm 4.7); MAAN / 2 (Thm 4.8)"
    )
    return result


def run_fig4(config: ExperimentConfig) -> tuple[FigureResult, FigureResult]:
    """Both panels of Figure 4 from one query sweep."""
    samples = sweep_nonrange_hops(config)
    return (
        _build_results(config, samples, total=False),
        _build_results(config, samples, total=True),
    )
