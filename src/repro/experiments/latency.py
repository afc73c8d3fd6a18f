"""Response latency (extension figure).

The paper's Section III stresses that multi-attribute queries are resolved
as *parallel* sub-queries, so a requester's response time is bounded by the
slowest sub-query, not the sum.  This extension figure makes that visible:
simulated response latency (hop latency × critical-path hops) versus
attributes per query, for range queries.

Expected shape: SWORD flattest (one lookup per attribute, no walk), LORM
close behind (short cluster walks), Mercury/MAAN dominated by their long
sequential range walks — the latency view of Theorem 4.9.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.models import AnalysisCurve
from repro.experiments.common import SYSTEM_NAMES, build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.sim.latency import ConstantLatency
from repro.workloads.generator import QueryKind

__all__ = ["run_latency"]


def run_latency(config: ExperimentConfig) -> FigureResult:
    """Mean simulated response latency of range queries vs attribute count."""
    bundle = build_services(config)
    bundle.set_collect_matches(False)
    # Fault-free, each sub-query's measured latency is exactly
    # ``hops × hop_latency``.
    model = ConstantLatency(bundle.lorm.overlay.network.hop_latency)
    for service in bundle.all():
        service.configure_latency(model)

    xs = tuple(float(m) for m in range(1, config.max_query_attributes + 1))
    mean_latency: dict[str, list[float]] = {name: [] for name in SYSTEM_NAMES}
    for m_query in range(1, config.max_query_attributes + 1):
        queries = list(
            bundle.workload.query_stream(
                max(50, config.num_range_queries // 4),
                m_query,
                QueryKind.RANGE,
                label="latency",
            )
        )
        for service in bundle.all():
            # Sub-queries run in parallel; a sub-query's own hops (routing
            # plus any sequential range-walk forwarding) are serial.
            samples = [service.multi_query(q).latency for q in queries]
            mean_latency[service.name].append(float(np.mean(samples)))

    result = FigureResult(
        figure_id="latency",
        title="Simulated response latency of range queries (parallel sub-queries)",
        x_label="attributes per query",
        y_label=f"mean latency (s, {model.mean() * 1000:.0f} ms/hop)",
        log_y=True,
    )
    for name in ("MAAN", "Mercury", "LORM", "SWORD"):
        result.add(AnalysisCurve(name, xs, tuple(mean_latency[name])))
    result.notes.append(
        "latency = slowest sub-query's serial hops x hop latency; "
        "range walks are sequential, lookups of different attributes parallel"
    )
    return result
