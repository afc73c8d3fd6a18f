"""Per-layer metrics derived from the spans of the traced rounds.

A metric whose source spans do not exist on a workload (a layer the
workload never enters, or a wrap target a refactor removed) is simply not
in the result; the runner prints those as not applicable.
"""

from __future__ import annotations

from tracing import SpanTable
from workloads import QUERY_KINDS

__all__ = ["layer_budget", "layer_metrics"]


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def _mean(table: SpanTable, span: str, ns_per_unit: float, lane=None, kinds=None) -> float | None:
    """Mean duration of the spans named ``span``, in units of ``ns_per_unit``."""
    return _ratio(table.total_ns(span, lane, kinds) / ns_per_unit, table.calls(span, lane, kinds))


def layer_metrics(table: SpanTable, lanes: tuple[str, ...]) -> dict[str, float]:
    """Every span-derived per-layer metric the recording supports."""
    out: dict[str, float | None] = {}
    q = QUERY_KINDS
    for lane in lanes:
        ops = table.ops(lane, q)
        if not ops:
            continue
        lookups = table.calls("overlay.lookup", lane, q)
        hops = table.work("overlay.lookup", lane, q)
        lookup_ns = table.total_ns("overlay.lookup", lane, q)
        walks = table.calls("overlay.walk", lane, q)
        walked = table.work("overlay.walk", lane, q)
        examined = table.tapped("directory.examined", lane, q)
        matched = table.work("service.query", lane, q)
        if table.calls("service.random_node", lane, q):
            out[f"service.entry_us.{lane}"] = (
                table.total_ns("service.random_node", lane, q) / 1e3 / ops
            )
        out[f"service.query_self_us.{lane}"] = table.self_ns("service.query", lane, q) / 1e3 / ops
        out[f"service.examined_per_op.{lane}"] = examined / ops
        out[f"service.matched_per_op.{lane}"] = matched / ops
        out[f"service.match_useful_ratio.{lane}"] = _ratio(matched, examined)
        out[f"overlay.lookup_calls_per_op.{lane}"] = lookups / ops
        out[f"overlay.hops_per_lookup.{lane}"] = _ratio(hops, lookups)
        out[f"overlay.lookup_ns_per_hop.{lane}"] = _ratio(lookup_ns, hops)
        out[f"overlay.visited_per_walk.{lane}"] = _ratio(walked, walks)
        out[f"overlay.walk_ns_per_node.{lane}"] = _ratio(
            table.total_ns("overlay.walk", lane, q), walked
        )
        out[f"core.join_us.{lane}"] = _mean(table, "core.join", 1e3, lane, q)
        out[f"core.join_rows_per_op.{lane}"] = table.work("core.join", lane, q) / ops

        events = table.calls("overlay.join", lane) + table.calls("overlay.leave", lane)
        out[f"overlay.churn_us_per_event.{lane}"] = _ratio(
            (table.total_ns("overlay.join", lane) + table.total_ns("overlay.leave", lane)) / 1e3,
            events,
        )
        out[f"overlay.stabilize_ms.{lane}"] = _mean(table, "service.stabilize", 1e6, lane)
        out[f"service.register_us.{lane}"] = _mean(table, "service.register", 1e3, lane)
        out[f"service.deregister_us.{lane}"] = _mean(table, "service.deregister", 1e3, lane)
        steady = _ratio(
            table.total_ns("overlay.lookup", lane, ("steady",)),
            table.work("overlay.lookup", lane, ("steady",)),
        )
        cold = _ratio(lookup_ns, hops)
        out[f"overlay.cold_lookup_ratio.{lane}"] = (
            cold / steady if cold is not None and steady else None
        )

    out["sim.metrics_record_ns"] = _mean(table, "sim.record_pair", 1.0)
    out["sim.latency.sample_ns"] = _mean(table, "sim.latency_sample", 1.0)
    out["sim.network.deliver_ns"] = _ratio(
        table.self_ns("sim.try_deliver"), table.calls("sim.try_deliver")
    )

    lookups = table.calls("arraystore.lookup")
    hops = table.work("arraystore.lookup")
    out["arraystore.hops_per_lookup"] = _ratio(hops, lookups)
    out["arraystore.lookup_ns_per_hop"] = _ratio(table.total_ns("arraystore.lookup"), hops)
    out["arraystore.join_us"] = _mean(table, "arraystore.join", 1e3)
    out["arraystore.leave_us"] = _mean(table, "arraystore.leave", 1e3)
    out["arraystore.stabilize_s"] = _mean(table, "arraystore.stabilize_all", 1e9)
    return {name: value for name, value in out.items() if value is not None}


def layer_budget(table: SpanTable, lanes: tuple[str, ...]) -> list[str]:
    """Printable share of each lane's traced time spent in each span's
    self time — where an op's time goes."""
    lines = []
    for lane in lanes:
        budget = {name: ns for name, ns in table.self_by_name(lane).items() if ns > 0}
        total = sum(budget.values())
        if not total:
            continue
        shares = sorted(budget.items(), key=lambda item: -item[1])
        lines.append(
            f"  {lane:<8}" + "  ".join(f"{name} {ns / total:.1%}" for name, ns in shares)
        )
    return lines
