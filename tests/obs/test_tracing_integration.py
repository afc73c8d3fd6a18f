"""End-to-end tracing through all four discovery systems.

Each test replays a deterministic multi-attribute query stream through
:func:`repro.obs.replay.replay_queries` and checks the resulting span
trees against the trace oracles: structural bounds, hop-chain continuity,
trace/metrics conservation, and that tracing never changes query results.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import build_workload
from repro.experiments.config import CHECK_CONFIG
from repro.obs.replay import SYSTEMS, build_traced_service, replay_queries
from repro.obs.spans import SpanKind
from repro.testing import TraceBoundViolation, assert_trace_bounds
from repro.workloads.generator import QueryKind

ALL = sorted(SYSTEMS)


@pytest.mark.parametrize("system", ALL)
@pytest.mark.parametrize("kind", [QueryKind.POINT, QueryKind.RANGE])
def test_one_trace_per_query_and_bounds_hold(system, kind):
    service, traces = replay_queries(
        system, seed=0, num_queries=3, num_attributes=2, kind=kind
    )
    assert len(traces) == 3
    for trace in traces:
        assert trace.root.kind is SpanKind.QUERY
        assert len(trace.spans_of(SpanKind.SUBQUERY)) == 2
        assert_trace_bounds(trace, service)


@pytest.mark.parametrize("system", ALL)
def test_trace_totals_match_metrics_samples(system):
    """Span-tree hop/visited totals reconcile with what the service's
    MetricsRegistry recorded for the same queries, query by query."""
    service, traces = replay_queries(
        system, seed=0, num_queries=4, num_attributes=2, kind=QueryKind.RANGE
    )
    hops = service.metrics.samples("multi_query.total_hops")
    visited = service.metrics.samples("multi_query.total_visited")
    assert len(hops) == len(traces) == 4
    for trace, h, v in zip(traces, hops, visited):
        assert trace.root.attrs["total_hops"] == h
        assert trace.hop_count() == h
        assert trace.root.attrs["total_visited"] == v
        for sub in trace.spans_of(SpanKind.SUBQUERY):
            assert len(sub.find(SpanKind.HOP)) == sub.attrs["hops"]


@pytest.mark.parametrize("system", ALL)
def test_tracing_does_not_change_results(system):
    """The traced query path returns byte-identical results and metrics
    to the untraced one."""
    config = CHECK_CONFIG.scaled(seed=0)
    traced, workload, _ = build_traced_service(system, config)
    untraced, _, _ = build_traced_service(system, config)
    untraced.attach_tracer(None)
    queries_t = list(workload.query_stream(3, 2, QueryKind.RANGE, label="eq"))
    queries_u = list(
        build_workload(config).query_stream(3, 2, QueryKind.RANGE, label="eq")
    )
    for qt, qu in zip(queries_t, queries_u):
        rt, ru = traced.multi_query(qt), untraced.multi_query(qu)
        assert rt.providers == ru.providers
        assert [s.hops for s in rt.sub_results] == [s.hops for s in ru.sub_results]
        assert [s.visited_nodes for s in rt.sub_results] == [
            s.visited_nodes for s in ru.sub_results
        ]
    assert traced.metrics.samples("query.hops") == untraced.metrics.samples(
        "query.hops"
    )


@pytest.mark.parametrize("system", ALL)
def test_hop_choices_name_real_routing_entries(system):
    expected = (
        {"cubical", "cyclic", "inside-leaf", "outside-leaf"}
        if system == "lorm"
        else {"finger", "successor", "successor-list", "predecessor"}
    )
    _, traces = replay_queries(
        system, seed=0, num_queries=3, num_attributes=2, kind=QueryKind.RANGE
    )
    seen = {
        hop.attrs["choice"]
        for trace in traces
        for hop in trace.root.find(SpanKind.HOP)
    }
    assert seen and seen <= expected


def test_bounds_oracle_rejects_tampered_trace():
    service, traces = replay_queries("sword", seed=0, num_queries=1)
    trace = traces[0]
    lookup = trace.spans_of(SpanKind.LOOKUP)[0]
    lookup.attrs["hops"] = lookup.attrs["hops"] + 1  # forge the accounting
    with pytest.raises(TraceBoundViolation):
        assert_trace_bounds(trace, service)


def test_untraced_service_has_no_tracer_branches():
    """A detached tracer leaves service and overlay tracer-free."""
    from repro.sim.invariants import overlay_of

    service, _, tracer = build_traced_service("mercury", CHECK_CONFIG)
    service.attach_tracer(None)
    assert service.tracer is None
    assert overlay_of(service).tracer is None
    service.multi_query(
        next(iter(build_workload(CHECK_CONFIG).query_stream(1, 2, QueryKind.RANGE)))
    )
    assert len(tracer.traces) == 0
