"""Unit tests for the span tracer mechanics (:mod:`repro.obs.spans`)."""

from __future__ import annotations

import pytest

from repro.obs.spans import QueryTracer, SpanKind


class TestSpanLifecycle:
    def test_begin_end_builds_one_trace(self):
        tracer = QueryTracer()
        tracer.begin("query", "q")
        tracer.end()
        assert len(tracer.traces) == 1
        assert tracer.traces[0].root.kind is SpanKind.QUERY

    def test_nesting_builds_a_tree(self):
        tracer = QueryTracer()
        tracer.begin("query", "q")
        tracer.begin("subquery", "s")
        tracer.begin("lookup", "l")
        tracer.end()
        tracer.end()
        tracer.end()
        trace = tracer.traces[0]
        assert [s.kind for s in trace.root.walk()] == [
            SpanKind.QUERY, SpanKind.SUBQUERY, SpanKind.LOOKUP,
        ]
        assert trace.root.children[0].children[0].name == "l"

    def test_tick_clock_is_monotone_and_deterministic(self):
        def run():
            tracer = QueryTracer()
            with tracer.span("query", "q"):
                tracer.hop(1, 2, "finger")
                tracer.hop(2, 3, "finger")
            return [(s.start, s.end) for s in tracer.traces[0].root.walk()]

        stamps = run()
        assert stamps == run()
        assert all(end >= start for start, end in stamps)

    def test_end_without_begin_raises(self):
        with pytest.raises(ValueError):
            QueryTracer().end()

    def test_span_contextmanager_records_error(self):
        tracer = QueryTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("query", "q"):
                raise RuntimeError("boom")
        root = tracer.traces[0].root
        assert root.attrs["error"] == "RuntimeError"
        assert root.end > 0  # still closed

    def test_max_traces_evicts_oldest(self):
        tracer = QueryTracer(max_traces=2)
        for i in range(3):
            with tracer.span("query", f"q{i}"):
                pass
        assert [t.root.name for t in tracer.traces] == ["q1", "q2"]


class TestAnnotations:
    def test_event_defaults_to_innermost(self):
        tracer = QueryTracer()
        with tracer.span("lookup", "l"):
            tracer.event("retry", attempt=1)
        events = tracer.traces[0].events_of("retry")
        assert len(events) == 1 and events[0].detail == {"attempt": 1}

    def test_hop_records_src_dst_choice(self):
        tracer = QueryTracer()
        with tracer.span("lookup", "l"):
            hop = tracer.hop(4, 9, "successor-list")
        assert hop.kind is SpanKind.HOP
        assert hop.attrs == {"src": 4, "dst": 9, "choice": "successor-list"}
        assert hop.start == hop.end

    def test_hop_outside_span_raises(self):
        with pytest.raises(ValueError):
            QueryTracer().hop(1, 2, "finger")

    def test_faulted_property(self):
        tracer = QueryTracer()
        with tracer.span("query", "clean"):
            pass
        with tracer.span("query", "dirty"):
            tracer.event("drop", target=3)
        clean, dirty = tracer.traces
        assert not clean.faulted and dirty.faulted
