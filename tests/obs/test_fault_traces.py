"""Fault-path tracing: injected loss surfaces as span annotations.

Seeded message loss must show up in the span trees as ``drop`` / ``retry``
/ ``timeout`` / ``failover`` point events, and the annotation counts must
reconcile with the ``LookupResult`` / ``WalkResult`` accounting the
fault-injection layer already reports.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import CHECK_CONFIG
from repro.obs.replay import SYSTEMS, build_traced_service, replay_queries
from repro.obs.spans import QueryTracer, SpanKind
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidOverlay
from repro.sim.chaos import network_ids_of, slow_victims
from repro.sim.faults import (
    DEFAULT_POLICY,
    HEDGED_POLICY,
    FaultInjector,
    FaultPlan,
    LookupPolicy,
)
from repro.sim.invariants import overlay_of
from repro.sim.latency import LognormalLatency
from repro.testing import assert_trace_bounds
from repro.workloads.generator import QueryKind

LOSS = 0.3


def _retry_events(span) -> int:
    return sum(1 for s in span.walk() for ev in s.events if ev.kind == "retry")


class TestChordFaultTraces:
    def _traced_lookup(self, *, loss=LOSS, seed=5, policy=None):
        ring = ChordRing(6)
        ring.build_full()
        ring.network.faults = FaultInjector(FaultPlan(loss_rate=loss, seed=seed))
        tracer = QueryTracer()
        ring.tracer = tracer
        ring.lookup_policy = policy or LookupPolicy(max_retries=3)
        start = ring.node(0)
        result = ring.lookup(start, 47)
        return ring, tracer, result

    def test_retry_annotations_equal_lookup_retries(self):
        for seed in range(6):
            _, tracer, result = self._traced_lookup(seed=seed)
            (trace,) = tracer.traces
            assert len(trace.events_of("retry")) == result.retries

    def test_drops_are_annotated_with_target_and_attempt(self):
        for seed in range(8):
            _, tracer, result = self._traced_lookup(seed=seed)
            drops = tracer.traces[0].events_of("drop")
            if drops:
                assert all(
                    "target" in ev.detail and "attempt" in ev.detail for ev in drops
                )
                return
        pytest.fail("30% loss over 8 seeds never dropped a message")

    def test_failover_annotated_when_candidates_skipped(self):
        for seed in range(30):
            _, tracer, result = self._traced_lookup(seed=seed, loss=0.6)
            failovers = tracer.traces[0].events_of("failover")
            if failovers:
                assert all(ev.detail["skipped"] >= 1 for ev in failovers)
                return
        pytest.fail("60% loss over 30 seeds never failed over")

    def test_timeout_annotated_on_dead_end(self):
        for seed in range(40):
            _, tracer, result = self._traced_lookup(
                seed=seed, loss=0.9,
                policy=LookupPolicy(max_retries=0, failover=False),
            )
            if result.timed_out:
                assert tracer.traces[0].events_of("timeout")
                return
        pytest.fail("90% loss with no retries never timed out in 40 seeds")

    def test_hop_spans_match_hops_under_loss(self):
        for seed in range(6):
            _, tracer, result = self._traced_lookup(seed=seed)
            (trace,) = tracer.traces
            assert trace.hop_count() == result.hops


class TestCycloidFaultTraces:
    def _traced_lookup(self, *, loss=LOSS, seed=5):
        overlay = CycloidOverlay(4)
        overlay.build_full()
        overlay.network.faults = FaultInjector(FaultPlan(loss_rate=loss, seed=seed))
        tracer = QueryTracer()
        overlay.tracer = tracer
        overlay.lookup_policy = LookupPolicy(max_retries=3)
        nodes = list(overlay.nodes())
        start, target = nodes[0], nodes[-1].cid
        result = overlay.lookup(start, target)
        return overlay, tracer, result

    def test_retry_annotations_equal_lookup_retries(self):
        for seed in range(6):
            _, tracer, result = self._traced_lookup(seed=seed)
            (trace,) = tracer.traces
            assert len(trace.events_of("retry")) == result.retries

    def test_hop_spans_match_hops_under_loss(self):
        for seed in range(6):
            _, tracer, result = self._traced_lookup(seed=seed)
            assert tracer.traces[0].hop_count() == result.hops


class TestHedgeTraces:
    """Hedged backup requests surface as ``hedge`` span events whose
    accounting reconciles with the network's hedge counters."""

    def _traced_hedged_lookup(self, *, seed=5, intermittency=0.6):
        ring = ChordRing(6)
        ring.build_full()
        net = ring.network
        injector = FaultInjector(FaultPlan(seed=seed))
        # Every destination is intermittently gray, so primaries straggle
        # often enough to arm hedges while backups still win sometimes.
        for node_id in network_ids_of(ring):
            injector.mark_slow(node_id, 40.0, intermittency)
        net.faults = injector
        net.latency_model = LognormalLatency(
            median=net.hop_latency, sigma=0.35, seed=seed
        )
        for _ in range(12):  # warm the shared aggregate estimator
            net.rtt.estimator(0).observe(net.hop_latency)
            net.rtt.aggregate.observe(net.hop_latency)
        tracer = QueryTracer()
        ring.tracer = tracer
        ring.lookup_policy = HEDGED_POLICY
        result = ring.lookup(ring.node(0), 47)
        return ring, tracer, result

    def test_hedge_events_reconcile_with_network_stats(self):
        fired = 0
        for seed in range(8):
            ring, tracer, _ = self._traced_hedged_lookup(seed=seed)
            events = tracer.traces[0].events_of("hedge")
            assert len(events) == ring.network.stats.hedges
            won = sum(1 for ev in events if ev.detail["won"])
            assert won == ring.network.stats.hedges_won
            fired += len(events)
        assert fired > 0, "gray destinations over 8 seeds never hedged"

    def test_hedge_events_carry_target_and_verdict(self):
        for seed in range(8):
            _, tracer, _ = self._traced_hedged_lookup(seed=seed)
            events = tracer.traces[0].events_of("hedge")
            if events:
                assert all(
                    "target" in ev.detail and ev.detail["won"] in (True, False)
                    for ev in events
                )
                return
        pytest.fail("gray destinations over 8 seeds never hedged")

    def test_hedged_hop_spans_are_annotated(self):
        for seed in range(8):
            _, tracer, _ = self._traced_hedged_lookup(seed=seed)
            (trace,) = tracer.traces
            hedged_hops = [
                span for span in trace.spans_of(SpanKind.HOP)
                if span.attrs.get("hedge")
            ]
            if hedged_hops:
                for span in hedged_hops:
                    own = [ev for ev in span.events if ev.kind == "hedge"]
                    assert own
                    assert span.attrs["hedge_won"] == any(
                        ev.detail["won"] for ev in own
                    )
                return
        pytest.fail("gray destinations over 8 seeds never hedged on a hop")

    def test_hedging_marks_the_trace_faulted(self):
        for seed in range(8):
            _, tracer, _ = self._traced_hedged_lookup(seed=seed)
            (trace,) = tracer.traces
            if trace.events_of("hedge"):
                assert trace.faulted
                return
        pytest.fail("gray destinations over 8 seeds never hedged")


def traced_drops(seed: int) -> tuple[int, int, int]:
    """Traced lookups on a lossy ring with gray destinations under a
    latency model: ``(drop events, stats.timeouts, stats.dropped)``."""
    ring = ChordRing(6)
    ring.build_full()
    net = ring.network
    injector = FaultInjector(FaultPlan(loss_rate=0.2, seed=seed))
    for node_id in list(network_ids_of(ring))[::3]:
        injector.mark_slow(node_id, 40.0, 0.6)
    net.faults = injector
    net.latency_model = LognormalLatency(median=net.hop_latency, sigma=0.35, seed=seed)
    tracer = QueryTracer()
    ring.tracer = tracer
    for key in range(0, 64, 3):
        ring.lookup(ring.node((key * 7) % 64), key)
    drops = sum(len(trace.events_of("drop")) for trace in tracer.traces)
    return drops, net.stats.timeouts, net.stats.dropped


def test_timed_drop_events_reconcile_with_timeouts():
    """Every failed attempt of the timed loop is traced as a ``drop``: the
    outright drops and the late replies declared lost alike."""
    drops, timeouts, outright = traced_drops(seed=3)
    assert 0 < outright < timeouts, "the run must take both drop branches"
    assert drops == timeouts


def test_latency_spans_reconcile_with_metrics_and_route_clock():
    """Under a gray-failure replay every query span carries a measured
    ``latency`` attribute; the per-sub metric samples sum to the network's
    requester clock, and each multi-query's latency is its critical path."""
    service, workload, tracer = build_traced_service("lorm", CHECK_CONFIG)
    overlay = overlay_of(service)
    net = overlay.network
    injector = FaultInjector(FaultPlan(seed=3))
    for victim in slow_victims(overlay, 0.1):
        injector.mark_slow(victim, 20.0, 0.6)
    service.configure_faults(injector, HEDGED_POLICY)
    service.configure_latency(
        LognormalLatency(median=net.hop_latency, sigma=0.35, seed=3)
    )
    try:
        queries = workload.query_stream(4, 2, QueryKind.RANGE, label="hedge-spans")
        results = [service.multi_query(q) for q in queries]
    finally:
        service.configure_latency(None)
        service.configure_faults(None, DEFAULT_POLICY)
    sub_latencies = []
    for trace, result in zip(tracer.traces, results):
        (root,) = trace.spans_of(SpanKind.QUERY)
        assert root.attrs["latency"] == result.latency
        subs = trace.spans_of(SpanKind.SUBQUERY)
        assert [s.attrs["latency"] for s in subs] == [
            r.latency for r in result.sub_results
        ]
        assert result.latency == max(s.attrs["latency"] for s in subs)
        sub_latencies.extend(s.attrs["latency"] for s in subs)
    samples = service.metrics.samples("query.latency")
    assert sorted(samples) == pytest.approx(sorted(sub_latencies))
    assert sum(samples) == pytest.approx(net.route_clock)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_service_level_fault_annotations(system):
    """A lossy replay yields faulted traces whose accounting still
    reconciles, and every lookup/walk span's retry annotations equal its
    recorded ``retries`` attribute."""
    service, traces = replay_queries(
        system, seed=3, num_queries=4, num_attributes=2,
        kind=QueryKind.RANGE, loss=0.25,
    )
    assert any(trace.faulted for trace in traces)
    for trace in traces:
        assert_trace_bounds(trace, service)
        for span in trace.spans_of(SpanKind.LOOKUP) + trace.spans_of(SpanKind.WALK):
            assert _retry_events(span) == span.attrs.get("retries", 0)


def test_fault_free_replay_has_no_annotations():
    _, traces = replay_queries("lorm", seed=0, num_queries=2, num_attributes=2)
    assert all(not trace.faulted for trace in traces)
