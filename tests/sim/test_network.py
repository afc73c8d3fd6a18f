"""Tests for message/hop accounting."""

from __future__ import annotations

import dataclasses

from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import MessageStats, SimulatedNetwork


class TestCounting:
    def test_hops_count_as_messages(self):
        net = SimulatedNetwork()
        net.count_hop(3)
        assert net.stats.routing_hops == 3
        assert net.stats.messages == 3

    def test_maintenance_counts_as_messages(self):
        net = SimulatedNetwork()
        net.count_maintenance(4)
        assert net.stats.maintenance_messages == 4
        assert net.stats.messages == 4

    def test_dropped_messages_count_as_messages(self):
        net = SimulatedNetwork(faults=FaultInjector(FaultPlan(loss_rate=0.5, seed=3)))
        for _ in range(200):
            net.try_deliver(0, 1)
        # A dropped message was sent and cost bandwidth: it counts toward
        # ``messages`` (and ``dropped``) but never toward ``routing_hops``.
        assert net.stats.dropped > 0
        assert net.stats.messages == net.stats.dropped
        assert net.stats.routing_hops == 0

    def test_delivered_messages_not_counted_by_try_deliver(self):
        # Successful deliveries are counted by the caller (count_hop /
        # count_maintenance), so try_deliver itself must not double-count.
        net = SimulatedNetwork()
        assert net.try_deliver(0, 1)
        assert net.stats.messages == 0
        assert net.stats.dropped == 0


class TestSnapshots:
    def test_snapshot_is_independent(self):
        net = SimulatedNetwork()
        net.count_hop()
        snap = net.stats.snapshot()
        net.count_hop()
        assert snap.routing_hops == 1
        assert net.stats.routing_hops == 2

    def test_delta_since(self):
        net = SimulatedNetwork()
        net.count_hop(2)
        before = net.stats.snapshot()
        net.count_hop(3)
        net.count_maintenance(1)
        delta = net.stats.delta_since(before)
        assert delta.routing_hops == 3
        assert delta.maintenance_messages == 1

    def test_default_stats_zero(self):
        assert MessageStats().messages == 0

    def test_every_field_survives_dict_snapshot_and_delta(self):
        names = [f.name for f in dataclasses.fields(MessageStats)]
        assert len(names) == 8
        stats = MessageStats(**{name: i + 1 for i, name in enumerate(names)})
        assert stats.snapshot() == stats and stats.snapshot() is not stats
        doubled = MessageStats(**{name: 2 * (i + 1) for i, name in enumerate(names)})
        assert doubled.delta_since(stats) == stats

