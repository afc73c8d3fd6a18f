"""Tests for the fail-slow fault model: gray nodes and the latency-aware
delivery loop (adaptive timeouts, hedging, Karn's rule).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.faults import (
    ADAPTIVE_POLICY,
    DEFAULT_POLICY,
    HEDGED_POLICY,
    FaultInjector,
    FaultPlan,
    LookupPolicy,
    deliver_first,
)
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import SimulatedNetwork


class ScriptedLatency(LatencyModel):
    """Plays back a scripted list of per-message samples."""

    def __init__(self, samples):
        self._samples = list(samples)
        self.rng = np.random.default_rng(0)

    def sample(self) -> float:
        return self._samples.pop(0)

    def route(self, hops: int) -> float:
        return 0.05 * hops

    def mean(self) -> float:
        return 0.05


class TestFailSlowSpecs:
    def test_slow_node_validation(self):
        injector = FaultInjector(FaultPlan())
        with pytest.raises(ValueError):
            injector.mark_slow(1, multiplier=0.5)
        with pytest.raises(ValueError):
            injector.mark_slow(1, multiplier=2.0, intermittency=0.0)
        with pytest.raises(ValueError):
            injector.mark_slow(1, multiplier=2.0, intermittency=1.5)
        assert not injector.active


class TestLatencyFactor:
    def _rng(self):
        return np.random.default_rng(0)

    def test_slow_node_applies_to_destination_only(self):
        # The slow-server model: a gray node is slow to *serve* — its own
        # outbound requests are answered by healthy peers at full speed.
        injector = FaultInjector(FaultPlan())
        injector.mark_slow(5, 10.0)
        assert injector.latency_factor(0, 5, self._rng()) == 10.0
        assert injector.latency_factor(5, 0, self._rng()) == 1.0

    def test_intermittency_gates_the_multiplier(self):
        injector = FaultInjector(FaultPlan())
        injector.mark_slow(5, 10.0, intermittency=0.5)
        rng = self._rng()
        factors = [injector.latency_factor(0, 5, rng) for _ in range(400)]
        degraded = sum(1 for f in factors if f == 10.0)
        assert set(factors) == {1.0, 10.0}
        assert degraded / len(factors) == pytest.approx(0.5, abs=0.1)


class TestBackoffOverflowRegression:
    def test_huge_round_index_stays_finite(self):
        # Uncapped ``base * factor**(k-1)`` overflows to inf around
        # round 1100 and one inf poisons the requester clock.
        policy = LookupPolicy(backoff_base=0.05)
        assert math.isfinite(policy.backoff_for(1024))
        assert math.isfinite(policy.backoff_for(10**6))

    def test_cap_freezes_the_schedule(self):
        policy = LookupPolicy(backoff_base=0.05)
        capped = policy.backoff_for(policy._BACKOFF_EXPONENT_CAP + 1)
        assert policy.backoff_for(10**9) == capped


class TestDefendedPresets:
    def test_adaptive_policy(self):
        assert ADAPTIVE_POLICY.adaptive_timeout
        assert not ADAPTIVE_POLICY.hedge
        assert ADAPTIVE_POLICY.max_retries == 4
        assert ADAPTIVE_POLICY.backoff_base == 0.0

    def test_hedged_policy(self):
        assert HEDGED_POLICY.adaptive_timeout
        assert HEDGED_POLICY.hedge
        assert HEDGED_POLICY.max_retries == 4
        assert HEDGED_POLICY.backoff_base == 0.0

    def test_effective_timeout_without_estimator_is_fixed(self):
        assert ADAPTIVE_POLICY.effective_timeout(None) == ADAPTIVE_POLICY.timeout

    def test_hedge_delay_cold_is_none(self):
        net = SimulatedNetwork()
        assert HEDGED_POLICY.hedge_delay(net.rtt_for(0)) is None


def _gray_network(model, victim=1, multiplier=100.0):
    """A network with one persistently gray node and a latency model."""
    injector = FaultInjector(FaultPlan())
    injector.mark_slow(victim, multiplier)
    return SimulatedNetwork(faults=injector, latency_model=model)


def _warm(network, src, rtt=0.05, n=10):
    for _ in range(n):
        network.rtt_for(src).observe(rtt)


class TestTimedDeliverFirst:
    def test_model_without_faults_is_exact_identity(self):
        net = SimulatedNetwork(latency_model=ConstantLatency(0.05))
        node, retries, skipped = deliver_first(
            net, 0, [(1, "a"), (2, "b")], HEDGED_POLICY
        )
        assert (node, retries, skipped) == ("a", 0, 0)
        assert net.stats == SimulatedNetwork().stats
        assert net.route_clock == 0.0

    def test_accept_within_timeout_trains_the_estimator(self):
        net = _gray_network(ConstantLatency(0.05), victim=99)
        node, retries, skipped = deliver_first(
            net, 0, [(1, "a")], ADAPTIVE_POLICY
        )
        assert (node, retries, skipped) == ("a", 0, 0)
        assert net.route_clock == pytest.approx(0.05)
        assert net.rtt.estimator(0).srtt == pytest.approx(0.05)

    def test_adaptive_timeout_cuts_the_wait_short(self):
        net = _gray_network(ConstantLatency(0.05), victim=1)
        _warm(net, src=0)
        node, retries, skipped = deliver_first(
            net, 0, [(1, "slow")], ADAPTIVE_POLICY
        )
        # Every round times out fast (adaptive window << 0.5s), then the
        # requester waits the straggler out instead of failing over.
        assert node == "slow"
        assert retries == ADAPTIVE_POLICY.max_retries
        assert net.stats.timeouts == ADAPTIVE_POLICY.max_retries
        # Each adaptive window is well under the fixed timeout, so the
        # whole episode costs less than fixed-timeout rounds would have.
        assert net.route_clock < 5.0 + 4 * 0.1

    def test_forced_accept_does_not_feed_the_estimator(self):
        # Karn's rule: accepted stragglers would inflate the adaptive
        # timeout until stragglers pass unchallenged.
        net = _gray_network(ConstantLatency(0.05), victim=1)
        _warm(net, src=0)
        before = net.rtt.estimator(0).samples_seen
        deliver_first(net, 0, [(1, "slow")], ADAPTIVE_POLICY)
        assert net.rtt.estimator(0).samples_seen == before
        assert net.rtt.estimator(0).srtt == pytest.approx(0.05)

    def test_fixed_policy_burns_full_windows(self):
        net = _gray_network(ConstantLatency(0.05), victim=1)
        node, retries, skipped = deliver_first(
            net, 0, [(1, "slow")], DEFAULT_POLICY
        )
        assert node == "slow"
        assert retries == 2
        assert net.stats.timeouts == 2
        # 0.5 + (0.05 + 0.5) + (0.1 + 5.0): two fixed windows with
        # exponential backoff, then the forced straggler accept.
        assert net.route_clock == pytest.approx(6.15)

    def test_hedge_fires_and_backup_wins(self):
        net = _gray_network(ScriptedLatency([1.0, 0.03]), victim=99)
        _warm(net, src=0)
        node, retries, skipped = deliver_first(
            net, 0, [(1, "a")], HEDGED_POLICY
        )
        assert (node, retries, skipped) == ("a", 0, 0)
        assert net.stats.hedges == 1
        assert net.stats.hedges_won == 1
        # Response = hedge delay (p95 = 0.05) + the backup's own 0.03.
        assert net.route_clock == pytest.approx(0.08)
        # Only the winner's own-transmission RTT trains the estimator.
        assert net.rtt.estimator(0).samples_seen == 11

    def test_hedge_loses_to_the_primary(self):
        net = _gray_network(ScriptedLatency([0.056, 0.2]), victim=99)
        _warm(net, src=0)
        node, _, _ = deliver_first(net, 0, [(1, "a")], HEDGED_POLICY)
        assert node == "a"
        assert net.stats.hedges == 1
        assert net.stats.hedges_won == 0
        assert net.route_clock == pytest.approx(0.056)

    def test_dropped_backup_leaves_primary_racing_alone(self):
        # Pin a loss seed whose first two draws are (deliver, drop): the
        # primary gets through, the hedge backup is lost.
        def draws(s):
            probe = FaultInjector(FaultPlan(loss_rate=0.5, seed=s))
            return [probe.delivered(0, 1) for _ in range(2)]

        seed = next(s for s in range(100) if draws(s) == [True, False])
        injector = FaultInjector(FaultPlan(loss_rate=0.5, seed=seed))
        injector.mark_slow(99, 2.0)
        net = SimulatedNetwork(
            faults=injector, latency_model=ScriptedLatency([1.0])
        )
        _warm(net, src=0)
        policy = LookupPolicy(
            adaptive_timeout=True, hedge=True, max_retries=0, backoff_base=0.0
        )
        node, _, _ = deliver_first(net, 0, [(1, "a")], policy)
        assert node == "a"  # forced accept of the straggling primary
        assert net.stats.hedges == 1
        assert net.stats.hedges_won == 0
        assert net.stats.dropped == 1
        assert net.route_clock == pytest.approx(1.0)

    def test_on_hedge_callback_observes_the_race(self):
        net = _gray_network(ScriptedLatency([1.0, 0.03]), victim=99)
        _warm(net, src=0)
        seen = []
        deliver_first(
            net, 0, [(1, "a")], HEDGED_POLICY,
            on_hedge=lambda dst, won: seen.append((dst, won)),
        )
        assert seen == [(1, True)]
