"""Tests for latency models, RTT estimation and critical-path latency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.resource import MultiQueryResult
from repro.experiments.common import build_services
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.latency import (
    ConstantLatency,
    LognormalLatency,
    RttBook,
    RttEstimator,
)
from repro.sim.network import SimulatedNetwork
from repro.workloads.generator import QueryKind


class TestConstantLatency:
    def test_sample_is_the_constant(self):
        model = ConstantLatency(0.05)
        assert all(model.sample() == 0.05 for _ in range(10))

    def test_route_reproduces_seed_expression(self):
        # Byte-identical to the seed's ``hops * hop_latency``.
        assert ConstantLatency(0.05).route(7) == 7 * 0.05

    def test_mean(self):
        assert ConstantLatency(0.08).mean() == 0.08

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLatency(0.0)


class TestLognormalLatency:
    def test_seeded_stream_reproducible(self):
        a = LognormalLatency(median=0.05, seed=11)
        b = LognormalLatency(median=0.05, seed=11)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_sigma_zero_degenerates_to_the_median(self):
        model = LognormalLatency(median=0.05, sigma=0.0, seed=1)
        assert all(model.sample() == pytest.approx(0.05) for _ in range(10))

    def test_route_sums_hops(self):
        model = LognormalLatency(median=0.05, sigma=0.35, seed=5)
        assert model.route(0) == 0.0
        total = model.route(2000)
        mean = 0.05 * np.exp(0.5 * 0.35**2)  # lognormal mean: median * e^(sigma^2 / 2)
        assert total == pytest.approx(2000 * mean, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LognormalLatency(median=0.0)
        with pytest.raises(ValueError):
            LognormalLatency(median=0.05, sigma=-0.1)


class TestRttEstimator:
    def test_first_observation_initialises_jacobson_state(self):
        est = RttEstimator()
        est.observe(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)

    def test_timeout_falls_back_before_any_sample(self):
        assert RttEstimator().timeout(0.5) == 0.5

    def test_quantiles_need_min_samples(self):
        assert RttEstimator.MIN_SAMPLES == 8
        est = RttEstimator()
        for _ in range(7):
            est.observe(0.1)
        assert not est.ready
        assert est.quantile_estimate(0.95) is None
        est.observe(0.1)
        assert est.ready
        assert est.quantile_estimate(0.95) == 0.1

    def test_timeout_tightens_on_a_stable_stream(self):
        est = RttEstimator()
        for _ in range(20):
            est.observe(0.1)
        # Stable 100ms RTTs must pull the timeout well under a fixed 1s.
        assert est.timeout(1.0) < 0.2

    def test_timeout_never_exceeds_the_fallback(self):
        est = RttEstimator()
        for _ in range(20):
            est.observe(5.0)
        assert est.timeout(0.5) == 0.5

    def test_timeout_floor(self):
        est = RttEstimator()
        for _ in range(20):
            est.observe(1e-9)
        assert est.timeout(0.5) == RttEstimator.FLOOR

    def test_window_keeps_the_last_samples_in_arrival_order(self):
        est = RttEstimator()
        for i in range(RttEstimator.WINDOW + 5):
            est.observe(float(i))
        assert est.samples_seen == RttEstimator.WINDOW
        assert list(est._window) == [float(i) for i in range(5, RttEstimator.WINDOW + 5)]

    def test_every_observe_moves_the_quantile(self):
        est = RttEstimator()
        for _ in range(10):
            est.observe(0.1)
        assert est.quantile_estimate(0.95) == 0.1
        est.observe(5.0)  # a new maximum: p95 sits between it and 0.1
        assert est.quantile_estimate(0.95) > 0.1
        assert est.quantile_estimate(0.95) == float(np.quantile(np.asarray(est._window), 0.95))

    def test_sorted_mirror_is_the_sorted_window_after_every_observe(self):
        # Over three window turnovers, with repeats (evicting one of several
        # equal samples must drop exactly one of them).
        rng = np.random.default_rng(3)
        est = RttEstimator()
        for step in range(3 * RttEstimator.WINDOW + 17):
            if step % 5 == 0 and est.samples_seen:
                rtt = est._window[int(rng.integers(est.samples_seen))]
            else:
                rtt = float(rng.choice([0.1, 0.2, 0.3, rng.random()]))
            est.observe(rtt)
            assert list(est._sorted) == sorted(est._window)

    def test_each_quantile_reads_its_own_order_statistics(self):
        est = RttEstimator()
        for value in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            est.observe(value)
        assert est.quantile_estimate(0.95) == float(np.quantile(np.asarray(est._window), 0.95))
        assert est.quantile_estimate(0.5) == 0.5

    #: Quantiles the requester policies read, plus the extremes.
    _QS = (0.01, 0.5, 0.95, 0.99)

    @pytest.mark.parametrize("seed", range(6))
    def test_quantile_is_numpys_linear_quantile_float_for_float(self, seed):
        # Lognormal RTTs with ties injected (repeats of earlier samples and
        # runs of one constant), through the fill and across the window
        # wrap: every estimate must be the exact float np.quantile returns.
        rng = np.random.default_rng(seed)
        est = RttEstimator()
        steps = 3 * RttEstimator.WINDOW + 40
        compared = 0
        for step in range(steps):
            draw = rng.random()
            if draw < 0.15 and est.samples_seen:
                rtt = est._window[int(rng.integers(est.samples_seen))]
            elif draw < 0.2:
                rtt = 0.05
            else:
                rtt = 0.05 * float(np.exp(0.35 * rng.standard_normal()))
                if draw > 0.97:
                    rtt *= 20.0
            est.observe(rtt)
            if not est.ready:
                assert all(est.quantile_estimate(q) is None for q in self._QS)
                continue
            window = np.asarray(list(est._window))
            for q in self._QS:
                assert est.quantile_estimate(q) == float(np.quantile(window, q)), (step, q)
                compared += 1
        assert compared == len(self._QS) * (steps - RttEstimator.MIN_SAMPLES + 1)


class TestRttBook:
    def test_observations_feed_requester_and_aggregate(self):
        book = RttBook()
        view = book.for_requester(1)
        view.observe(0.1)
        assert book.estimator(1).samples_seen == 1
        assert book.aggregate.samples_seen == 1

    def test_cold_requester_defends_from_the_aggregate(self):
        book = RttBook()
        for _ in range(10):
            book.for_requester(1).observe(0.1)
        # Requester 2 has no samples of its own but inherits the
        # population-wide picture instead of flying blind.
        assert book.for_requester(2).timeout(1.0) < 0.2
        assert book.for_requester(2).hedge_delay(0.95) == pytest.approx(0.1)

    def test_warm_requester_prefers_its_own_estimator(self):
        book = RttBook()
        for _ in range(10):
            book.for_requester(1).observe(1.0)
        for _ in range(10):
            book.for_requester(2).observe(0.01)
        assert book.for_requester(2).hedge_delay(0.95) == pytest.approx(0.01)

    def test_requesters_and_reset(self):
        book = RttBook()
        book.for_requester(3).observe(0.1)
        assert book.estimator(3).samples_seen == 1
        book.reset()
        assert book.estimator(3).samples_seen == 0
        assert book.aggregate.samples_seen == 0


class TestNetworkLatencySampling:
    def test_no_model_keeps_latency_counters_zero(self):
        injector = FaultInjector(FaultPlan(loss_rate=0.3, seed=1))
        net = SimulatedNetwork(faults=injector)
        for _ in range(50):
            net.try_deliver(0, 1)
        assert net.last_latency == 0.0

    def test_no_active_faults_is_the_fast_path(self):
        # A model alone (no injector) must not draw any randomness.
        net = SimulatedNetwork(latency_model=LognormalLatency(0.05, seed=2))
        state = net.latency_model.rng.bit_generator.state
        assert net.try_deliver(0, 1)
        assert net.last_latency == 0.0
        assert net.latency_model.rng.bit_generator.state == state

    def test_delivered_messages_sample_the_model(self):
        injector = FaultInjector(FaultPlan(seed=1))
        injector.mark_slow(99, 2.0)  # activates the injector; dst 1 healthy
        net = SimulatedNetwork(
            faults=injector, latency_model=ConstantLatency(0.05)
        )
        assert net.try_deliver(0, 1)
        assert net.last_latency == pytest.approx(0.05)

    def test_slow_destination_multiplies_the_sample(self):
        injector = FaultInjector(FaultPlan(seed=1))
        injector.mark_slow(1, 10.0)  # persistent (intermittency 1.0)
        net = SimulatedNetwork(
            faults=injector, latency_model=ConstantLatency(0.05)
        )
        assert net.try_deliver(0, 1)
        assert net.last_latency == pytest.approx(0.5)

    def test_count_hedge_accounting(self):
        net = SimulatedNetwork()
        net.count_hedge(won=True)
        net.count_hedge(won=False)
        net.count_hedge(won=False, delivered=False)
        assert net.stats.hedges == 3
        assert net.stats.hedges_won == 1
        assert net.stats.messages == 2  # dropped backup already counted


class TestCriticalPathLatency:
    """A multi-attribute answer arrives with its slowest parallel
    sub-query; fault-free under a constant model that is the seed's
    ``latency_hops × hop_latency``."""

    def test_constant_model_reproduces_seed_expression(self, tiny_config):
        bundle = build_services(tiny_config)
        queries = list(
            bundle.workload.query_stream(20, 3, QueryKind.RANGE, label="critical")
        )
        for service in bundle.all():
            service.configure_latency(ConstantLatency(0.05))
            for q in queries:
                result = service.multi_query(q)
                assert result.latency == result.latency_hops * 0.05

    def test_empty_result(self):
        assert MultiQueryResult(frozenset(), ()).latency == 0.0
