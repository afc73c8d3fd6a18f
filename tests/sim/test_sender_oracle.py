"""The per-route sender against the per-message loops it replaced.

``SimulatedNetwork.sender`` resolves once per route what the delivery
loops used to re-read per message (and the requester's estimator once per
delivery).  The reference below is the loss-only loop and the timed loop
(``deliver_first``, ``_fire_hedge``, ``_deliver_first_timed``) as they were
before, kept verbatim; ``_SeedNetwork`` / ``_SeedPolicy`` / ``_RequesterRtt``
give them the counters, the per-delivery estimator view and the policy
methods they called, over a real network.  Twin networks (same fault plan,
latency model and seeds) run the same routes, one through each; after
every delivery the two must agree on the answer, the requester clock
(float for float), ``MessageStats``, every estimator's state, both random
streams and the drop / hedge callback sequences.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import ArcPartition, FaultInjector, FaultPlan, LookupPolicy
from repro.sim.latency import ConstantLatency, LognormalLatency, RttEstimator
from repro.sim.network import SimulatedNetwork

# ----------------------------------------------------------------------
# The reference: the seed's loops, verbatim, and the surface they called.
# ----------------------------------------------------------------------


def _seed_timeout(estimator: RttEstimator, fallback: float) -> float:
    """The seed's ``RttEstimator.timeout``."""
    best = fallback
    if estimator._srtt is not None:
        best = min(best, estimator._srtt + estimator.K * estimator._rttvar)
    q95 = estimator.quantile_estimate(0.95)
    if q95 is not None:
        best = min(best, estimator.MARGIN * q95)
    return max(estimator.FLOOR, best)


class _RequesterRtt:
    """The seed's per-delivery view of one requester's estimators."""

    def __init__(self, own: RttEstimator, aggregate: RttEstimator) -> None:
        self._own = own
        self._aggregate = aggregate

    def observe(self, rtt: float) -> None:
        self._own.observe(rtt)
        self._aggregate.observe(rtt)

    def _best(self) -> RttEstimator:
        return self._own if self._own.ready else self._aggregate

    def timeout(self, fallback: float) -> float:
        return _seed_timeout(self._best(), fallback)

    def hedge_delay(self, quantile: float) -> float | None:
        return self._best().quantile_estimate(quantile)


class _SeedPolicy:
    """A :class:`LookupPolicy` with the seed's two estimator readers."""

    hedge_quantile = 0.95

    def __init__(self, policy: LookupPolicy) -> None:
        self._policy = policy
        self.max_retries = policy.max_retries
        self.adaptive_timeout = policy.adaptive_timeout
        self.hedge = policy.hedge
        self.timeout = policy.timeout
        self.backoff_for = policy.backoff_for

    def effective_timeout(self, estimator: Any | None = None) -> float:
        if not self.adaptive_timeout or estimator is None:
            return self.timeout
        return estimator.timeout(self.timeout)

    def hedge_delay(self, estimator: Any | None) -> float | None:
        if not self.hedge or estimator is None:
            return None
        return estimator.hedge_delay(self.hedge_quantile)


class _SeedNetwork:
    """The seed network surface over a real :class:`SimulatedNetwork`."""

    def __init__(self, net: SimulatedNetwork) -> None:
        self._net = net

    @property
    def faults_active(self) -> bool:
        return self._net.faults_active

    @property
    def latency_model(self):
        return self._net.latency_model

    @property
    def last_latency(self) -> float:
        return self._net.last_latency

    @property
    def route_clock(self) -> float:
        return self._net.route_clock

    @route_clock.setter
    def route_clock(self, value: float) -> None:
        self._net.route_clock = value

    def try_deliver(self, src, dst) -> bool:
        return self._net.try_deliver(src, dst)

    def rtt_for(self, src_id) -> _RequesterRtt:
        return _RequesterRtt(self._net.rtt.estimator(src_id), self._net.rtt.aggregate)

    def count_timeout(self) -> None:
        self._net.stats.timeouts += 1

    def count_retry(self) -> None:
        self._net.stats.retries += 1

    def count_hedge(self, won: bool, delivered: bool = True) -> None:
        self._net.stats.hedges += 1
        if delivered:
            self._net.stats.messages += 1
        if won:
            self._net.stats.hedges_won += 1


def deliver_first(
    network: Any,
    src_id: int,
    candidates: Sequence[tuple[int, Any]],
    policy: LookupPolicy,
    on_drop: Callable[[int, int], None] | None = None,
    on_hedge: Callable[[int, bool], None] | None = None,
) -> tuple[Any, int, int]:
    if not candidates:
        return None, 0, 0
    if not network.faults_active:
        return candidates[0][1], 0, 0
    if network.latency_model is not None:
        return _deliver_first_timed(
            network, src_id, candidates, policy, on_drop, on_hedge
        )
    retries_used = 0
    for position, (dst_id, node) in enumerate(candidates):
        for attempt in range(policy.max_retries + 1):
            if attempt:
                retries_used += 1
                network.count_retry()
            if network.try_deliver(src_id, dst_id):
                return node, retries_used, position
            network.count_timeout()
            if on_drop is not None:
                on_drop(dst_id, attempt)
    return None, retries_used, len(candidates)


def _fire_hedge(
    network: Any,
    src_id: int,
    dst_id: int,
    hedge_at: float,
    primary: float,
    on_hedge: Callable[[int, bool], None] | None,
) -> tuple[float, float]:
    if not network.try_deliver(src_id, dst_id):
        network.count_hedge(won=False, delivered=False)
        if on_hedge is not None:
            on_hedge(dst_id, False)
        return primary, primary
    backup_rtt = network.last_latency
    backup = hedge_at + backup_rtt
    won = backup < primary
    network.count_hedge(won=won)
    if on_hedge is not None:
        on_hedge(dst_id, won)
    if won:
        return backup, backup_rtt
    return primary, primary


def _deliver_first_timed(
    network: Any,
    src_id: int,
    candidates: Sequence[tuple[int, Any]],
    policy: LookupPolicy,
    on_drop: Callable[[int, int], None] | None,
    on_hedge: Callable[[int, bool], None] | None,
) -> tuple[Any, int, int]:
    estimator = network.rtt_for(src_id)
    retries_used = 0
    elapsed = 0.0
    try:
        for position, (dst_id, node) in enumerate(candidates):
            for attempt in range(policy.max_retries + 1):
                if attempt:
                    retries_used += 1
                    backoff = policy.backoff_for(attempt)
                    network.count_retry()
                    elapsed += backoff
                timeout = policy.effective_timeout(estimator)
                if not network.try_deliver(src_id, dst_id):
                    network.count_timeout()
                    elapsed += timeout
                    if on_drop is not None:
                        on_drop(dst_id, attempt)
                    continue
                response = network.last_latency
                sample = response
                window = timeout
                hedge_at = policy.hedge_delay(estimator)
                if hedge_at is not None and response > hedge_at:
                    response, sample = _fire_hedge(
                        network, src_id, dst_id, hedge_at, response, on_hedge
                    )
                    window = hedge_at + timeout
                if response <= window:
                    if sample <= timeout:
                        estimator.observe(sample)
                    elapsed += response
                    return node, retries_used, position
                if attempt == policy.max_retries:
                    elapsed += response
                    return node, retries_used, position
                network.count_timeout()
                elapsed += window
                if on_drop is not None:
                    on_drop(dst_id, attempt)
        return None, retries_used, len(candidates)
    finally:
        network.route_clock += elapsed


# ----------------------------------------------------------------------
# Twin networks and the property
# ----------------------------------------------------------------------
#: Network ids 0..SPACE-1; a candidate's node is its id as a label.
SPACE = 12


def _network(loss, partition, slow, model, seed) -> SimulatedNetwork:
    injector = FaultInjector(FaultPlan(loss_rate=loss, seed=seed))
    if partition is not None:
        injector.arm_partition(ArcPartition(*partition, space=SPACE))
    for node_id, multiplier, intermittency in slow:
        injector.mark_slow(node_id, multiplier, intermittency)
    latency = None
    if model == "constant":
        latency = ConstantLatency(0.05)
    elif model is not None:
        latency = LognormalLatency(0.05, sigma=model, seed=seed)
    return SimulatedNetwork(faults=injector, latency_model=latency)


def _estimator_state(estimator: RttEstimator) -> tuple:
    return (
        estimator._srtt, estimator._rttvar,
        list(estimator._window), list(estimator._sorted),
    )


def _state(net: SimulatedNetwork) -> tuple:
    book = net.rtt
    model = net.latency_model
    return (
        net.stats,
        net.route_clock,
        net.last_latency,
        _estimator_state(book.aggregate),
        {src: _estimator_state(est) for src, est in book._per.items()},
        net.faults._rng.bit_generator.state,
        None if model is None else model.rng.bit_generator.state,
    )


policies = st.builds(
    LookupPolicy,
    max_retries=st.integers(0, 4),
    backoff_base=st.sampled_from((0.0, 0.05)),
    failover=st.booleans(),
    adaptive_timeout=st.booleans(),
    hedge=st.booleans(),
)
node_ids = st.integers(0, SPACE - 1)
candidate_lists = st.lists(node_ids, max_size=4).map(
    lambda ids: [(node_id, f"n{node_id}") for node_id in ids]
)
#: A route: its requester ids and candidate lists, one per delivery.
routes = st.lists(st.tuples(node_ids, candidate_lists), min_size=1, max_size=8)


@settings(max_examples=200)
@given(
    policy=policies,
    loss=st.sampled_from((0.0, 0.0, 0.1, 0.3)),
    partition=st.none() | st.tuples(node_ids, node_ids),
    slow=st.lists(
        st.tuples(node_ids, st.sampled_from((2.0, 20.0)), st.sampled_from((0.4, 1.0))),
        max_size=4,
    ),
    model=st.sampled_from((None, "constant", 0.35, 1.0)),
    seed=st.integers(0, 2**16),
    warm=st.lists(
        st.tuples(node_ids, st.integers(1, 12), st.floats(0.01, 0.2)), max_size=4
    ),
    trip=st.lists(routes, min_size=1, max_size=6),
)
def test_sender_matches_the_seed_loops(
    policy, loss, partition, slow, model, seed, warm, trip
):
    reference = _network(loss, partition, slow, model, seed)
    change = _network(loss, partition, slow, model, seed)
    for net in (reference, change):
        # Some requesters warm (their own window decides), the rest cold
        # (the aggregate's does).
        for src, count, rtt in warm:
            for step in range(count):
                net.rtt.estimator(src).observe(rtt * (1 + step / 8))
                net.rtt.aggregate.observe(rtt * (1 + step / 8))
    seed_net, seed_policy = _SeedNetwork(reference), _SeedPolicy(policy)
    for route in trip:
        calls: dict[str, list] = {"reference": [], "change": []}

        def hooks(side):
            log = calls[side]
            return (
                lambda dst, attempt: log.append(("drop", dst, attempt)),
                lambda dst, won: log.append(("hedge", dst, won)),
            )

        send = change.sender(policy, *hooks("change"))
        for src, candidates in route:
            want = deliver_first(seed_net, src, candidates, seed_policy, *hooks("reference"))
            got = send(src, candidates)
            assert got == want
            assert _state(change) == _state(reference)
        assert calls["change"] == calls["reference"]
