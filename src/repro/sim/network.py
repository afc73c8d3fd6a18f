"""Message and hop accounting for the simulated overlay network.

The paper's efficiency metrics are *logical hops* (routing messages
traversed by a lookup) and *visited nodes* (nodes that receive a query and
check their directory).  :class:`SimulatedNetwork` is the single place
where every overlay message is counted, so the experiment harness can read
totals without each overlay keeping its own books.

A simple latency model (constant per-hop delay) is included for the
event-driven churn experiments; the static experiments only use the
counters.

Fault injection plugs in here: when a :class:`~repro.sim.faults.FaultInjector`
is attached, ``try_deliver`` consults it per message and the drop/timeout/
retry counters record what the requesters experienced.  With no injector
attached (the default) nothing changes — the network stays perfectly
reliable and the extra counters stay zero.

A route (one lookup or one range walk) delivers its messages through a
*sender* (:meth:`SimulatedNetwork.sender`): the fault plan, the latency
model and the requester's :class:`~repro.sim.faults.LookupPolicy` cannot
change while a route runs, so what they decide is resolved once per route
— which delivery loop runs, the bound ``try_deliver`` and counters, the
policy's retry budget, backoffs and timeout — and what the requester's
RTT estimator decides once per delivery.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, ClassVar, Sequence

from repro.sim.faults import FaultInjector, LookupPolicy
from repro.sim.latency import LatencyModel, RttBook

__all__ = ["MessageStats", "Sender", "SimulatedNetwork"]

#: One route's delivery function: ``send(src_id, candidates)`` delivers
#: one message from ``src_id`` to the first reachable of the ordered
#: ``(dst_id, node)`` candidates and returns ``(node, retries_used,
#: skipped)`` — see :meth:`SimulatedNetwork.sender`.
Sender = Callable[[Any, Sequence[tuple[Any, Any]]], tuple[Any, int, int]]


@dataclass
class MessageStats:
    """Running totals of overlay traffic."""

    messages: int = 0
    routing_hops: int = 0
    maintenance_messages: int = 0
    dropped: int = 0
    timeouts: int = 0
    retries: int = 0
    #: Hedged (backup) requests fired / won by the backup.
    hedges: int = 0
    hedges_won: int = 0

    def snapshot(self) -> "MessageStats":
        """An independent copy of the current totals."""
        return replace(self)

    def delta_since(self, earlier: "MessageStats") -> "MessageStats":
        """Totals accumulated since ``earlier`` was snapshotted."""
        then = asdict(earlier)
        return MessageStats(
            **{name: value - then[name] for name, value in asdict(self).items()}
        )


@dataclass
class SimulatedNetwork:
    """Hop/message accounting plus a constant-latency model.

    Parameters
    ----------
    faults:
        Optional :class:`~repro.sim.faults.FaultInjector` consulted per
        message by ``try_deliver``.  ``None`` (the default) keeps the
        network perfectly reliable.
    latency_model:
        Optional :class:`~repro.sim.latency.LatencyModel` sampled once per
        delivered message on the fault path.  ``None`` (the default) keeps
        the constant-``hop_latency`` world: no randomness is drawn and
        every fast path is byte-identical.
    """

    #: Simulated one-way latency of a single overlay hop, in seconds (the
    #: constant-latency world, and the lognormal models' median).
    hop_latency: ClassVar[float] = 0.05
    stats: MessageStats = field(default_factory=MessageStats)
    faults: FaultInjector | None = None
    latency_model: LatencyModel | None = None
    #: Latency of the most recent delivered message (fault path only,
    #: meaningful only while a latency model is attached).
    last_latency: float = 0.0
    #: Requester-observed elapsed seconds accumulated by the timed
    #: :meth:`sender` — response waits, timeout windows and backoffs.
    #: Services snapshot/delta it per query.
    route_clock: float = 0.0

    def __post_init__(self) -> None:
        self._rtt = RttBook()

    @property
    def faults_active(self) -> bool:
        """Whether an attached injector is currently injecting anything."""
        return self.faults is not None and self.faults.active

    @property
    def rtt(self) -> RttBook:
        """The per-requester RTT estimators (adaptive timeouts, hedging)."""
        return self._rtt

    def reset_rtt(self) -> None:
        """Drop all RTT estimator state (fresh measurement window)."""
        self._rtt.reset()

    def try_deliver(self, src: int | None = None, dst: int | None = None) -> bool:
        """Attempt one ``src → dst`` message against the fault injector.

        Returns ``True`` when the message gets through (always, with no
        injector attached).  A dropped message counts toward ``messages``
        (it was sent and cost bandwidth) and toward ``dropped``, but not
        toward ``routing_hops`` — hop accounting stays with the actual
        routing movement so successful paths cost exactly what they did
        before faults existed.

        With a latency model attached, every *delivered* message gets a
        per-message latency sample — a model draw scaled by the injector's
        ``latency_factor`` (slow nodes) — readable as :attr:`last_latency`;
        without one, nothing latency-related happens.
        """
        faults = self.faults
        if faults is None or not faults.active:
            return True
        if faults.delivered(src, dst):
            model = self.latency_model
            if model is not None:
                self.last_latency = model.sample() * faults.latency_factor(
                    src, dst, model.rng
                )
            return True
        self.stats.messages += 1
        self.stats.dropped += 1
        return False

    def sender(
        self,
        policy: LookupPolicy,
        on_drop: Callable[[Any, int], None] | None = None,
        on_hedge: Callable[[Any, bool], None] | None = None,
    ) -> Sender:
        """The delivery function of one route under ``policy``.

        ``send(src_id, candidates)`` delivers one message to the first
        reachable of the ordered ``(dst_id, node)`` preference list: the
        preferred candidate is retried up to ``max_retries`` times (with
        backoff accounting) before the requester fails over to the next
        one — transient loss is absorbed by retransmission, persistent
        unreachability by failover.  Dropped messages count as timeouts.
        It returns ``(node, retries_used, skipped)``, ``skipped`` being the
        candidates given up on before ``node`` answered, or ``(None,
        retries_used, len(candidates))`` when every candidate failed.

        ``on_drop(dst_id, attempt)`` — when given — observes every failed
        delivery attempt (the hop-level tracer sources its "drop"
        annotations from here, so annotations reflect the injector's
        actual decisions); ``on_hedge(dst_id, won)`` every hedge fired.

        Built once per route, as one of three loops: with no injector
        active, exact identity (the first candidate wins, nothing is
        counted, no randomness is drawn); with an injector but no latency
        model, the loss-only loop; with a latency model, the timed loop
        (:func:`_timed_sender`).  Every message goes through
        :meth:`try_deliver`, looked up here, on the instance.
        """
        if not self.faults_active:
            return _first_candidate
        if self.latency_model is None:
            return _loss_only_sender(self, policy, on_drop)
        return _timed_sender(self, policy, on_drop, on_hedge)

    def count_retry(self) -> None:
        """Record one retransmission round."""
        self.stats.retries += 1

    def count_hop(self, n: int = 1) -> None:
        """Record ``n`` routing hops (each hop is one message)."""
        self.stats.routing_hops += n
        self.stats.messages += n

    def count_maintenance(self, n: int = 1) -> None:
        """Record ``n`` maintenance messages (stabilize, leaf-set repair…)."""
        self.stats.maintenance_messages += n
        self.stats.messages += n


def _first_candidate(src_id: Any, candidates: Sequence[tuple[Any, Any]]) -> tuple[Any, int, int]:
    """The sender while no fault is active: the first candidate answers."""
    return (candidates[0][1], 0, 0) if candidates else (None, 0, 0)


def _loss_only_sender(
    network: SimulatedNetwork,
    policy: LookupPolicy,
    on_drop: Callable[[Any, int], None] | None,
) -> Sender:
    """The delivery loop of an injector without a latency model."""
    stats = network.stats
    try_deliver = network.try_deliver
    attempts = range(policy.max_retries + 1)

    def send(src_id, candidates):
        retries_used = 0
        for position, (dst_id, node) in enumerate(candidates):
            for attempt in attempts:
                if attempt:
                    retries_used += 1
                    stats.retries += 1
                if try_deliver(src_id, dst_id):
                    return node, retries_used, position
                stats.timeouts += 1
                if on_drop is not None:
                    on_drop(dst_id, attempt)
        return None, retries_used, len(candidates)

    return send


def _timed_sender(
    network: SimulatedNetwork,
    policy: LookupPolicy,
    on_drop: Callable[[Any, int], None] | None,
    on_hedge: Callable[[Any, bool], None] | None,
) -> Sender:
    """The latency-aware delivery loop (a latency model is attached).

    Semantics on top of the loss-only loop:

    * every delivered message carries a sampled response time;
    * the timeout charged per unanswered window is the policy's fixed
      ``timeout``, or with ``adaptive_timeout`` the requester's adaptive
      one (:meth:`~repro.sim.latency.RttBook.deadlines`, never above the
      fixed value);
    * a delivered-but-late response (slower than the timeout) is treated
      as lost — the requester retransmits to the *same* destination — but
      once retransmissions are exhausted the requester waits the slow
      reply out rather than failing over: the node is alive, and failing
      over would change query results under a pure fail-slow fault;
    * with ``hedge``, a response slower than the requester's observed p95
      races one backup copy to the same destination (an iid latency draw,
      the "tail at scale" defense); the first answer wins, and a dropped
      backup leaves the primary racing alone;
    * responses accepted within their own transmission's deadline feed
      the requester's RTT estimator and the aggregate; forced
      (retries-exhausted) straggler accepts do not (Karn's rule), and the
      requester-observed elapsed time (responses + timeout windows +
      backoffs) accumulates on ``network.route_clock``.

    Nothing observes an estimator inside a delivery, so its timeout and
    hedge delay are read once per delivery (one quantile read), not per
    attempt.  Only latencies, latency-side counters and the estimators
    differ from the loss-only loop: which node answers is decided by the
    same drop/failover logic, so owner sets stay policy-independent under
    pure fail-slow plans (the result-transparency property).
    """
    stats = network.stats
    try_deliver = network.try_deliver
    book = network.rtt
    deadlines = book.deadlines
    requester = book.estimator
    aggregate = book.aggregate
    fixed = policy.timeout
    adaptive = policy.adaptive_timeout
    hedge = policy.hedge
    backoff_for = policy.backoff_for
    last = policy.max_retries
    attempts = range(last + 1)

    def send(src_id, candidates):
        if not candidates:
            return None, 0, 0
        timeout, hedge_at = fixed, None
        if adaptive or hedge:
            own, deadline, quantile = deadlines(src_id, fixed)
            if adaptive:
                timeout = deadline
            if hedge:
                hedge_at = quantile
        else:
            own = requester(src_id)
        retries_used = 0
        elapsed = 0.0
        try:
            for position, (dst_id, node) in enumerate(candidates):
                for attempt in attempts:
                    if attempt:
                        retries_used += 1
                        stats.retries += 1
                        elapsed += backoff_for(attempt)
                    if not try_deliver(src_id, dst_id):
                        # Dropped outright: the requester burns the full
                        # timeout window before acting.
                        stats.timeouts += 1
                        elapsed += timeout
                        if on_drop is not None:
                            on_drop(dst_id, attempt)
                        continue
                    response = sample = network.last_latency
                    window = timeout
                    if hedge_at is not None and response > hedge_at:
                        # The backup: a fresh transmission at ``hedge_at``.
                        stats.hedges += 1
                        if try_deliver(src_id, dst_id):
                            stats.messages += 1
                            backup_rtt = network.last_latency
                            backup = hedge_at + backup_rtt
                            won = backup < response
                            if won:
                                stats.hedges_won += 1
                                # The winner's own RTT (without the hedge
                                # delay) is what the estimator may learn.
                                response, sample = backup, backup_rtt
                        else:
                            won = False
                        if on_hedge is not None:
                            on_hedge(dst_id, won)
                        # The backup got its own deadline, clocked from its
                        # own send instant: the round is given up only once
                        # both transmissions' windows expired.
                        window = hedge_at + timeout
                    if response <= window:
                        if sample <= timeout:
                            # Only responses within their own transmission's
                            # deadline train the estimators — accepted
                            # stragglers would inflate them until stragglers
                            # pass unchallenged (Karn's rule).
                            own.observe(sample)
                            aggregate.observe(sample)
                        elapsed += response
                        return node, retries_used, position
                    if attempt == last:
                        # Retries exhausted: the node is alive, so the
                        # requester waits the straggler out (failing over
                        # would change results under pure fail-slow), and
                        # the sample does not train the estimators.
                        elapsed += response
                        return node, retries_used, position
                    # Delivered but slower than the deadline(s): declared
                    # lost, retransmit to the same destination.
                    stats.timeouts += 1
                    elapsed += window
                    if on_drop is not None:
                        on_drop(dst_id, attempt)
            return None, retries_used, len(candidates)
        finally:
            network.route_clock += elapsed

    return send
