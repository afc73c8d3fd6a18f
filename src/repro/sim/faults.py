"""Fault injection: message loss, ID-arc partitions, fail-slow nodes.

The paper's churn study (Section V-C) models only *graceful* joins and
departures on a perfectly reliable network.  This module adds the missing
network-side failure modes so the query path can be exercised under
adversity, each declared in exactly one place:

* **per-message loss** — :class:`FaultPlan`'s ``loss_rate``: every overlay
  message consults the injector and is dropped with a seeded probability
  (the sender observes a timeout);
* **ID-arc partitions** — ``arm_partition`` / ``disarm_partition``: a
  contiguous arc of the identifier space is cut off from the rest;
  messages crossing the cut are dropped deterministically while armed;
* **fail-slow (gray) nodes** — ``mark_slow``: a node that
  is alive and answering, but slow.

Crash failures are not declared here: they are membership events, driven
through the service's seeded ``churn_fail`` (the chaos timeline's
:class:`~repro.sim.chaos.CrashBurst`).

:class:`FaultPlan` is the immutable, seedable part of a fault scenario;
:class:`FaultInjector` is its runtime form, consulted by
:class:`~repro.sim.network.SimulatedNetwork` on every message.  A ``None``
injector (the default everywhere) — or one that cannot currently affect a
message — is a *strict identity*: no randomness is drawn and no behaviour
changes, so every existing figure reproduces unchanged.

:class:`LookupPolicy` describes how a requester copes with the injected
faults: how many retransmission rounds it attempts per hop, its timeout and
backoff accounting, and whether it fails over across successor-list entries
and alternate fingers.  An overlay's fault-path ``lookup`` and range walk
read it from ``overlay.lookup_policy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from repro.utils.validation import require

__all__ = [
    "ArcPartition",
    "FaultPlan",
    "FaultInjector",
    "LookupPolicy",
    "DEFAULT_POLICY",
    "NO_RETRY_POLICY",
    "ADAPTIVE_POLICY",
    "HEDGED_POLICY",
    "deliver_first",
]


@dataclass(frozen=True)
class ArcPartition:
    """A contiguous identifier arc cut off from the rest of the overlay.

    Nodes whose (wrapped) integer ID lies on the clockwise arc
    ``[lo, hi]`` cannot exchange messages with nodes outside it.  ``space``
    is the identifier-space size used for wrapping; Cycloid overlays pass
    their linearized ``(k, a)`` IDs.
    """

    lo: int
    hi: int
    space: int

    def __post_init__(self) -> None:
        require(self.space >= 1, "partition space must be >= 1")

    def contains(self, node_id: int) -> bool:
        """Whether ``node_id`` falls inside the partitioned arc."""
        nid = node_id % self.space
        lo, hi = self.lo % self.space, self.hi % self.space
        if lo <= hi:
            return lo <= nid <= hi
        return nid >= lo or nid <= hi

    def severs(self, src: int | None, dst: int | None) -> bool:
        """Whether a ``src → dst`` message crosses the cut."""
        if src is None or dst is None:
            return False
        return self.contains(src) != self.contains(dst)


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, seedable description of a fault scenario.

    ``loss_rate`` is the per-message drop probability; ``seed`` pins the
    loss stream, so a plan reproduces the exact same drop pattern.
    """

    loss_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require(0.0 <= self.loss_rate < 1.0, "loss_rate must be in [0, 1)")


class FaultInjector:
    """Runtime form of a :class:`FaultPlan`.

    ``delivered(src, dst)`` is the single question the network asks; it is
    answered from the armed partitions first (deterministic) and the seeded
    loss stream second.  Partitions are armed/disarmed and nodes marked
    slow/cleared mid-run — by an experiment or the chaos timeline — to
    model transient splits and gray failures.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._loss_rate = plan.loss_rate
        self._rng = np.random.default_rng(plan.seed)
        self._partitions: list[ArcPartition] = []
        self._slow: dict[int, tuple[float, float]] = {}

    @property
    def active(self) -> bool:
        """Whether the injector can currently affect a message: it drops
        (loss, an armed partition) or slows (a marked node) something.
        Everything else stays on the fault-free fast paths."""
        return self._loss_rate > 0.0 or bool(self._partitions) or bool(self._slow)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def arm_partition(self, partition: ArcPartition) -> None:
        """Activate an additional ID-arc partition."""
        self._partitions.append(partition)

    def disarm_partition(self, partition: ArcPartition) -> bool:
        """Disarm one armed partition (that split heals); returns whether it
        was armed.  Scenario timelines heal partitions individually while
        others stay armed."""
        try:
            self._partitions.remove(partition)
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------
    # Fail-slow state (gray failures)
    # ------------------------------------------------------------------
    def mark_slow(
        self, node_id: int, multiplier: float, intermittency: float = 1.0
    ) -> None:
        """Turn ``node_id`` gray: alive, answering, but *slow*.

        Messages to ``node_id`` have their sampled latency multiplied by
        ``multiplier`` with probability ``intermittency`` each (1.0 =
        persistently slow; below 1.0 models the transient stalls — GC
        pauses, queue buildup — that make gray failures hard to detect and
        hedging effective).  IDs live in the network's linearized
        identifier space, like :class:`ArcPartition` bounds.  The loss
        stream is untouched."""
        require(multiplier >= 1.0, "slow-node multiplier must be >= 1")
        require(0.0 < intermittency <= 1.0, "intermittency must be in (0, 1]")
        self._slow[node_id] = (float(multiplier), float(intermittency))

    def latency_factor(
        self, src: int | None, dst: int | None, rng: np.random.Generator
    ) -> float:
        """Multiplier applied to one delivered message's sampled latency.

        A gray *destination* contributes its multiplier with its
        intermittency probability; ``src`` is ignored on purpose (a
        fail-slow node is slow to *serve* — messages sent to it come back
        late; its own outbound requests are answered by healthy peers at
        full speed, which is what makes requester-side defenses
        meaningful).  ``rng`` is the *latency* stream (the model's own
        generator) — intermittency draws must never perturb the seeded
        loss stream, or requester policies would change which messages
        drop.
        """
        spec = self._slow.get(dst)
        if spec is None:
            return 1.0
        multiplier, intermittency = spec
        if intermittency >= 1.0 or float(rng.random()) < intermittency:
            return multiplier
        return 1.0

    # ------------------------------------------------------------------
    # The per-message question
    # ------------------------------------------------------------------
    def delivered(self, src: int | None = None, dst: int | None = None) -> bool:
        """Whether one ``src → dst`` message survives the fault plan."""
        for partition in self._partitions:
            if partition.severs(src, dst):
                return False
        if self._loss_rate > 0.0:
            return float(self._rng.random()) >= self._loss_rate
        return True


@dataclass(frozen=True)
class LookupPolicy:
    """How a requester tolerates message loss and dead routing entries.

    Parameters
    ----------
    max_retries:
        Retransmission rounds per hop after the first attempt.  Within one
        round every failover candidate is tried once.
    backoff_base:
        Exponential backoff accounting between retransmission rounds:
        round ``i`` waits ``backoff_base * backoff_factor**(i-1)`` seconds.
    failover:
        Fail over to alternate next hops when the preferred one is
        unreachable: further successor-list entries (Chord — with
        replication ``r >= 2`` the failover target holds the data, keeping
        queries complete) and lower fingers / other routing-table entries.
    adaptive_timeout:
        Replace the fixed ``timeout`` with the requester's
        :class:`~repro.sim.latency.RttEstimator`-derived timeout (never
        above ``timeout``, so the fixed value stays the conservative cap).
        Only meaningful while a latency model is attached.
    hedge:
        After the observed ``hedge_quantile`` delay with no answer, fire
        one backup copy of the message and take whichever response lands
        first.  Hedging is *result-transparent*: the backup goes to the
        same destination, so only latency and hedge counters can change.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    failover: bool = True
    adaptive_timeout: bool = False
    hedge: bool = False

    #: Simulated seconds the sender waits before declaring one message
    #: lost (accounting only; accumulated in ``MessageStats``).
    timeout: ClassVar[float] = 0.5
    #: The growth factor of the backoff between retransmission rounds.
    backoff_factor: ClassVar[float] = 2.0
    #: Observed response-time quantile at which the hedge fires (the "tail
    #: at scale" p95 rule).
    hedge_quantile: ClassVar[float] = 0.95
    #: Exponent ceiling for :meth:`backoff_for` — far beyond any plausible
    #: retry budget, small enough that ``factor ** cap`` stays finite.
    _BACKOFF_EXPONENT_CAP: ClassVar[int] = 32

    def __post_init__(self) -> None:
        require(self.max_retries >= 0, "max_retries must be >= 0")
        require(self.backoff_base >= 0, "backoff_base must be >= 0")

    def backoff_for(self, round_index: int) -> float:
        """Backoff seconds before retransmission round ``round_index >= 1``.

        The exponent is capped: uncapped ``base * factor**(k-1)`` overflows
        to ``inf`` for large round indices (``2.0**1100`` already does),
        and one ``inf`` poisons the requester clock it is added to.
        """
        exponent = min(round_index - 1, self._BACKOFF_EXPONENT_CAP)
        return self.backoff_base * self.backoff_factor**exponent

    def effective_timeout(self, estimator: Any | None = None) -> float:
        """The timeout charged for one unanswered message.

        The fixed ``timeout`` — unless ``adaptive_timeout`` is set and an
        estimator view is available, in which case the estimator's
        (tighter, floor-clamped) adaptive value applies.
        """
        if not self.adaptive_timeout or estimator is None:
            return self.timeout
        return estimator.timeout(self.timeout)

    def hedge_delay(self, estimator: Any | None) -> float | None:
        """Seconds after which a hedge fires, or ``None`` while the
        estimator is still too cold to know its ``hedge_quantile``."""
        if not self.hedge or estimator is None:
            return None
        return estimator.hedge_delay(self.hedge_quantile)


#: The default requester behaviour: 2 retransmission rounds, full failover.
DEFAULT_POLICY = LookupPolicy()

#: A brittle requester: one shot per hop, no failover — the ablation
#: baseline showing what retry + failover buy.
NO_RETRY_POLICY = LookupPolicy(max_retries=0, failover=False)

#: Adaptive timeouts only: the estimator replaces the fixed timeout.
#: Adaptive rounds are cheap (the window is the observed RTT picture, not
#: the fixed worst case), so the defended policies afford a larger retry
#: budget before waiting a straggler out.  They also drop the exponential
#: backoff: retransmissions are paced by the adaptive deadline itself, and
#: a gray failure is not congestive — backoff would only stretch the very
#: tail the defense exists to cut.
ADAPTIVE_POLICY = LookupPolicy(
    adaptive_timeout=True, max_retries=4, backoff_base=0.0
)

#: The full tail-latency defense: adaptive timeouts + p95 hedging.
HEDGED_POLICY = LookupPolicy(
    adaptive_timeout=True, hedge=True, max_retries=4, backoff_base=0.0
)


def deliver_first(
    network: Any,
    src_id: int,
    candidates: Sequence[tuple[int, Any]],
    policy: LookupPolicy,
    on_drop: Callable[[int, int], None] | None = None,
    on_hedge: Callable[[int, bool], None] | None = None,
) -> tuple[Any, int, int]:
    """Deliver one message to the first reachable candidate.

    ``candidates`` is an ordered ``(dst_id, node)`` preference list.  The
    preferred candidate is retried up to ``max_retries`` times (with
    backoff accounting) before the requester fails over to the next one —
    transient loss is absorbed by retransmission, persistent
    unreachability by failover.  Dropped messages count as timeouts.

    ``on_drop(dst_id, attempt)`` — when given — observes every failed
    delivery attempt (the hop-level tracer sources its "drop" annotations
    from here, so annotations reflect the injector's actual decisions).
    ``on_hedge(dst_id, won)`` likewise observes every hedge fired on the
    latency-aware path.

    Returns ``(node, retries_used, skipped)`` where ``skipped`` is the
    number of candidates given up on before ``node`` answered, or
    ``(None, retries_used, len(candidates))`` when every candidate failed.

    With no injector active this is exact-identity: the first candidate
    wins, nothing is counted, no randomness is drawn.  With an injector
    but no latency model the seed's loss-only loop runs unchanged; a
    latency model routes through :func:`_deliver_first_timed`, which adds
    the requester clock, adaptive timeouts and hedging.
    """
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
    """Fire one backup request at ``hedge_at`` and race the primary.

    The backup is a fresh transmission to the *same* destination (an iid
    latency draw — the "tail at scale" defense against stragglers and
    intermittent gray failures), so results cannot change, only response
    time.  Returns ``(response, sample)``: the winning response time
    measured from the primary's send instant, and the winning
    transmission's *own* RTT (the backup's latency excludes the hedge
    delay) — the value safe to feed the estimator.  A dropped backup
    leaves the primary racing alone.
    """
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
    """The latency-aware delivery loop (a latency model is attached).

    Semantics on top of the loss-only loop:

    * every delivered message carries a sampled response time;
    * the timeout charged per unanswered window is the policy's
      *effective* timeout (adaptive when enabled);
    * a delivered-but-late response (slower than the timeout) is treated
      as lost — the requester retransmits to the *same* destination — but
      once retransmissions are exhausted the requester waits the slow
      reply out rather than failing over: the node is alive, and failing
      over would change query results under a pure fail-slow fault;
    * with hedging enabled, a response slower than the observed
      ``hedge_quantile`` races a backup copy; the first answer wins;
    * responses accepted within the timeout feed the requester's RTT
      estimator; forced (retries-exhausted) straggler accepts do not
      (Karn's rule), and the requester-observed elapsed time (responses
      + timeout windows + backoffs) accumulates on
      ``network.route_clock``.

    Only latencies, latency-side counters and the estimator differ from
    the loss-only loop: which node answers is decided by the same
    drop/failover logic, so owner sets stay policy-independent under
    pure fail-slow plans (the result-transparency property).
    """
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
                    # Dropped outright: the requester burns the full
                    # timeout window before acting.
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
                    # The backup got its own deadline, clocked from its
                    # own send instant: the round is given up only once
                    # both transmissions' windows expired.
                    window = hedge_at + timeout
                if response <= window:
                    if sample <= timeout:
                        # Only responses within their own transmission's
                        # deadline train the estimator — accepted
                        # stragglers would inflate it until stragglers
                        # pass unchallenged (Karn's rule).
                        estimator.observe(sample)
                    elapsed += response
                    return node, retries_used, position
                if attempt == policy.max_retries:
                    # Retries exhausted: the node is alive, so the
                    # requester waits the straggler out (failing over
                    # would change results under pure fail-slow).  The
                    # sample does NOT feed the estimator — Karn's rule:
                    # straggler accepts would inflate the adaptive
                    # timeout until stragglers pass unchallenged,
                    # defeating the defense they triggered.
                    elapsed += response
                    return node, retries_used, position
                # Delivered but slower than the deadline(s): declared
                # lost, retransmit to the same destination.
                network.count_timeout()
                elapsed += window
                if on_drop is not None:
                    on_drop(dst_id, attempt)
        return None, retries_used, len(candidates)
    finally:
        network.route_clock += elapsed
