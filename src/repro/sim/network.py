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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

from repro.sim.faults import FaultInjector
from repro.sim.latency import LatencyModel, RttBook

__all__ = ["MessageStats", "SimulatedNetwork"]


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

    def as_dict(self) -> dict[str, int]:
        """Flat field → value mapping."""
        return asdict(self)

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
    #: Requester-observed elapsed seconds accumulated by
    #: :func:`~repro.sim.faults.deliver_first` — response waits, timeout
    #: windows and backoffs.  Services snapshot/delta it per query.
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

    def rtt_for(self, src_id):
        """The :class:`~repro.sim.latency.RttBook` view of requester
        ``src_id`` (created on first use)."""
        return self._rtt.for_requester(src_id)

    def reset_rtt(self) -> None:
        """Drop all RTT estimator state (fresh measurement window)."""
        self._rtt.reset()

    def sample_latency(self, src: int | None, dst: int | None) -> float:
        """One message's latency under the attached model and fail-slow
        faults: a model draw scaled by the injector's ``latency_factor``
        (slow nodes)."""
        latency = self.latency_model.sample()
        if self.faults is not None:
            latency *= self.faults.latency_factor(src, dst, self.latency_model.rng)
        self.last_latency = latency
        return latency

    def try_deliver(self, src: int | None = None, dst: int | None = None) -> bool:
        """Attempt one ``src → dst`` message against the fault injector.

        Returns ``True`` when the message gets through (always, with no
        injector attached).  A dropped message counts toward ``messages``
        (it was sent and cost bandwidth) and toward ``dropped``, but not
        toward ``routing_hops`` — hop accounting stays with the actual
        routing movement so successful paths cost exactly what they did
        before faults existed.

        With a latency model attached, every *delivered* message gets a
        per-message latency sample (readable as :attr:`last_latency`);
        without one, nothing latency-related happens.
        """
        if not self.faults_active:
            return True
        if self.faults.delivered(src, dst):
            if self.latency_model is not None:
                self.sample_latency(src, dst)
            return True
        self.stats.messages += 1
        self.stats.dropped += 1
        return False

    def count_timeout(self) -> None:
        """Record one requester-observed timeout (a message never answered)."""
        self.stats.timeouts += 1

    def count_retry(self) -> None:
        """Record one retransmission round."""
        self.stats.retries += 1

    def count_hedge(self, won: bool, delivered: bool = True) -> None:
        """Record one hedged (backup) request.

        ``won`` — the backup answered before the primary.  ``delivered``
        — the backup survived the fault plan; a dropped backup was
        already counted by ``try_deliver``, so only delivered backups add
        to ``messages`` here (hedge bandwidth overhead = ``hedges``).
        """
        self.stats.hedges += 1
        if delivered:
            self.stats.messages += 1
        if won:
            self.stats.hedges_won += 1

    def count_hop(self, n: int = 1) -> None:
        """Record ``n`` routing hops (each hop is one message)."""
        self.stats.routing_hops += n
        self.stats.messages += n

    def count_maintenance(self, n: int = 1) -> None:
        """Record ``n`` maintenance messages (stabilize, leaf-set repair…)."""
        self.stats.maintenance_messages += n
        self.stats.messages += n

