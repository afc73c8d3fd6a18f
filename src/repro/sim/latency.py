"""Per-message latency models and requester-side RTT estimation.

The seed's latency story was a single constant: ``response time = hops ×
hop_latency``.  Real message latencies are distributions with heavy upper
tails, and the D1HT line of work (PAPERS.md) argues lookup *latency* — not
hop count — is the axis DHTs actually compete on.  This module supplies the
fail-slow substrate:

* :class:`LatencyModel` — a pluggable, seeded per-message latency source.
  :class:`ConstantLatency` reproduces the seed behaviour exactly;
  :class:`LognormalLatency` is the classic WAN RTT shape.
* :class:`RttEstimator` / :class:`RttBook` — the requester-side defenses:
  an EWMA (Jacobson/Karels) smoothed-RTT tracker plus a sliding-window
  quantile tracker, from which the network's timed sender
  (:meth:`~repro.sim.network.SimulatedNetwork.sender`) derives the
  adaptive timeouts and hedge-fire delays a
  :class:`~repro.sim.faults.LookupPolicy` asks for.

A ``None`` latency model (the default everywhere) is a strict identity: no
randomness is drawn and no behaviour changes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left, insort

import numpy as np

from repro.utils.validation import require, require_positive

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "LognormalLatency",
    "RttEstimator",
    "RttBook",
]


class LatencyModel(ABC):
    """Seeded source of one-way message latencies (seconds).

    ``sample()`` draws the latency of one overlay message; ``route(hops)``
    draws a full serial hop chain.  Implementations own a
    ``numpy.random.Generator`` (exposed as :attr:`rng` so fail-slow
    intermittency draws share the latency stream, never the loss stream).
    """

    rng: np.random.Generator

    @abstractmethod
    def sample(self) -> float:
        """Latency of one message, in seconds."""

    @abstractmethod
    def route(self, hops: int) -> float:
        """Total latency of ``hops`` serial messages."""


class ConstantLatency(LatencyModel):
    """The seed's model: every message takes exactly ``hop_latency`` seconds.

    ``route`` computes ``hops * hop_latency`` — the byte-identical
    expression the experiments used before latency models existed.

    Examples
    --------
    >>> ConstantLatency(0.05).route(7)
    0.35000000000000003
    """

    def __init__(self, hop_latency: float) -> None:
        require_positive(hop_latency, "hop_latency")
        self.hop_latency = float(hop_latency)
        self.rng = np.random.default_rng(0)

    def sample(self) -> float:
        return self.hop_latency

    def route(self, hops: int) -> float:
        return hops * self.hop_latency

    def mean(self) -> float:
        """The per-message latency (reporting)."""
        return self.hop_latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstantLatency({self.hop_latency})"


class LognormalLatency(LatencyModel):
    """Lognormal per-message latency: ``median * exp(sigma * N(0, 1))``.

    The standard model of WAN round-trip times: most messages land near
    the median, a long multiplicative upper tail supplies the stragglers
    that hedging is designed to absorb.
    """

    def __init__(self, median: float, sigma: float = 0.35, seed: int = 0) -> None:
        require_positive(median, "median")
        require(sigma >= 0.0, "sigma must be >= 0")
        self.median = float(median)
        self.sigma = float(sigma)
        self.rng = np.random.default_rng(seed)

    def sample(self) -> float:
        return self.median * float(np.exp(self.sigma * self.rng.standard_normal()))

    def route(self, hops: int) -> float:
        if hops <= 0:
            return 0.0
        draws = np.exp(self.sigma * self.rng.standard_normal(hops))
        return self.median * float(draws.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LognormalLatency(median={self.median}, sigma={self.sigma})"


class RttEstimator:
    """EWMA + sliding-window quantile tracker of observed response times.

    Two complementary views of the same sample stream:

    * Jacobson/Karels smoothing — ``srtt`` (EWMA, gain :attr:`ALPHA`) and
      ``rttvar`` (mean absolute deviation, gain :attr:`BETA`), giving the
      classic retransmission timeout ``srtt + K * rttvar``;
    * a FIFO window of the last :attr:`WINDOW` raw samples, giving
      empirical quantiles — the p95 at which hedges fire, and a robust
      timeout ``MARGIN * q`` that stays tight even when a few accepted
      stragglers inflate ``rttvar``.

    :meth:`deadlines` takes the *tighter* of the two (never above the
    policy's fixed fallback, never below :attr:`FLOOR`), so a gray-failure
    burst cannot talk the estimator into waiting longer than a fixed
    timeout would have.

    The window is kept twice: in arrival order (what to evict) and in
    value order (what a quantile reads), the second updated by one bisect
    delete and one bisect insert per :meth:`observe`, so a quantile is two
    order statistics and never a sort.
    """

    __slots__ = ("_srtt", "_rttvar", "_window", "_sorted")

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0
    MARGIN = 1.5
    WINDOW = 128
    #: Samples the window needs before its quantiles are trusted.
    MIN_SAMPLES = 8
    FLOOR = 1e-3
    #: The response-time quantile the robust timeout and the hedge read
    #: (the "tail at scale" p95 rule).
    QUANTILE = 0.95

    def __init__(self) -> None:
        self._srtt: float | None = None
        self._rttvar = 0.0
        #: The last ``WINDOW`` samples, oldest first.
        self._window = array("d")
        #: The same samples in ascending order.
        self._sorted = array("d")

    @property
    def srtt(self) -> float | None:
        """Smoothed RTT (None before the first observation)."""
        return self._srtt

    @property
    def rttvar(self) -> float:
        """Smoothed mean absolute RTT deviation."""
        return self._rttvar

    @property
    def samples_seen(self) -> int:
        """Samples currently held in the quantile window."""
        return len(self._window)

    @property
    def ready(self) -> bool:
        """Whether the window holds enough samples to trust quantiles."""
        return len(self._window) >= self.MIN_SAMPLES

    def observe(self, rtt: float) -> None:
        """Fold one requester-observed response time into both trackers."""
        rtt = float(rtt)
        srtt = self._srtt
        if srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            err = rtt - srtt
            # ``abs(err)`` and ``srtt += ALPHA * err``, without the calls.
            self._rttvar += self.BETA * ((err if err >= 0.0 else -err) - self._rttvar)
            self._srtt = srtt + self.ALPHA * err
        window = self._window
        ordered = self._sorted
        if len(window) == self.WINDOW:
            del ordered[bisect_left(ordered, window[0])]
            del window[0]
        window.append(rtt)
        insort(ordered, rtt)

    def quantile_estimate(self, q: float) -> float | None:
        """Empirical ``q``-quantile of the window (None until warm).

        ``np.quantile``'s default ``linear`` method written out, float for
        float: the virtual index ``(n - 1) * q`` between two order
        statistics, interpolated as numpy's ``_lerp`` does (from the upper
        neighbour once the weight reaches 0.5)."""
        ordered = self._sorted
        n = len(ordered)
        if n < self.MIN_SAMPLES:
            return None
        at = (n - 1) * q
        if at >= n - 1:
            return ordered[-1]
        i = int(at)
        a, b = ordered[i], ordered[i + 1]
        t = at - i
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    def deadlines(self, fallback: float) -> tuple[float, float | None]:
        """The adaptive timeout and the :attr:`QUANTILE` it reads, from one
        quantile read: the timeout is the tightest of EWMA, ``MARGIN *``
        quantile and ``fallback`` (never below :attr:`FLOOR`); the
        quantile (None until warm) is also where a hedge fires.  Read once
        per delivery, so ``min`` / ``max`` are written out."""
        best = fallback
        srtt = self._srtt
        if srtt is not None:
            ewma = srtt + self.K * self._rttvar
            if ewma < best:
                best = ewma
        quantile = self.quantile_estimate(self.QUANTILE)
        if quantile is not None:
            robust = self.MARGIN * quantile
            if robust < best:
                best = robust
        return (best if best > self.FLOOR else self.FLOOR), quantile


class RttBook:
    """Per-requester :class:`RttEstimator` registry with a shared aggregate.

    Observations feed both the requester's own estimator and the
    aggregate; a requester defends from its own estimator once that is
    warm and from the aggregate before, so sparse requesters defend
    themselves from the population-wide picture instead of flying blind —
    which is what lets adaptive timeouts and hedging engage after a
    handful of warmup queries instead of per-node sample counts.
    """

    def __init__(self) -> None:
        self.aggregate = RttEstimator()
        self._per: dict = {}

    def estimator(self, src_id) -> RttEstimator:
        """Requester ``src_id``'s own estimator (created on first use)."""
        own = self._per.get(src_id)
        if own is None:
            own = self._per[src_id] = RttEstimator()
        return own

    def deadlines(self, src_id, fallback: float) -> tuple[RttEstimator, float, float | None]:
        """Requester ``src_id``'s own estimator, and the adaptive timeout
        and quantile it defends with (:meth:`RttEstimator.deadlines` of
        its own window once warm, of the aggregate's before)."""
        own = self._per.get(src_id)
        if own is None:
            own = self._per[src_id] = RttEstimator()
        timeout, quantile = (own if own.ready else self.aggregate).deadlines(fallback)
        return own, timeout, quantile

    def reset(self) -> None:
        """Drop every estimator (fresh measurement window)."""
        self.aggregate = RttEstimator()
        self._per.clear()
