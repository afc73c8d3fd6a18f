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
  quantile tracker, from which :class:`~repro.sim.faults.LookupPolicy`
  derives adaptive timeouts and hedge-fire delays.

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

    :meth:`timeout` takes the *tighter* of the two (never above the
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
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            err = rtt - self._srtt
            self._rttvar += self.BETA * (abs(err) - self._rttvar)
            self._srtt += self.ALPHA * err
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

    def timeout(self, fallback: float) -> float:
        """Adaptive timeout: tightest of EWMA, quantile and ``fallback``."""
        best = fallback
        if self._srtt is not None:
            best = min(best, self._srtt + self.K * self._rttvar)
        q95 = self.quantile_estimate(0.95)
        if q95 is not None:
            best = min(best, self.MARGIN * q95)
        return max(self.FLOOR, best)


class _RequesterRtt:
    """One requester's view into a :class:`RttBook`.

    Observations feed both the requester's own estimator and the book's
    aggregate; reads prefer the requester's estimator once it is warm and
    fall back to the aggregate before that — so sparse requesters defend
    themselves from the population-wide picture instead of flying blind.
    """

    __slots__ = ("_own", "_aggregate")

    def __init__(self, own: RttEstimator, aggregate: RttEstimator) -> None:
        self._own = own
        self._aggregate = aggregate

    def observe(self, rtt: float) -> None:
        self._own.observe(rtt)
        self._aggregate.observe(rtt)

    def _best(self) -> RttEstimator:
        return self._own if self._own.ready else self._aggregate

    def timeout(self, fallback: float) -> float:
        return self._best().timeout(fallback)

    def hedge_delay(self, quantile: float) -> float | None:
        return self._best().quantile_estimate(quantile)


class RttBook:
    """Per-requester :class:`RttEstimator` registry with a shared aggregate.

    ``for_requester(src_id)`` returns the requester's view (created on
    first use).  The aggregate estimator sees every observation, which is
    what lets adaptive timeouts and hedging engage after a handful of
    warmup queries instead of per-node sample counts.
    """

    def __init__(self) -> None:
        self.aggregate = RttEstimator()
        self._per: dict = {}

    def for_requester(self, src_id) -> _RequesterRtt:
        return _RequesterRtt(self.estimator(src_id), self.aggregate)

    def estimator(self, src_id) -> RttEstimator:
        """The raw per-requester estimator (tests and reporting)."""
        own = self._per.get(src_id)
        if own is None:
            own = RttEstimator()
            self._per[src_id] = own
        return own

    def reset(self) -> None:
        """Drop every estimator (fresh measurement window)."""
        self.aggregate = RttEstimator()
        self._per.clear()

