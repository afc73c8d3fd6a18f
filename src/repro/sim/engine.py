"""Deterministic discrete-event engine.

A minimal but complete event-queue simulator: events are ``(time, seq)``
ordered (the monotonically increasing sequence number breaks ties so that
same-timestamp events fire in scheduling order, keeping runs deterministic),
actions are arbitrary callables, and the clock only moves when events fire.

The churn experiments (Figure 6) drive node joins/departures and query
arrivals through one :class:`Simulator`; the static experiments do not need
an engine at all and call the overlays directly.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.utils.validation import require

__all__ = ["Event", "Simulator"]


@dataclass(order=True, frozen=True)
class Event:
    """A scheduled action.  Ordered by ``(time, seq)``."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    name: str = field(compare=False, default="")


class Simulator:
    """Binary-heap discrete-event scheduler with a monotonic clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(2.0, lambda: fired.append("b"))
    >>> _ = sim.schedule_at(1.0, lambda: fired.append("a"))
    >>> sim.run()
    2
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[Event] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule_at(self, time: float, action: Callable[[], None], name: str = "") -> Event:
        """Schedule ``action`` at absolute simulation time ``time``.

        ``time`` strictly before the current clock is rejected (scheduling
        *at* the current instant is allowed and fires after every earlier-
        scheduled event of the same timestamp).  NaN is rejected too — a
        NaN timestamp would silently corrupt the heap ordering.
        """
        require(
            time >= self._now,
            f"cannot schedule into the past (t={time}, now={self._now})",
        )
        event = Event(time=time, seq=next(self._seq), action=action, name=name)
        heapq.heappush(self._queue, event)
        return event

    def step(self) -> Event | None:
        """Fire the next event; returns it, or ``None`` if queue is empty."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        self._now = event.time
        event.action()
        return event

    def run(self) -> int:
        """Run until the queue drains; returns the events fired."""
        fired = 0
        while self._queue:
            self.step()
            fired += 1
        return fired

    def run_until(self, time: float) -> int:
        """Fire all events with timestamp ≤ ``time``; advance clock to ``time``."""
        fired = 0
        while self._queue and self._queue[0].time <= time:
            self.step()
            fired += 1
        self._now = max(self._now, time)
        return fired
