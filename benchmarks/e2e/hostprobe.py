"""Two things the host does to a timed loop that the program under test
does not control, measured so that they can be accounted for.

**A neighbour on the core.**  The reference box shares its cores: a
neighbour slows interpreter-bound code by up to 1.5x for seconds or
minutes at a time, which would swamp any regression bound.  Every timed
region of the benchmark is therefore bracketed by a fixed reference kernel,
and the region's time is converted into *reference seconds*: seconds on a
host that runs the kernel in :data:`REFERENCE_S`.  When the host is slowed,
loop and kernel slow down together and the ratio holds.  The kernel never
changes with the program under test, so a faster program still reads
faster.

**Full collections.**  The collector stays on — users pay for it — but a
full (generation 2) collection over the ~10^6 tracked objects of a loaded
bundle costs 0.15-0.3 s and lands in whichever loop happens to run when
the allocation counters trip, mostly not the loop whose garbage caused it.
Their time is measured through ``gc.callbacks``, taken out of the loop it
landed in, and charged to all lanes alike (see ``Tally.rate``).
"""

from __future__ import annotations

import gc
from time import perf_counter

__all__ = ["HostProbe", "REFERENCE_S"]

#: What the kernel takes on the quiet reference box.
REFERENCE_S = 0.005


class HostProbe:
    """The reference kernel and the full-collection stopwatch.

    The kernel is an index chase through a 200k-entry permutation (cache
    misses) with a dict scan, a list build and integer arithmetic per step
    (interpreter work).  It holds only a handful of GC-tracked containers,
    so it adds nothing to the collector's load.
    """

    steps = 9000

    def __init__(self) -> None:
        size = 200_000
        self._perm = [(i * 7919 + 13) % size for i in range(size)]
        self._small = [{j: (i, j) for j in range(4)} for i in range(64)]
        #: Every kernel time measured, for ``host.probe_ms``.
        self.samples: list[float] = []
        #: Seconds spent in full collections since :meth:`watch_collector`.
        self.full_gc_seconds = 0.0
        self._gc_started = 0.0

    # ------------------------------------------------------------------
    # Full collections
    # ------------------------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] == 2:
            if phase == "start":
                self._gc_started = perf_counter()
            else:
                self.full_gc_seconds += perf_counter() - self._gc_started

    def watch_collector(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_collector(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # Reference kernel
    # ------------------------------------------------------------------
    def measure(self) -> float:
        """Run the kernel once; its time, net of any full collection."""
        perm = self._perm
        small = self._small
        i = acc = 0
        collecting = self.full_gc_seconds
        t0 = perf_counter()
        for _ in range(self.steps):
            i = perm[i]
            acc += len([v for v in small[i & 63].values() if v[1] & 1]) + i * i % 7
        elapsed = perf_counter() - t0 - (self.full_gc_seconds - collecting)
        self.samples.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        """Reference seconds per wall second for a region bracketed by the
        two kernel times."""
        return REFERENCE_S / ((before + after) / 2)
