"""Recovery-time metrics: how fast an overlay heals after injected chaos.

The availability experiment answers *whether* queries survive a static
fault level; this module answers the time-domain question the chaos
timelines pose — after a partition heals or a crash burst strikes, how
long until the system is whole again, and does it get there at all under
a bounded maintenance budget?

* :func:`replica_deficit` — redundancy missing from surviving pieces
  under the overlay's durability policy, measured from surviving
  evidence (a key whose every copy died is invisible; with replication
  ≥ 2 a crash leaves survivors whose under-replication is countable).
* :class:`RecoverySample` — one timeline point: lookup availability,
  replica deficit and structural cleanliness.
* :class:`RecoveryTracker` — periodic sampler + fault log, reduced to
  the SLO metrics: per-fault time-to-reconverge, overall reconvergence,
  and replica-deficit area (deficit integrated over time — the "damage ×
  exposure" of a fault).

Availability is probed through an injected callable so this module stays
independent of the experiment harness (and of what "a query" means).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.durability import decodable_level
from repro.sim.invariants import InvariantViolation, check_overlay, overlay_of
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sim.engine import Simulator

__all__ = ["replica_deficit", "RecoverySample", "RecoveryTracker"]


def replica_deficit(overlay: Any) -> int:
    """Redundancy missing from surviving pieces, by surviving evidence.

    For every decodable level of every surviving piece, the policy's
    target is ``fragments`` *distinct* holders; the deficit sums, over
    all pieces and levels, how many holders short of that target the
    overlay currently is.  It is zero exactly when every surviving piece
    is fully redundant — the quantity budgeted anti-entropy repair
    drives back to zero and ``budget=0`` leaves stuck.

    Counting *any* surviving holder (not just current replica-set
    members) is deliberate: a node that crashed and already rejoined is
    not missing redundancy — after the rejoin each piece still has the
    same number of distinct live holders, merely misplaced ones, and
    misplacement is repair traffic, not lost durability.  Conversely a
    crash genuinely removes a holder and shows up here immediately.
    Pieces that lost decodability entirely (fewer than ``threshold``
    surviving holders) contribute nothing — nothing survives to witness
    them, and repair purges rather than resurrects them.

    The policy is the overlay's own durability policy; the default
    successor replication has ``threshold=1`` and a target of
    ``replication`` holders per piece.
    """
    threshold = overlay.durability.threshold
    holders: dict[tuple[str, int], dict[Any, list[int]]] = {}
    for node in list(overlay.nodes()):
        for bucket_key, pieces in node.bucket_counts().items():
            bucket = holders.setdefault(bucket_key, {})
            for item, count in pieces.items():
                bucket.setdefault(item, []).append(count)

    deficit = 0
    for (namespace, key_id), pieces in holders.items():
        # A fresh derivation, like the placement check's: the deficit is
        # an oracle's number, not the overlay's own memo read back.
        target_holders = len(overlay.durability.holders(overlay, key_id))
        for item, counts in pieces.items():
            level = decodable_level(counts, threshold)
            for j in range(1, level + 1):
                holders_at_j = sum(1 for c in counts if c >= j)
                deficit += max(0, target_holders - holders_at_j)
    return deficit


@dataclass(frozen=True)
class RecoverySample:
    """One point on the recovery timeline."""

    time: float
    #: Fraction of probe queries answered exactly right under the faults
    #: active at sample time.
    availability: float
    #: Copies missing from current replica sets (see :func:`replica_deficit`).
    replica_deficit: int
    #: Whether the overlay passed its structural invariants.
    structurally_clean: bool

    def recovered(self, availability_floor: float = 1.0) -> bool:
        """Whether this sample shows a fully healed system."""
        return (
            self.structurally_clean
            and self.replica_deficit == 0
            and self.availability >= availability_floor
        )


class RecoveryTracker:
    """Samples a service's health on a fixed cadence and reduces the
    timeline to recovery SLO metrics.

    ``availability_probe`` runs the probe workload under whatever faults
    are live *now* and returns the exactly-answered fraction; the tracker
    adds replica deficit and structural checks.
    """

    def __init__(
        self,
        service: Any,
        availability_probe: Callable[[], float],
        *,
        availability_floor: float = 1.0,
    ) -> None:
        # floor 0.0 tracks *data* recovery alone (deficit + structure):
        # the durability experiment uses it because a policy that
        # genuinely lost pieces can heal its redundancy without exact
        # availability ever returning to 1.0.
        require(0.0 <= availability_floor <= 1.0, "availability_floor must be in [0, 1]")
        self.overlay = overlay_of(service)
        self.availability_probe = availability_probe
        self.availability_floor = availability_floor
        self.samples: list[RecoverySample] = []
        self.fault_times: list[float] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note_fault(self, at: float) -> None:
        """Log a fault onset; each onset gets its own recovery clock."""
        self.fault_times.append(at)
        self.fault_times.sort()

    def sample(self, now: float) -> RecoverySample:
        """Take one timeline sample at simulated time ``now``."""
        try:
            check_overlay(self.overlay)
            clean = True
        except InvariantViolation:
            clean = False
        point = RecoverySample(
            time=now,
            availability=self.availability_probe(),
            replica_deficit=replica_deficit(self.overlay),
            structurally_clean=clean,
        )
        self.samples.append(point)
        return point

    def install(self, sim: "Simulator", horizon: float, interval: float) -> int:
        """Schedule sampling every ``interval`` up to ``horizon`` inclusive.

        Samples are scheduled from the current clock onward, so the t=0
        baseline sample is included.  Returns the number scheduled.
        """
        require(interval > 0, "sample interval must be positive")
        scheduled = 0
        t = sim.now
        while t <= horizon + 1e-9:
            sim.schedule_at(t, (lambda at=t: self.sample(at)), name="recovery-sample")
            scheduled += 1
            t += interval
        return scheduled

    # ------------------------------------------------------------------
    # SLO reductions
    # ------------------------------------------------------------------
    def recovery_times(self) -> list[float]:
        """Per fault onset: time until the first *subsequent* recovered
        sample, or ``inf`` when the timeline never heals after it."""
        times: list[float] = []
        for onset in self.fault_times:
            healed = math.inf
            for point in self.samples:
                if point.time <= onset:
                    continue
                if point.recovered(self.availability_floor):
                    healed = point.time - onset
                    break
            times.append(healed)
        return times

    @property
    def reconverged(self) -> bool:
        """Whether every logged fault eventually healed (finite TTR) and
        the final sample is itself healthy."""
        if not self.samples:
            return False
        if not self.samples[-1].recovered(self.availability_floor):
            return False
        return all(math.isfinite(t) for t in self.recovery_times())

    def time_to_reconverge(self) -> float:
        """The worst per-fault recovery time (``inf`` if any never heals)."""
        times = self.recovery_times()
        return max(times) if times else 0.0

    def deficit_area(self) -> float:
        """Replica deficit integrated over the sampled timeline
        (left-rectangle rule): persistent damage accumulates, transient
        damage that heals fast contributes little."""
        area = 0.0
        for prev, cur in zip(self.samples, self.samples[1:]):
            area += prev.replica_deficit * (cur.time - prev.time)
        return area

    def availability_timeline(self) -> list[tuple[float, float]]:
        """The ``(time, availability)`` curve (plot-ready)."""
        return [(p.time, p.availability) for p in self.samples]
