"""Periodic resource reporting with leases (Section III's refresh model).

The paper: "A node reports its available resources to the system
periodically via interface Insert(rescID, rescInfo)."  Periodic reporting
implies the dual: reports that stop being renewed must age out, or the
directories fill with the availability of machines that changed or left.

:class:`RefreshManager` implements that contract over any
:class:`~repro.baselines.base.DiscoveryService`:

* ``report(info, now)`` registers (or renews) an info piece with a lease
  of ``ttl`` seconds;
* a *changed* value for the same (provider, attribute) atomically replaces
  the old report (deregister + register), so directories always describe
  current availability;
* ``expire(now)`` withdraws every lease that has lapsed;
* ``install_periodic_expiry`` schedules the expiry sweep on a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import DiscoveryService
from repro.core.resource import ResourceInfo
from repro.sim.engine import Simulator
from repro.utils.validation import require_positive

__all__ = ["Lease", "RefreshManager"]


@dataclass(frozen=True)
class Lease:
    """One live report: the stored info and when its lease lapses."""

    info: ResourceInfo
    expires_at: float


@dataclass
class RefreshManager:
    """Lease-tracked registration over a discovery service.

    Parameters
    ----------
    service:
        Any of the four discovery services.
    ttl:
        Lease duration in simulated seconds; providers are expected to
        re-report more often than this.
    """

    service: DiscoveryService
    ttl: float
    #: (provider, attribute) -> current lease.
    _leases: dict[tuple[str, str], Lease] = field(default_factory=dict, repr=False)
    #: Monotone counters (reported by the staleness experiment).
    renewals: int = 0
    expirations: int = 0

    def __post_init__(self) -> None:
        require_positive(self.ttl, "ttl")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, info: ResourceInfo, now: float) -> None:
        """Register or renew ``info``, placed at its roots (unrouted).

        A renewal with an unchanged value only extends the lease; a changed
        value withdraws the stale report and registers the new one.
        """
        key = (info.provider, info.attribute)
        existing = self._leases.get(key)
        if existing is None:
            self.service.register(info, routed=False)
        elif existing.info.value != info.value:
            self.service.deregister(existing.info)
            self.service.register(info, routed=False)
        else:
            self.renewals += 1
        self._leases[key] = Lease(info=info, expires_at=now + self.ttl)

    # ------------------------------------------------------------------
    # Expiry
    # ------------------------------------------------------------------
    def expire(self, now: float) -> int:
        """Withdraw every lease lapsed at time ``now``; returns the count."""
        lapsed = [
            key for key, lease in self._leases.items() if lease.expires_at <= now
        ]
        for key in lapsed:
            lease = self._leases.pop(key)
            self.service.deregister(lease.info)
        self.expirations += len(lapsed)
        return len(lapsed)

    def install_periodic_expiry(
        self, sim: Simulator, period: float, horizon: float
    ) -> int:
        """Schedule ``expire`` every ``period`` seconds until ``horizon``."""
        require_positive(period, "period")
        count = 0
        t = period
        while t < horizon:
            sim.schedule_at(t, lambda t=t: self.expire(t), name="lease-expiry")
            t += period
            count += 1
        return count
