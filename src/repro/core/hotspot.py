"""Hotspot mitigation for attribute-rooted directories.

SWORD (and MAAN's attribute map) hash every query for attribute ``a`` to
the single node ``successor(H(a))``.  Under Zipf-skewed popularity that
node serves a constant fraction of *all* queries — the per-node serve
load measured by :mod:`repro.sim.loadstats` grows like ``n * p(a)``
while the mean stays at ``total / n``.  Both standard mitigations are
key sets of one per-attribute root table
(:meth:`~repro.baselines.base.ChordBackedService.root_keys`), and a query
reads **one** of its keys, chosen by :func:`route_choice` — a stable hash
of ``(attribute, requester)``:

**Key salting** — static keys.  A service built with ``salts=S`` gives
attribute ``a`` the ``S`` salted roots ``successor(H(f"{a}#s{j}"))`` in
place of its native root, and registration writes the full directory to
*all* of them.  Every root holds the complete directory, so any single
read returns the byte-identical answer of the unmitigated system while
the per-root serve load drops by ``S``.  (The write-sharding variant —
partition registrations across roots and fan each query over all of
them — keeps queries hitting every root and therefore does *not* reduce
per-node serve counts; it trades load for hops.  We implement the
read-spreading form.)

**Dynamic replication** (:class:`DynamicReplicator`) — keys added while
an attribute is hot.  An observer watches the per-attribute serve counts
of each harvested :class:`~repro.sim.loadstats.LoadWindow`; an attribute
whose window load exceeds ``TRIGGER_RATIO`` times the population-mean
node load is *hot*, and the next ``MAX_REPLICAS`` ring successors of its
root join its table, each keyed by the holder's node id in the
``<root namespace>:hot`` namespace.  Where a query reads its root
(SWORD), the root's directory is copied under every such key, copies are
charged as maintenance messages and capped per tick by the existing
:class:`~repro.sim.maintenance.MaintenanceBudget` (``repair_keys``), and
registration and withdrawal write the hot keys like any other placement;
join / leave handover and repair keep each copy on its key's replica set.
Where a query only visits its root (MAAN's attribute map), the hot keys
are route targets alone: nothing is copied or written there.  An
attribute that stays cold for ``DECAY_WINDOWS`` consecutive windows
leaves the table and its copies are dropped.
"""

from __future__ import annotations

from typing import Any

from repro.utils.validation import require
from repro.workloads.popularity import stable_seed

__all__ = ["DynamicReplicator", "route_choice"]


def route_choice(attribute: str, requester: str, fanout: int) -> int:
    """The root-table index in ``[0, fanout)`` this requester reads for
    ``attribute`` — a pure function, so repeated queries by the same
    requester stay on one root (cache-friendly) while distinct
    requesters spread uniformly."""
    require(fanout >= 1, "fanout must be >= 1")
    return stable_seed("hotspot-route", attribute, requester) % fanout


class DynamicReplicator:
    """Load-driven hot keys for attribute roots.

    Owned by one :class:`~repro.baselines.base.ChordBackedService`; the
    experiment loop calls :meth:`observe` with each harvested load window
    and :meth:`tick` with a maintenance budget to apply the pending
    changes.  The hot keys live in the service's root table, changed
    through :meth:`~repro.baselines.base.ChordBackedService.set_hot_keys`;
    where a copy lives is the overlay's placement of its key.
    """

    #: An attribute is hot when its window serve count exceeds this many
    #: times the mean per-node load.
    TRIGGER_RATIO = 4.0
    #: Ring successors of the root a hot attribute's reads spread to.
    MAX_REPLICAS = 3
    #: Consecutive cold windows before a hot attribute's keys go.
    DECAY_WINDOWS = 2

    def __init__(self, service: Any) -> None:
        self.service = service
        #: Attributes currently marked hot (hot keys wanted).
        self._desired: set[str] = set()
        #: Consecutive cold windows per attribute with hot keys.
        self._cold: dict[str, int] = {}
        #: Last observed per-attribute serve counts (placement priority).
        self._loads: dict[str, float] = {}
        #: Lifetime counters (reported by the experiment).
        self.copies_sent = 0
        self.replicas_created = 0

    # ------------------------------------------------------------------
    # Observation and placement
    # ------------------------------------------------------------------
    def observe(self, window: Any, population: int) -> set[str]:
        """Digest one load window; returns the attributes marked hot.

        An attribute is hot when its serve count exceeds
        :attr:`TRIGGER_RATIO` times the mean per-node load — i.e. its single
        root is demonstrably an outlier against the balance target.
        """
        require(population >= 1, "population must be >= 1")
        total = window.total_serves
        self._loads = dict(window.by_attribute)
        hot: set[str] = set()
        if total > 0.0:
            threshold = self.TRIGGER_RATIO * total / population
            hot = {attr for attr, count in window.by_attribute.items() if count > threshold}
        self._desired |= hot
        for attr in hot:
            self._cold[attr] = 0
        for attr in list(self._desired - hot):
            self._cold[attr] = self._cold.get(attr, 0) + 1
            if self._cold[attr] >= self.DECAY_WINDOWS:
                self._desired.discard(attr)
        return hot

    def tick(self, budget: Any) -> dict[str, int]:
        """Apply pending placements/removals under ``budget``.

        A pending attribute gets its root's ring successors as hot keys.
        Where queries read the root, its directory is copied under each
        key: at most ``budget.repair_keys`` copies are sent per tick (a
        directory that alone exceeds the cap still replicates — being
        first in line — so huge directories are not starved), each charged
        as one maintenance message.  A visit-only root sends none, so
        every pending attribute is placed in the tick that marks it.  Hot
        keys of attributes that decayed out of the desired set are dropped.
        """
        service = self.service
        ring = service.ring
        cap = budget.repair_keys
        sent = 0
        created = 0
        # Hottest first: the per-tick copy cap typically covers only one
        # or two directories, and replicating a lukewarm attribute before
        # the melting one would leave the gate metric untouched.
        pending = sorted(
            self._desired - service.hot_keys.keys(),
            key=lambda attr: (-self._loads.get(attr, 0.0), attr),
        )
        for attr in pending:
            if sent >= cap:
                break
            namespace, key = service.root_keys(attr)[0]
            root = ring.successor_of(key)
            targets = tuple(
                t.node_id for t in ring.native_holders(key, 1 + self.MAX_REPLICAS)[1:]
                if t is not root
            )
            if not targets:
                continue
            service.set_hot_keys(attr, targets)
            if service.reads_root:
                items = root.items_at(namespace, key)
                ring.store_all(
                    (hot_namespace, hot_key, item)
                    for hot_namespace, hot_key in service.root_keys(attr)[1:]
                    for item in items
                )
                copies = len(items) * len(targets)
                if copies:
                    ring.network.count_maintenance(copies)
                sent += copies
            created += 1
        dropped = self._drop_decayed()
        self.copies_sent += sent
        self.replicas_created += created
        return {"copies": sent, "created": created, "dropped": dropped}

    def _drop_decayed(self) -> int:
        service = self.service
        dropped = 0
        for attr in list(service.hot_keys.keys() - self._desired):
            for namespace, key in service.root_keys(attr)[1:]:
                # Another hot attribute may keep copies under the same key.
                for holder in service.ring.replica_set_of(key):
                    for item in holder.items_at(namespace, key, attr):
                        holder.remove_item(namespace, key, item)
            service.set_hot_keys(attr, ())
            self._cold.pop(attr, None)
            dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every hot key and reset all observer state (used between
        common-random-number experiment cells sharing one service)."""
        self._desired.clear()
        self._drop_decayed()
        self._cold.clear()
