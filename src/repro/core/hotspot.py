"""Hotspot mitigation for attribute-rooted directories.

SWORD (and MAAN's attribute map) hash every query for attribute ``a`` to
the single node ``successor(H(a))``.  Under Zipf-skewed popularity that
node serves a constant fraction of *all* queries — the per-node serve
load measured by :mod:`repro.sim.loadstats` grows like ``n * p(a)``
while the mean stays at ``total / n``.  Two standard mitigations:

**Key salting** (:class:`SaltPlan`) — static.  Attribute ``a`` gets ``S``
salted roots ``successor(H(f"{a}#s{j}"))``; registration writes the full
directory to *all* of them, and each query reads exactly **one**, chosen
by a stable hash of ``(attribute, requester)``.  Every root holds the
complete directory, so any single read returns the byte-identical answer
of the unmitigated system while the per-root serve load drops by ``S``.
(The write-sharding variant — partition registrations across roots and
fan each query over all of them — keeps queries hitting every root and
therefore does *not* reduce per-node serve counts; it trades load for
hops.  We implement the read-spreading form.)

**Dynamic replication** (:class:`DynamicReplicator`) — reactive.  An
observer watches the per-attribute serve counts of each harvested
:class:`~repro.sim.loadstats.LoadWindow`; an attribute whose window load
exceeds ``TRIGGER_RATIO`` times the population-mean node load is *hot*
and gets its directory copied to the next ``MAX_REPLICAS`` ring
successors of its root, each copy an ordinary bucket keyed by its
holder's node id in the ``<namespace>:hot`` namespace.  Copies are
charged as maintenance messages and capped per tick by the existing
:class:`~repro.sim.maintenance.MaintenanceBudget` (``repair_keys``); an
attribute that stays cold for ``DECAY_WINDOWS`` consecutive windows has
its replicas dropped.  Queries then spread reads over the root plus its
replica keys with the same stable ``(attribute, requester)`` hash.  The
replica keys join the binding's placements, so registration and
withdrawal write them, and join / leave handover and repair keep each
copy on its key's replica set like any other bucket.
"""

from __future__ import annotations

from typing import Any

from repro.utils.validation import require
from repro.workloads.popularity import stable_seed

__all__ = ["SaltPlan", "DynamicReplicator"]


def route_choice(attribute: str, requester: str, fanout: int) -> int:
    """The replica index in ``[0, fanout)`` this requester reads for
    ``attribute`` — a pure function, so repeated queries by the same
    requester stay on one replica (cache-friendly) while distinct
    requesters spread uniformly."""
    require(fanout >= 1, "fanout must be >= 1")
    return stable_seed("hotspot-route", attribute, requester) % fanout


class SaltPlan:
    """Static key salting of attribute roots.

    Every attribute's root is salted: ``salts`` (``S``) salted roots per
    attribute.
    """

    def __init__(self, salts: int = 4) -> None:
        require(salts >= 1, f"salts must be >= 1, got {salts}")
        self.salts = salts

    def salted_names(self, attribute: str) -> tuple[str, ...]:
        """The ``S`` salted directory names of ``attribute``."""
        return tuple(f"{attribute}#s{j}" for j in range(self.salts))

    def choose(self, attribute: str, requester: str) -> int:
        """Which salted root this requester reads (stable per requester)."""
        return route_choice(attribute, requester, self.salts)


class DynamicReplicator:
    """Load-driven replication of hot attribute directories.

    Owned by one :class:`~repro.baselines.base.ChordBackedService`; the
    experiment loop calls :meth:`observe` with each harvested load window
    and :meth:`tick` with a maintenance budget to apply the pending
    copies.  The service consults :meth:`route_for` on every attribute
    root read and places registrations under :meth:`holders` too, so
    replica directories never go stale; where a copy lives is the
    overlay's placement of its key.
    """

    #: An attribute is hot when its window serve count exceeds this many
    #: times the mean per-node load.
    TRIGGER_RATIO = 4.0
    #: Ring successors of the root a hot attribute's directory is copied to.
    MAX_REPLICAS = 3
    #: Consecutive cold windows before a hot attribute's replicas go.
    DECAY_WINDOWS = 2

    def __init__(self, service: Any, namespace: str) -> None:
        self.service = service
        self.namespace = namespace
        self.replica_namespace = f"{namespace}:hot"
        #: Attributes currently marked hot (replicas wanted).
        self._desired: set[str] = set()
        #: Placed replicas: attribute -> the keys its directory copies
        #: are stored under (the holders' node ids at placement time).
        self._replicas: dict[str, list[int]] = {}
        #: Consecutive cold windows per replicated attribute.
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

        At most ``budget.repair_keys`` directory copies are sent per tick
        (a directory that alone exceeds the cap still replicates — being
        first in line — so huge directories are not starved); every copy
        is charged as one maintenance message.  Replicas of attributes
        that decayed out of the desired set are dropped.
        """
        ring = self.service.ring
        cap = budget.repair_keys
        sent = 0
        created = 0
        # Hottest first: the per-tick copy cap typically covers only one
        # or two directories, and replicating a lukewarm attribute before
        # the melting one would leave the gate metric untouched.
        pending = sorted(
            self._desired - self._replicas.keys(),
            key=lambda attr: (-self._loads.get(attr, 0.0), attr),
        )
        for attr in pending:
            if sent >= cap:
                break
            key = self.service.attr_key(attr)
            root = ring.successor_of(key)
            items = root.items_at(self.namespace, key)
            targets = [
                t.node_id for t in ring.native_holders(key, 1 + self.MAX_REPLICAS)[1:]
                if t is not root
            ]
            if not targets:
                continue
            ring.store_all(
                (self.replica_namespace, target, item) for target in targets for item in items
            )
            copies = len(items) * len(targets)
            if copies:
                ring.network.count_maintenance(copies)
            sent += copies
            created += 1
            self._replicas[attr] = targets
            self.service._placers.pop(attr, None)
        dropped = self._drop_decayed()
        self.copies_sent += sent
        self.replicas_created += created
        return {"copies": sent, "created": created, "dropped": dropped}

    def _drop_decayed(self) -> int:
        ring = self.service.ring
        dropped = 0
        for attr in list(self._replicas.keys() - self._desired):
            for key in self._replicas.pop(attr):
                # Another hot attribute may keep copies under the same key.
                for holder in ring.replica_set_of(key):
                    for item in holder.items_at(self.replica_namespace, key, attr):
                        holder.remove_item(self.replica_namespace, key, item)
            self.service._placers.pop(attr, None)
            self._cold.pop(attr, None)
            dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every replica and reset all observer state (used between
        common-random-number experiment cells sharing one service)."""
        self._desired.clear()
        self._drop_decayed()
        self._cold.clear()

    # ------------------------------------------------------------------
    # Query hooks (hot paths while attached)
    # ------------------------------------------------------------------
    def holders(self, attribute: str) -> list[int]:
        """The keys ``attribute``'s replica copies are stored under, each
        read by routing to it (empty if none)."""
        return self._replicas.get(attribute, [])

    def route_for(self, attribute: str, requester: str) -> int | None:
        """The replica key this requester should read — ``None`` for the
        native root (no replicas, or the stable hash picked it)."""
        holders = self.holders(attribute)
        if not holders:
            return None
        pick = route_choice(attribute, requester, len(holders) + 1)
        if pick == 0:
            return None
        return holders[pick - 1]
