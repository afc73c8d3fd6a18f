"""Budgeted self-healing maintenance for the overlay substrates.

The seed repo heals churn damage with *global* sweeps —
``stabilize_all()`` brings every node's routing state up to date and
``repair_replication()`` restores every key to its replica set in one
call.  Real DHT maintenance is neither free nor instantaneous: each
periodic round touches a bounded number of neighbours and keys, so
recovery time after a fault is governed by the *maintenance budget* and
the round interval.  This module adds that cost model:

* :class:`MaintenanceBudget` — per-round work caps (stabilize steps,
  routing-refresh steps, replica-repair key buckets).  ``None`` fields
  mean unbounded; the all-``None`` :data:`UNLIMITED_BUDGET` reduces a
  round to the seed's global sweeps, so existing figures reproduce
  exactly.
* :class:`MaintenanceRound` — round-robin cursors over one overlay's
  nodes and key buckets, spending a budget per call.
* :class:`MaintenanceScheduler` — schedules periodic rounds on a
  :class:`~repro.sim.engine.Simulator` through a service's
  ``stabilize(budget)`` entry point (keeping churn-guard wrappers and
  accounting in the loop).
* :func:`place_bucket` — the one rule for which copies a bucket's holders
  keep, shared by repair and by the overlays' join / leave handover;
* :func:`repair_buckets` — the anti-entropy pass behind every overlay's
  ``repair_replication_step`` and, over every bucket, its
  ``repair_replication``.

Import discipline: this module is imported *by* ``repro.overlay`` (for
:class:`RepairProgress` / :func:`place_bucket` / :func:`repair_buckets`),
so it must not import anything from ``repro.overlay`` or
``repro.baselines``; overlays and services are duck-typed.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.sim.durability import decodable_level
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sim.engine import Simulator

__all__ = [
    "RepairProgress",
    "place_bucket",
    "repair_buckets",
    "MaintenanceBudget",
    "DEFAULT_BUDGET",
    "ZERO_BUDGET",
    "UNLIMITED_BUDGET",
    "MaintenanceRound",
    "MaintenanceScheduler",
]


# ----------------------------------------------------------------------
# Incremental replica repair (shared by ChordRing and CycloidOverlay)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RepairProgress:
    """Outcome of one incremental replica-repair pass.

    ``next_after`` is the resume cursor — the last bucket processed, to
    be passed back as ``after`` on the next call — or ``None`` when the
    pass reached the end of the key space (the next call starts over).
    """

    copies_moved: int
    next_after: tuple[str, int] | None


def place_bucket(
    bucket_key: tuple[str, int],
    holders: Sequence[tuple[Any, Sequence[Any]]],
    replicas: Sequence[Any],
    threshold: int,
) -> int:
    """Leave one bucket's decodable level on every node of ``replicas`` and
    no copy on the other ``holders`` (``(node, items it holds)`` pairs, a
    copy per repeat); returns the copies added or removed.

    Per item the level is :func:`~repro.sim.durability.decodable_level`
    over the holders' counts: at threshold 1 the ``max`` merge (replica
    copies count once, distinct identical pieces keep their multiplicity);
    under an erasure code a piece with fewer than ``threshold`` fragments
    is purged, never resurrected.  Repair runs it over every holder of a
    bucket, a join or graceful leave over the bucket's replica sets before
    and after the event (``Overlay._place_after``).
    """
    namespace, key_id = bucket_key
    counts: dict[Any, list[int]] = {}
    kept: dict[Any, dict] = {}
    moved = 0
    for node, bucket in holders:
        # Most buckets hold one item, which a Counter would cost more to count.
        held = Counter(bucket) if len(bucket) > 1 else {bucket[0]: 1}
        for item, count in held.items():
            counts.setdefault(item, []).append(count)
        if node in replicas:
            kept[node] = held
        else:
            node.remove_items(namespace, key_id)
            moved += len(bucket)
    for holder in replicas:
        held = kept.get(holder)
        for item, cs in counts.items():
            delta = decodable_level(cs, threshold) - (held.get(item, 0) if held else 0)
            for _ in range(delta):
                holder.store(namespace, key_id, item)
            for _ in range(-delta):
                holder.remove_item(namespace, key_id, item)
            moved += abs(delta)
    return moved


def repair_buckets(
    overlay: Any,
    budget: int | None = None,
    after: tuple[str, int] | None = None,
) -> RepairProgress:
    """Anti-entropy repair of up to ``budget`` key buckets.

    A *bucket* is one ``(namespace, key_id)`` pair.  Buckets are visited
    in sorted order starting strictly after the ``after`` cursor.  Each
    visited bucket goes through :func:`place_bucket` over every node that
    holds it, onto ``overlay.replica_set_of`` under the decode threshold
    of ``overlay.durability``: stray copies outside the current replica
    set are dropped and every member is set to exactly the decodable
    level.  Copies actually added or removed count as maintenance
    messages; a bucket already in its repaired state costs nothing.

    ``budget=None`` sweeps every bucket from the cursor to the end of
    the key space in one call; ``budget=0`` is a no-op that keeps the
    cursor where it was.
    """
    require(budget is None or budget >= 0, "repair budget must be >= 0")
    if budget == 0:
        return RepairProgress(0, after)
    threshold = overlay.durability.threshold

    # Scan surviving copies, bucketed by (namespace, key_id).
    holders: dict[tuple[str, int], list[tuple[Any, Sequence[Any]]]] = {}
    for node in list(overlay.nodes()):
        for bucket_key, bucket in node.buckets():
            holders.setdefault(bucket_key, []).append((node, bucket))

    ordered = sorted(holders)
    start = 0 if after is None else bisect.bisect_right(ordered, after)
    selected = ordered[start:] if budget is None else ordered[start:start + budget]

    moved = 0
    for bucket_key in selected:
        moved += place_bucket(
            bucket_key, holders[bucket_key], overlay.replica_set_of(bucket_key[1]), threshold
        )
    if moved:
        overlay.network.count_maintenance(moved)

    exhausted = start + len(selected) >= len(ordered)
    next_after = None if exhausted else selected[-1]
    return RepairProgress(moved, next_after)


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaintenanceBudget:
    """Per-round work caps for one maintenance round.

    ``stabilize_nodes`` — successor-list / leaf-set stabilization steps
    (one node each); ``refresh_nodes`` — finger / long-range routing
    refresh steps; ``repair_keys`` — replica-repair key buckets.  A
    ``None`` field is unbounded; all-``None`` delegates the round to the
    seed's global sweeps (identical accounting and semantics).
    """

    stabilize_nodes: int | None = 16
    refresh_nodes: int | None = 16
    repair_keys: int | None = 128

    def __post_init__(self) -> None:
        for name in ("stabilize_nodes", "refresh_nodes", "repair_keys"):
            value = getattr(self, name)
            require(value is None or value >= 0, f"{name} must be >= 0 or None")

    @property
    def unbounded(self) -> bool:
        """Whether every cap is ``None`` (the seed's global-sweep case)."""
        return (
            self.stabilize_nodes is None
            and self.refresh_nodes is None
            and self.repair_keys is None
        )


#: Sensible per-round caps for the recovery experiments.
DEFAULT_BUDGET = MaintenanceBudget()

#: Maintenance disabled — the ablation showing faults never heal.
ZERO_BUDGET = MaintenanceBudget(stabilize_nodes=0, refresh_nodes=0, repair_keys=0)

#: No caps: one round == the seed's ``stabilize_all`` + ``repair_replication``.
UNLIMITED_BUDGET = MaintenanceBudget(
    stabilize_nodes=None, refresh_nodes=None, repair_keys=None
)


# ----------------------------------------------------------------------
# The round and its scheduler
# ----------------------------------------------------------------------
class MaintenanceRound:
    """Round-robin budget spender over one overlay.

    Keeps three independent cursors — stabilize position, refresh
    position, replica-repair bucket — so successive bounded rounds cover
    the whole overlay fairly.  Cursors are positional and deterministic:
    the same scenario with the same seed spends its budget on the same
    nodes every run.

    The overlay is duck-typed; it must provide ``nodes()``, ``num_nodes``,
    ``stabilize_step(node)``, ``refresh_routing_step(node)``,
    ``repair_replication_step(budget, after)``, ``stabilize_all()`` and
    ``repair_replication()``.
    """

    def __init__(self, overlay: Any) -> None:
        self.overlay = overlay
        self._stab_pos = 0
        self._refresh_pos = 0
        self._repair_after: tuple[str, int] | None = None

    # -- helpers -------------------------------------------------------
    def _take(self, nodes: list[Any], pos: int, count: int | None) -> tuple[list[Any], int]:
        """Up to ``count`` nodes round-robin from position ``pos``."""
        if not nodes or count == 0:
            return [], pos
        if count is None or count >= len(nodes):
            return nodes, pos
        start = pos % len(nodes)
        picked = [nodes[(start + i) % len(nodes)] for i in range(count)]
        return picked, start + count

    # -- the round -----------------------------------------------------
    def run(self, budget: MaintenanceBudget = DEFAULT_BUDGET) -> int:
        """Spend one round's budget; returns the replica copies moved.

        With :data:`UNLIMITED_BUDGET` this is *literally* the seed's
        global sweeps (``stabilize_all`` + ``repair_replication``), so
        accounting, churn-guard checks and placement semantics are
        byte-identical to the pre-budget code path.
        """
        if budget.unbounded:
            self.overlay.stabilize_all()
            return self.overlay.repair_replication()

        nodes = list(self.overlay.nodes())
        to_stabilize, self._stab_pos = self._take(
            nodes, self._stab_pos, budget.stabilize_nodes
        )
        for node in to_stabilize:
            self.overlay.stabilize_step(node)
        to_refresh, self._refresh_pos = self._take(
            nodes, self._refresh_pos, budget.refresh_nodes
        )
        for node in to_refresh:
            self.overlay.refresh_routing_step(node)

        progress = self.overlay.repair_replication_step(
            budget.repair_keys, self._repair_after
        )
        self._repair_after = progress.next_after
        return progress.copies_moved


class MaintenanceScheduler:
    """Periodic budgeted maintenance on a discovery service.

    Every ``interval`` simulated seconds the scheduler calls
    ``service.stabilize(budget)`` — the service routes bounded budgets
    through its :class:`MaintenanceRound` and unbounded ones through the
    seed's global sweep, and any installed churn-guard wrappers stay in
    the loop.  :attr:`copies_moved` totals the replica copies its rounds
    moved.
    """

    def __init__(
        self,
        service: Any,
        budget: MaintenanceBudget = DEFAULT_BUDGET,
        interval: float = 30.0,
    ) -> None:
        require(interval > 0, "maintenance interval must be positive")
        self.service = service
        self.budget = budget
        self.interval = interval
        self.copies_moved = 0

    def tick(self) -> None:
        """Run one maintenance round."""
        self.copies_moved += self.service.stabilize(self.budget)

    def install(self, sim: "Simulator", horizon: float) -> int:
        """Schedule rounds every :attr:`interval` up to ``horizon``.

        The first round fires one full interval after the current clock
        (faults striking at t=0 are not healed for free).  Returns the
        number of rounds scheduled.
        """
        rounds = 0
        t = sim.now + self.interval
        while t <= horizon:
            sim.schedule_at(t, self.tick, name="maintenance")
            rounds += 1
            t += self.interval
        return rounds
