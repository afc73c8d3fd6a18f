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
* :func:`repair_buckets` — the shared incremental anti-entropy pass
  both overlays' ``repair_replication_step`` delegates to.

Import discipline: this module is imported *by* ``repro.overlay`` (for
:class:`RepairProgress` / :func:`repair_buckets`), so it must not import
anything from ``repro.overlay`` or ``repro.baselines``; overlays and
services are duck-typed.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.sim.durability import decodable_level
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.sim.engine import Simulator

__all__ = [
    "RepairProgress",
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


def repair_buckets(
    overlay: Any,
    replica_set_of: Callable[[int], Sequence[Any]],
    budget: int | None = None,
    after: tuple[str, int] | None = None,
    *,
    policy: Any = None,
) -> RepairProgress:
    """Anti-entropy repair of up to ``budget`` key buckets.

    A *bucket* is one ``(namespace, key_id)`` pair.  Buckets are visited
    in sorted order starting strictly after the ``after`` cursor.  For
    each visited bucket the surviving per-node copy counts reduce to the
    piece's decodable level under ``policy`` (a
    :class:`~repro.sim.durability.DurabilityPolicy`; ``None`` or a
    decode threshold of 1 is the seed's ``max`` merge — replica copies
    count once, genuinely distinct identical pieces keep their
    multiplicity, the census convention of ``repair_replication``),
    stray copies on nodes outside the current replica set are dropped,
    and every replica-set member is set to exactly that level.  Under an
    erasure policy (threshold > 1) that also means *purging* pieces with
    fewer than ``k`` surviving fragments — repair never silently
    resurrects undecodable data — and trimming members that hold more
    fragments than the decodable level.  Copies actually added or
    removed count as maintenance messages; a bucket already in its
    repaired state costs nothing.

    ``budget=None`` sweeps every bucket from the cursor to the end of
    the key space in one call; ``budget=0`` is a no-op that keeps the
    cursor where it was.
    """
    require(budget is None or budget >= 0, "repair budget must be >= 0")
    if budget == 0:
        return RepairProgress(0, after)
    threshold = 1 if policy is None else policy.threshold

    # Scan surviving copies, bucketed by (namespace, key_id).
    holders: dict[tuple[str, int], list[tuple[Any, Counter]]] = {}
    for node in list(overlay.nodes()):
        for bucket_key, pieces in node.bucket_counts().items():
            holders.setdefault(bucket_key, []).append((node, pieces))

    ordered = sorted(holders)
    start = 0 if after is None else bisect.bisect_right(ordered, after)
    selected = ordered[start:] if budget is None else ordered[start:start + budget]

    moved = 0
    for namespace, key_id in selected:
        bucket_holders = holders[(namespace, key_id)]
        # Per item, the decodable level given all surviving holders (for
        # threshold 1 exactly the max-merge; level 0 marks a dead piece
        # whose remaining fragments must be purged).
        counts: dict[Any, list[int]] = {}
        for _node, pieces in bucket_holders:
            for item, count in pieces.items():
                counts.setdefault(item, []).append(count)
        merged = {
            item: decodable_level(cs, threshold) for item, cs in counts.items()
        }
        replicas = replica_set_of(key_id)
        replica_ids = {id(r) for r in replicas}
        # Drop stray copies that live outside the current replica set.
        for node, pieces in bucket_holders:
            if id(node) in replica_ids:
                continue
            for item, count in pieces.items():
                for _ in range(count):
                    node.remove_item(namespace, key_id, item)
                moved += count
        # Set every replica member to exactly the decodable level (a top
        # up at threshold 1, where no holder can exceed the max; possibly
        # a trim or purge under an erasure policy).
        held_by = {id(node): pieces for node, pieces in bucket_holders}
        for holder in replicas:
            current = held_by.get(id(holder), Counter())
            for item, target in merged.items():
                delta = target - current[item]
                for _ in range(delta):
                    holder.store(namespace, key_id, item)
                for _ in range(-delta):
                    holder.remove_item(namespace, key_id, item)
                moved += abs(delta)
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
