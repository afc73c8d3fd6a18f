"""Simulation-wide correctness invariants for the DHT overlays.

The paper's efficiency and availability numbers are only meaningful while
the simulator's bookkeeping is exact, so this module centralises the
checkable invariants and makes them cheap to run after every churn event:

* **structural** — membership indexes agree with the node objects, and the
  overlay's own ``check_invariants()`` holds (successor/predecessor links
  on Chord, leaf sets on Cycloid form the unique ring over the live
  population);
* **directory conservation** — a *census* of every stored
  ``(namespace, key, item)`` piece, taken before and after a churn event:
  joins, graceful leaves, stabilization rounds and replica repair must
  conserve every piece exactly, while a crash may only lose pieces, never
  invent them;
* **replica placement** — every piece sits on exactly its replica set,
  with identical per-key contents on every holder: after
  ``repair_replication``, and after a join or graceful leave that starts
  placed.

Census semantics: the multiplicity of a piece is the *maximum* per-node
copy count.  Replicas of one piece therefore count once, while genuinely
distinct identical pieces stored under the same key (``leave``'s
"identical items are distinct pieces" contract) keep their multiplicity.

:class:`ChurnGuard` wires the checks into a service: it wraps the
service's churn entry points (``churn_join`` / ``churn_leave`` /
``churn_fail`` / ``stabilize``) and the overlay's ``repair_replication``
so every event is validated as it happens.  The experiment runner's
``--invariants`` flag and the ``repro check`` CLI subcommand both install
guards this way.

The checkers reach overlays only through the
:class:`~repro.overlay.base.Overlay` interface and import nothing from
:mod:`repro.overlay`, so this module stays cycle-free.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Any, Callable

from repro.sim.durability import decodable_level

__all__ = [
    "InvariantViolation",
    "ChurnGuard",
    "check_overlay",
    "check_replica_placement",
    "directory_census",
    "directory_layout",
    "install_churn_guards",
    "overlay_of",
]


class InvariantViolation(AssertionError):
    """A structural or accounting invariant of the simulation failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


#: Census differences a violation message spells out.
_SHOWN = 4


def _describe(diff: Counter) -> str:
    """A short human-readable sample of a census difference."""
    shown = ", ".join(
        f"{ns}:{key}:{item!r}×{count}"
        for (ns, key, item), count in list(diff.items())[:_SHOWN]
    )
    more = len(diff) - _SHOWN
    return shown + (f" (+{more} more)" if more > 0 else "")


# ----------------------------------------------------------------------
# Directory census
# ----------------------------------------------------------------------
def directory_census(overlay: Any, policy: Any = None) -> Counter:
    """Logical directory contents: ``(namespace, key, item) -> multiplicity``.

    Multiplicity is the maximum per-node copy count, so the replicas of a
    piece count once while distinct identical pieces stored under the same
    key keep their count.  Conserved exactly by joins, graceful leaves,
    stabilization and replica repair; crashes may only decrease it.

    With a :class:`~repro.sim.durability.DurabilityPolicy` whose decode
    threshold exceeds 1 (erasure coding), the census counts *decodable*
    multiplicity instead: level ``j`` of a piece exists only while at
    least ``k`` distinct holders carry ``>= j`` copies (fragments).  At
    threshold 1 — every replication policy, and the ``policy=None``
    default — the two definitions coincide exactly.
    """
    threshold = 1 if policy is None else policy.threshold
    if threshold == 1:
        census: Counter = Counter()
        for node in list(overlay.nodes()):
            per_node: Counter = Counter(node.stored_entries())
            for entry, count in per_node.items():
                if count > census[entry]:
                    census[entry] = count
        return census
    counts: dict[tuple, list[int]] = {}
    for node in list(overlay.nodes()):
        for entry, count in Counter(node.stored_entries()).items():
            counts.setdefault(entry, []).append(count)
    decodable: Counter = Counter()
    for entry, per_holder in counts.items():
        level = decodable_level(per_holder, threshold)
        if level:
            decodable[entry] = level
    return decodable


def directory_layout(overlay: Any) -> list:
    """Every node's directory exactly as it is stored: per node its
    ``((namespace, key_id), bucket)`` pairs in ``_store`` order, per key
    the bucket in item order.

    Finer than the census on purpose.  Handover, repair and the arc index
    iterate these dicts and lists, so two load paths that agree only on
    the census can still diverge after the first churn event; load paths
    are compared on this.
    """
    return [
        (node.uid, [(bucket_key, list(bucket)) for bucket_key, bucket in node._store.items()])
        for node in overlay.nodes()
    ]


# ----------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------
def check_overlay(overlay: Any) -> None:
    """Membership-index consistency plus the overlay's own link checks."""
    kind = overlay.kind
    ids = overlay.node_ids
    _check(bool(ids), f"{kind}: overlay has no members")
    _check(len(ids) == len(set(ids)), f"{kind}: duplicate node IDs: {ids}")
    _check(
        overlay.num_nodes == len(ids),
        f"{kind}: num_nodes {overlay.num_nodes} != index size {len(ids)}",
    )
    for uid in ids:
        try:
            node = overlay.node(uid)
        except KeyError:
            raise InvariantViolation(
                f"{kind}: id {uid} indexed but absent from the node map"
            ) from None
        _check(node.alive, f"{kind}: dead node {uid} still indexed as live")
        _check(
            node.uid == uid,
            f"{kind}: node map inconsistent at {uid} (object says {node.uid})",
        )
    try:
        overlay.check_invariants()
    except InvariantViolation:
        raise
    except AssertionError as exc:
        raise InvariantViolation(f"{kind} links: {exc}") from exc


def overlay_of(service: Any) -> Any:
    """The overlay substrate behind a discovery service (ring or Cycloid)."""
    overlay = getattr(service, "overlay", None)
    if overlay is None:
        raise TypeError(f"{type(service).__name__} exposes no overlay substrate")
    return overlay


# ----------------------------------------------------------------------
# Replica placement
# ----------------------------------------------------------------------
def check_replica_placement(overlay: Any) -> None:
    """Every stored key sits on exactly its replica set, identically.

    Holds after ``repair_replication``, and a join or graceful leave keeps
    it (each moved bucket goes through
    :func:`~repro.sim.maintenance.place_bucket`); a crash breaks it by
    leaving replica sets short of copies until repair, and so do copies
    placed off the set on purpose (hot-directory replicas).
    """
    holders: dict[tuple[str, int], dict[Any, Counter]] = {}
    for node in list(overlay.nodes()):
        for bucket_key, pieces in node.bucket_counts().items():
            holders.setdefault(bucket_key, {})[node.uid] = pieces
    for (namespace, key_id), per_key in holders.items():
        expected = {n.uid for n in overlay.durability.holders(overlay, key_id)}
        actual = set(per_key)
        _check(
            actual == expected,
            f"replica drift at {namespace}:{key_id}: held by {sorted(map(str, actual))}, "
            f"replica set is {sorted(map(str, expected))}",
        )
        contents = list(per_key.values())
        _check(
            all(c == contents[0] for c in contents[1:]),
            f"replica divergence at {namespace}:{key_id}: holders disagree "
            "on the key's contents",
        )


# ----------------------------------------------------------------------
# Churn guard
# ----------------------------------------------------------------------
class ChurnGuard:
    """Validates a service's overlay after every churn event.

    Wraps ``churn_join`` / ``churn_leave`` / ``churn_fail`` / ``stabilize``
    on the service and ``repair_replication`` / ``repair_replication_step``
    on its overlay (as instance attributes, so later callers — including
    the event-driven churn harness, which captures the bound methods — go
    through the guard).  ``stabilize`` covers both the seed's global sweep
    and the budgeted maintenance rounds, which pass through it.

    Each wrapped call re-runs the structural checks and compares the
    directory census across the event: joins, leaves, stabilization and
    repair must conserve it exactly; a crash may only lose pieces.  Repair
    additionally asserts strict replica placement.  Violations raise
    :class:`InvariantViolation` at the offending event.

    The census is taken under the overlay's durability policy, so for an
    erasure-coded configuration it counts *decodable* pieces; the contract
    is the same under every policy.
    """

    #: Events that must conserve the directory census exactly.
    _CONSERVING = ("churn_join", "churn_leave", "stabilize")

    def __init__(self, service: Any) -> None:
        self.overlay = overlay_of(service)
        self.policy = self.overlay.durability
        #: Number of churn events validated so far.
        self.events = 0
        for name in self._CONSERVING:
            setattr(service, name, self._guarded(getattr(service, name), exact=True))
        service.churn_fail = self._guarded(service.churn_fail, exact=False)
        self.overlay.repair_replication = self._guarded(
            self.overlay.repair_replication, exact=True, placement=True
        )
        # Incremental anti-entropy must conserve the census exactly, but a
        # partial pass legitimately leaves unvisited keys misplaced — no
        # placement assertion here.
        self.overlay.repair_replication_step = self._guarded(
            self.overlay.repair_replication_step, exact=True
        )

    def _guarded(
        self, fn: Callable, *, exact: bool, placement: bool = False
    ) -> Callable:
        @functools.wraps(fn)
        def checked(*args: Any, **kwargs: Any) -> Any:
            before = directory_census(self.overlay, self.policy)
            out = fn(*args, **kwargs)
            self.events += 1
            check_overlay(self.overlay)
            after = directory_census(self.overlay, self.policy)
            if exact:
                _check(
                    after == before,
                    f"{fn.__name__} did not conserve the directory: "
                    f"lost [{_describe(before - after)}], "
                    f"invented [{_describe(after - before)}]",
                )
            else:
                invented = after - before
                _check(
                    not invented,
                    f"{fn.__name__} invented directory entries: "
                    f"[{_describe(invented)}]",
                )
            if placement:
                check_replica_placement(self.overlay)
            return out

        return checked


def install_churn_guards(service: Any) -> ChurnGuard:
    """Attach a :class:`ChurnGuard` to ``service``; returns the guard."""
    return ChurnGuard(service)
