"""Pluggable durability policies: placement × redundancy for stored pieces.

The seed hard-codes one redundancy scheme — successor-list replication,
``replica_set(key) = owner + next (r-1) successors`` — inside
``ChordRing``/``CycloidOverlay``.  Leslie's *Reliable Data Storage in
Distributed Hash Tables* shows that the replication-vs-erasure-coding
choice (and *where* the copies live) dominates durability and repair
bandwidth under exactly the churn regimes our chaos timelines generate,
so this module factors the scheme out into policy objects:

* :class:`PlacementPolicy` — *where* a key's fragments live.
  :class:`SuccessorPlacement` is the seed's scheme (byte-identical when
  used with plain replication); :class:`SymmetricPlacement` spreads the
  holders at equidistant offsets around the identifier space, so a
  correlated crash of ring-adjacent nodes cannot take out a whole
  replica set.
* :class:`DurabilityPolicy` — placement plus *redundancy semantics*:
  ``fragments`` total holders and a decode ``threshold`` (the ``k`` of a
  ``(k, m)`` erasure code; 1 for plain replication).  A piece is *alive*
  iff at least ``threshold`` distinct holders still carry it.

Fragments are not modelled as wrapper objects: items are stored plainly
(so the query paths read real directory entries — the simulated read of
an erasure-coded piece *is* the decode) and redundancy is interpreted at
the accounting layer through :func:`decodable_level`.  With
``threshold=1`` every formula in this module reduces exactly to the
seed's max-merge census convention, which is what keeps the default
policy byte-identical to the pre-policy code.

Import discipline: this module is imported by ``repro.overlay`` (the
overlays carry their policy) and by the invariant/maintenance layers, so
it must not import anything from ``repro.overlay`` or
``repro.baselines``; overlays are reached only through the linearized-key
view of :class:`~repro.overlay.base.Overlay` (``native_holders`` /
``owner_of`` / ``uid_of`` / ``id_space_size``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.utils.validation import require

__all__ = [
    "PlacementPolicy",
    "SuccessorPlacement",
    "SymmetricPlacement",
    "DurabilityPolicy",
    "successor_replication",
    "erasure_code",
    "decodable_level",
    "parse_policy",
    "DEFAULT_POLICY_SPECS",
]


def decodable_level(counts: Sequence[int], threshold: int) -> int:
    """How many *decodable* instances of a piece the holder counts witness.

    ``counts`` are one piece's per-holder copy counts; level ``j`` is
    decodable when at least ``threshold`` distinct holders carry ``>= j``
    copies, so the level is the ``threshold``-th largest count (0 when
    fewer than ``threshold`` holders survive — the piece is lost).

    With ``threshold=1`` this is ``max(counts)``: exactly the seed's
    census convention (replica copies count once, genuinely distinct
    identical pieces keep their multiplicity).
    """
    if threshold == 1:
        return max(counts, default=0)
    if len(counts) < threshold:
        return 0
    return sorted(counts, reverse=True)[threshold - 1]


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlacementPolicy:
    """Where a key's ``count`` fragment holders live on an overlay.

    Concrete placements implement :meth:`holders` over the *linearized*
    key space (Chord ring IDs, or ``a*d + k`` for Cycloid) so one policy
    object serves both overlay kinds.  ``holders[0]`` must be the key's
    owner — the node the query paths read from.
    """

    kind = "abstract"

    def holders(self, overlay: Any, key_id: int, count: int) -> list:
        raise NotImplementedError

    def validate(self, overlay: Any, count: int) -> None:
        """Reject configurations the overlay cannot host (ctor-time)."""


@dataclass(frozen=True)
class SuccessorPlacement(PlacementPolicy):
    """The seed's scheme: the owner plus the next ``count - 1`` native
    successors (Chord: successor-list entries; Cycloid: clockwise members
    of the owner's cluster).  Byte-identical to the pre-policy
    ``replica_set`` implementations.
    """

    kind = "successor"

    def holders(self, overlay: Any, key_id: int, count: int) -> list:
        return overlay.native_holders(key_id, count)

    def validate(self, overlay: Any, count: int) -> None:
        limit = getattr(overlay, "successor_list_len", None)
        if limit is not None:
            require(
                count <= limit + 1,
                "replication cannot exceed successor_list_len + 1 "
                "(replicas live on the successor list)",
            )
        else:
            require(count <= overlay.dimension, "replication must be in [1, d]")


@dataclass(frozen=True)
class SymmetricPlacement(PlacementPolicy):
    """Holders at equidistant offsets around the identifier space.

    Holder ``i`` owns ``key + i * space // count``; when two offsets
    resolve to the same node (sparse rings) the set is padded with the
    key's clockwise successors, so the placement yields ``count``
    distinct holders whenever the population allows.  Spreading the
    holders decorrelates them from ring-adjacent crash bursts — the
    failure mode successor placement is maximally exposed to.
    """

    kind = "symmetric"

    def holders(self, overlay: Any, key_id: int, count: int) -> list:
        space = overlay.id_space_size
        out: list = []
        seen: set[int] = set()
        for i in range(count):
            node = overlay.owner_of((key_id + i * space // count) % space)
            uid = overlay.uid_of(node)
            if uid not in seen:
                seen.add(uid)
                out.append(node)
        # Pad collisions with clockwise successors of the key itself.
        cursor = key_id
        for _ in range(overlay.num_nodes):
            if len(out) >= count or len(out) >= overlay.num_nodes:
                break
            node = overlay.owner_of(cursor)
            uid = overlay.uid_of(node)
            if uid not in seen:
                seen.add(uid)
                out.append(node)
            cursor = (uid + 1) % space
        return out

    def validate(self, overlay: Any, count: int) -> None:
        # Nothing structural to reject: the overlay is typically empty at
        # construction time, and a population that later shrinks below
        # ``count`` simply yields fewer holders (a degraded placement the
        # deficit accounting reports rather than an error).
        return None


# ----------------------------------------------------------------------
# The policy: placement × redundancy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DurabilityPolicy:
    """How a stored piece survives node death.

    ``fragments`` holders carry the piece; it decodes while at least
    ``threshold`` distinct holders survive.  Plain replication is
    ``threshold=1`` (any surviving copy is the piece); a ``(k, m)``
    erasure code is ``fragments=k+m, threshold=k``.  Each fragment costs
    ``1/threshold`` of the piece's size (:attr:`fragment_weight`), which
    is what makes erasure coding cheaper per unit of loss tolerance —
    and what the repair-bandwidth accounting of the durability
    experiment multiplies copies-moved by.
    """

    name: str
    placement: PlacementPolicy = field(default_factory=SuccessorPlacement)
    fragments: int = 1
    threshold: int = 1

    def __post_init__(self) -> None:
        require(self.fragments >= 1, "replication must be >= 1")
        require(
            1 <= self.threshold <= self.fragments,
            "decode threshold must be in [1, fragments]",
        )

    @property
    def fragment_weight(self) -> float:
        """Transfer/storage cost of one fragment, in units of one piece."""
        return 1.0 / self.threshold

    @property
    def storage_overhead(self) -> float:
        """Bytes stored per byte of data when fully placed (r, or (k+m)/k)."""
        return self.fragments / self.threshold

    def holders(self, overlay: Any, key_id: int) -> list:
        """The nodes that should hold ``key_id``'s fragments, owner first."""
        return self.placement.holders(overlay, key_id, self.fragments)

    def validate(self, overlay: Any) -> None:
        """Ctor-time check that ``overlay`` can host this policy."""
        self.placement.validate(overlay, self.fragments)


def successor_replication(copies: int) -> DurabilityPolicy:
    """The seed's scheme: ``copies`` replicas on the native successors."""
    return DurabilityPolicy(
        name=f"replication:{copies}",
        placement=SuccessorPlacement(),
        fragments=copies,
        threshold=1,
    )


def erasure_code(
    k: int, m: int, placement: str = "symmetric"
) -> DurabilityPolicy:
    """A ``(k, m)`` erasure code: ``k + m`` fragments, any ``k`` decode.

    Fragments default to symmetric placement (spreading them is what
    buys the durability); ``placement="successor"`` keeps them on the
    native successor chain for comparison.  ``k=1`` degenerates to plain
    ``m + 1``-way replication.
    """
    require(m >= 1, "an erasure code needs at least one parity fragment")
    suffix = "" if placement == "symmetric" else f"@{placement}"
    return DurabilityPolicy(
        name=f"erasure:{k}+{m}{suffix}",
        placement=_PLACEMENTS[placement](),
        fragments=k + m,
        threshold=k,
    )


_PLACEMENTS = {
    "successor": SuccessorPlacement,
    "symmetric": SymmetricPlacement,
}

#: The sweep the ``repro durability`` experiment runs by default.
DEFAULT_POLICY_SPECS = ("replication:2", "symmetric:2", "erasure:2+1")


def parse_policy(spec: str) -> DurabilityPolicy:
    """Parse a CLI policy spec into a :class:`DurabilityPolicy`.

    Grammar: ``replication:R`` | ``symmetric:R`` | ``erasure:K+M`` —
    each optionally suffixed ``@successor`` / ``@symmetric`` to override
    the placement (e.g. ``erasure:2+1@successor``).
    """
    body, sep, where = spec.partition("@")
    kind, _, params = body.partition(":")
    require(bool(params), f"policy spec {spec!r} is missing parameters")
    require(
        not sep or where in _PLACEMENTS,
        f"unknown placement {where!r} in policy spec {spec!r}",
    )
    try:
        if kind == "erasure":
            k_text, _, m_text = params.partition("+")
            k, m = int(k_text), int(m_text)
            return erasure_code(k, m, placement=where or "symmetric")
        if kind in ("replication", "symmetric"):
            copies = int(params)
            default_placement = "successor" if kind == "replication" else "symmetric"
            placement = where or default_placement
            name = spec if sep else f"{kind}:{copies}"
            return DurabilityPolicy(
                name=name,
                placement=_PLACEMENTS[placement](),
                fragments=copies,
                threshold=1,
            )
    except ValueError as exc:
        raise ValueError(f"bad policy spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown policy kind {kind!r} in {spec!r} "
        "(expected replication / symmetric / erasure)"
    )
