"""LORM — Low-Overhead Range-query Multi-attribute resource discovery.

The paper's contribution (Section III): a single hierarchical Cycloid DHT
in which

* the **cubical index** of a resource ID is the consistent hash of the
  attribute name — so each *cluster* is responsible for one attribute;
* the **cyclic index** is the locality-preserving hash of the attribute
  value — so within a cluster, nodes partition the value range in order.

A resource ID is therefore ``rescID = (ℋ(π_a), H(a))`` and is stored at
its root via Cycloid's ``Insert``.  A non-range query is one Cycloid
lookup; a range query ``[π1, π2]`` routes to ``root(ℋ(π1), H(a))`` and
forwards along cluster successors until the node owning ``ℋ(π2)`` — by
Proposition 3.1 every node holding values in range lies between the two
roots, so the walk (at most ``d`` nodes, on average ``1 + d/4``) is
complete.  Multi-attribute queries resolve the per-attribute sub-queries
in parallel and join on provider address.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, ClassVar

from repro.baselines.base import DiscoveryService, build_ring
from repro.core.resource import Query, ResourceInfo
from repro.overlay.cycloid import CycloidOverlay
from repro.utils.validation import require
from repro.workloads.attributes import AttributeSchema

__all__ = ["LormService"]

_NAMESPACE = "lorm"


class LormService(DiscoveryService):
    """LORM resource discovery on a Cycloid overlay.

    LORM also runs *flat* over any Chord-family ring substrate (plain
    Chord, single-hop, ReCord).  The service always computes the two-level
    resource ID ``(ℋ(value), H(attribute))`` in the linearized form Cycloid
    itself stores it under (``cluster * d + cyclic``) and hands the overlay
    its own key type (``overlay.key_of``): on a ring each attribute then
    owns a contiguous ID arc and the range walk is a successor walk over
    that arc.  Placement, oracle exactness and the per-cluster visit bound
    carry over unchanged.

    Examples
    --------
    >>> from repro.workloads.attributes import AttributeSchema
    >>> schema = AttributeSchema.synthetic(4)
    >>> service = LormService.build_full(dimension=4, schema=schema, seed=7)
    >>> info = ResourceInfo("cpu-mhz", 2400.0, "grid-node-00001")
    >>> _ = service.register(info)
    >>> from repro.core.resource import AttributeConstraint, Query
    >>> q = Query(AttributeConstraint.at_least("cpu-mhz", 2000.0))
    >>> service.query(q).providers
    frozenset({'grid-node-00001'})
    """

    name: ClassVar[str] = "LORM"

    def __init__(
        self,
        overlay: CycloidOverlay,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        lph_kind: str = "cdf",
        attr_placement: str = "spread",
        dimension: int | None = None,
    ) -> None:
        if dimension is None:
            dimension = getattr(overlay, "dimension", None)
        require(dimension is not None, "flat-substrate LORM needs an explicit dimension")
        #: ``d``: H maps attributes onto the ``2**d`` clusters ("each
        #: cluster is responsible for one attribute"), ℋ maps values onto
        #: the cyclic indices ``[0, d)``.
        self.dimension = dimension
        super().__init__(
            overlay, schema, attr_bits=dimension, value_space=dimension,
            seed=seed, lph_kind=lph_kind, attr_placement=attr_placement,
        )

    @classmethod
    def build_full(
        cls,
        dimension: int,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        durability: Any | None = None,
        **kwargs: Any,
    ) -> "LormService":
        """LORM over a fully populated ``d * 2**d``-node Cycloid."""
        overlay = CycloidOverlay(dimension, durability=durability)
        overlay.build_full()
        return cls(overlay, schema, seed=seed, **kwargs)

    @classmethod
    def build_flat(
        cls,
        dimension: int,
        schema: AttributeSchema,
        *,
        seed: int = 0,
        durability: Any | None = None,
        ring_factory: Any | None = None,
        population: int | None = None,
        **kwargs: Any,
    ) -> "LormService":
        """LORM over a flat ring substrate at the Cycloid population.

        The ring is just wide enough to host the ``d * 2**d`` linearized
        resource IDs; ``ring_factory`` picks the routing tier (defaults to
        plain :class:`~repro.overlay.chord.ChordRing`) and membership is
        sampled from the same seeded stream Chord-backed services use.
        """
        capacity = dimension * (1 << dimension)
        ring = build_ring(
            max(2, (capacity - 1).bit_length()),
            capacity if population is None else population,
            seed=seed, stream=f"{cls.name}-membership",
            durability=durability, ring_factory=ring_factory,
        )
        return cls(ring, schema, seed=seed, dimension=dimension, **kwargs)

    # ------------------------------------------------------------------
    # ID mapping
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _placer(self, attribute: str) -> Callable[[float], tuple]:
        """``Insert(rescID, rescInfo)`` — one insertion, at the rescID
        linearized the way Cycloid linearizes it (``cluster * d + cyclic``,
        so each attribute owns a contiguous arc of ``d`` IDs) and handed to
        the overlay in its own key type."""
        base = self.attr_key(attribute) * self.dimension
        value_hash = self.value_hash(attribute)
        key_of = self.overlay.key_of
        return lambda value: ((_NAMESPACE, key_of(base + value_hash(value))),)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _plan(self, q: Query) -> tuple:
        """One read at the rescID's root; range queries walk the
        attribute's cluster (its contiguous ID arc on a flat ring) over
        the queried cyclic sector."""
        base = self.attr_key(q.attribute) * self.dimension
        cyclic, arc = self._value_target(q)
        if arc is not None:
            arc = (base + arc[0], base + arc[1])
        key = base + cyclic
        return ((self.overlay.key_of(key), arc, (_NAMESPACE, key, False)),)

    # ------------------------------------------------------------------
    # Structure metrics
    # ------------------------------------------------------------------
    def max_visited_per_subquery(self) -> int:
        # A range walk stays inside one cluster (Proposition 3.1), and a
        # cluster holds at most ``d`` nodes; the linearized arc on a flat
        # ring spans at most ``d`` IDs, so the same bound carries over.
        return self.dimension
