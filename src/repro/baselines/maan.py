"""MAAN — the single-DHT-based *decentralized* comparator (Cai et al., 2004).

MAAN registers each resource-information piece **twice** on one Chord ring:
once under the consistent hash of its attribute name and once under the
locality-preserving hash of its value.  Consequently (Theorem 4.2) its
total stored information is twice everyone else's, and every query needs
**two** lookups per attribute — attribute root and value root — doubling
its non-range hop count (Theorems 4.7/4.8).  Range queries walk ring
successors from ℋ(π1) to ℋ(π2); because values of *all* attributes are
spread over the whole ring, the walk spans the entire system
(Theorem 4.9's ``m(2 + n/4)`` visited nodes).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import ClassVar

from repro.baselines.base import ChordBackedService
from repro.core.resource import Query

__all__ = ["MaanService"]

_VALUE_NS = "maan:value"


class MaanService(ChordBackedService):
    """Single-DHT decentralized discovery with split attribute/value maps
    (a query only visits its attribute root, so hot keys get no copies)."""

    name: ClassVar[str] = "MAAN"
    root_namespace: ClassVar[str] = "maan:attr"
    reads_root: ClassVar[bool] = False

    #: Attribute root first, then the value root (Theorems 4.7/4.8).
    lookups_per_attribute: ClassVar[int] = 2

    def max_visited_per_subquery(self) -> int:
        # Range: the attribute root plus a value-arc walk that can span
        # the whole ring (Theorem 4.9).
        return self.ring.num_nodes + 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _placer(self, attribute: str) -> Callable[[float], tuple]:
        """Two insertions (two pieces stored): attribute map, then value
        map.

        Salting spreads the attribute-map insertion over all ``S`` salted
        roots; the value map is untouched (its load spreads by value
        hashing already).
        """
        roots = self._root_placements(attribute)
        value_hash = self.value_hash(attribute)
        return lambda value: (*roots, (_VALUE_NS, value_hash(value)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _plan(self, q: Query) -> tuple:
        """Two steps per attribute (Theorems 4.7/4.8): a visit to the
        requester's root-table entry, which checks its directory but
        returns nothing, then the value root's read, extended for range
        queries into a value-arc walk across the whole ring."""
        _, attr_route = self.root_read(q.attribute, q.requester)
        key, arc = self._value_target(q)
        return ((attr_route, None, None), (key, arc, (_VALUE_NS, key, True)))
