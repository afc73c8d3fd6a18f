"""SWORD — the single-DHT-based *centralized* comparator (Oppenheimer et
al., 2004; Chord substrate per the paper's setup).

SWORD pools all resource information of a given attribute at a single
directory node — the root of the consistent hash of the attribute name.
Point and range queries alike are answered entirely by that root, so a
range query visits exactly one node per attribute (Theorem 4.9's ``m``
visited nodes), at the price of extreme directory imbalance: with m=200
attributes, all 100k info pieces pile up on 200 of the 2048 nodes
(Figure 3(c)).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import ClassVar

from repro.baselines.base import ChordBackedService
from repro.core.resource import Query

__all__ = ["SwordService"]

_NAMESPACE = "sword"


class SwordService(ChordBackedService):
    """Single-DHT centralized discovery: one directory node per attribute."""

    name: ClassVar[str] = "SWORD"

    def max_visited_per_subquery(self) -> int:
        # The attribute root answers alone, point or range (Theorem 4.9).
        return 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _placer(self, attribute: str) -> Callable[[float], tuple]:
        """One insertion at the attribute root, ``successor(H(attribute))``
        — or one at each of the ``S`` salted roots under a salting plan —
        plus one per hot replica key, whatever the value."""
        roots = self.attr_placements(_NAMESPACE, attribute)
        return lambda value: roots

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _plan(self, q: Query) -> tuple:
        """One read of the attribute root's pooled directory, point and
        range alike (no forwarding) — under a mitigation, of the
        requester's stable salted root or hot replica."""
        route_key, namespace, key = self.attr_read_target(
            q.attribute, q.requester, _NAMESPACE
        )
        return ((route_key, None, (namespace, key, True)),)
