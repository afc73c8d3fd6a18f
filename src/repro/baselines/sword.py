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


class SwordService(ChordBackedService):
    """Single-DHT centralized discovery: one directory node per attribute
    (every root-table entry holds the full directory)."""

    name: ClassVar[str] = "SWORD"
    root_namespace: ClassVar[str] = "sword"
    reads_root: ClassVar[bool] = True

    def max_visited_per_subquery(self) -> int:
        # The attribute root answers alone, point or range (Theorem 4.9).
        return 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _placer(self, attribute: str) -> Callable[[float], tuple]:
        """One insertion per root-table entry of the attribute: its root,
        ``successor(H(attribute))``, or its ``S`` salted roots, then its hot
        keys, whatever the value."""
        roots = self._root_placements(attribute)
        return lambda value: roots

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _plan(self, q: Query) -> tuple:
        """One read of the attribute root's pooled directory, point and
        range alike (no forwarding), at the requester's root-table entry."""
        namespace, key = self.root_read(q.attribute, q.requester)
        return ((key, None, (namespace, key, True)),)
