"""Mercury — the multi-DHT-based comparator (Bharambe et al., 2004).

Mercury maintains one *attribute hub* per attribute type; every grid node
joins every hub, and within a hub resource information is indexed by the
locality-preserving hash of its *value*, so range queries are resolved by
walking hub successors over the queried value arc.  Per the paper's setup,
hubs are Chord rings, and the record/pointer optimisation is disabled
("To make the different methods be comparable, we don't consider this
strategy").

Simulation note — since all m hubs have identical membership and are
structurally isomorphic, they are realised as *one* physical ring carrying
m per-attribute namespaces.  Placement, hop counts and per-node directory
content are exactly those of m separate rings whose node IDs coincide; the
only metric that differs is structural maintenance, which is therefore
scaled by m explicitly (each node maintains a full routing table *per
hub*), matching how the paper accounts Mercury's overhead in Theorem 4.1
and Figure 3(a).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from typing import ClassVar

from repro.baselines.base import ChordBackedService
from repro.core.resource import Query

__all__ = ["MercuryService"]


class MercuryService(ChordBackedService):
    """Multi-DHT resource discovery: one value-indexed Chord hub per attribute."""

    name: ClassVar[str] = "Mercury"

    @staticmethod
    def _hub(attribute: str) -> str:
        # Interned: every (node, hub) store keys on this string, so one
        # shared object per hub instead of one copy per store.
        return sys.intern(f"hub:{attribute}")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _placer(self, attribute: str) -> Callable[[float], tuple]:
        """One insertion, into the attribute's hub at the value's root."""
        hub = self._hub(attribute)
        value_hash = self.value_hash(attribute)
        return lambda value: ((hub, value_hash(value)),)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _plan(self, q: Query) -> tuple:
        """One hub read at the value's root; range queries walk hub
        successors over the queried value arc."""
        key, arc = self._value_target(q)
        return ((key, arc, (self._hub(q.attribute), key, False)),)

    # ------------------------------------------------------------------
    # Structure metrics
    # ------------------------------------------------------------------
    def outlink_counts(self) -> list[int]:
        """Each node maintains a routing table in *every* hub (m of them)."""
        num_hubs = self.maintenance_scale()
        return [num_hubs * links for links in super().outlink_counts()]

    def maintenance_scale(self) -> int:
        """Structural maintenance multiplier (one full DHT per attribute)."""
        return len(self.schema)
