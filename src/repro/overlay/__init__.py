"""DHT overlay substrates: circular ID spaces, Chord, Cycloid.

Chord (Stoica et al., 2003) is the flat DHT underlying the Mercury, SWORD
and MAAN comparators; Cycloid (Shen, Xu & Chen, 2006) is the hierarchical
constant-degree DHT underlying LORM.  Both are full simulated
implementations: routed lookups with hop accounting, key storage, node
join/leave with key transfer, and routing-state repair under churn —
geometry hooks under the shared :class:`Overlay` skeleton.
"""

from repro.overlay.base import Overlay
from repro.overlay.chord import ChordNode, ChordRing
from repro.overlay.cycloid import CycloidId, CycloidNode, CycloidOverlay
from repro.overlay.idspace import IdSpace
from repro.overlay.node import LookupResult, OverlayNode, WalkResult

__all__ = [
    "ChordNode",
    "ChordRing",
    "CycloidId",
    "CycloidNode",
    "CycloidOverlay",
    "IdSpace",
    "LookupResult",
    "Overlay",
    "OverlayNode",
    "WalkResult",
]
