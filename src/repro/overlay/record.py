"""ReCord-style randomized-Chord ring with per-level finger fan-out.

"ReCord: A Distributed Hash Table with Recursive Structure" generalises
Chord's deterministic finger table: at level ``i`` a node keeps not just
``successor(id + 2**i)`` but ``h`` fingers sampled from the whole
``[id + 2**i, id + 2**(i+1))`` span.  The fan-out ``h`` sweeps the space
between deterministic Chord (``h = 1``) and a near-complete routing table
(large ``h`` at small ``bits``), trading per-node state and refresh
bandwidth for lookup hops — the axis ``repro tradeoff`` measures.

:class:`ReCordOverlay` subclasses :class:`~repro.overlay.chord.ChordRing`
and overrides only finger construction:

* level ``i``'s first finger is always the deterministic Chord anchor
  ``successor(id + 2**i)`` — so the classic halving argument (and with it
  the ``bits + 1`` structural hop ceiling) still holds, and ``fanout=1``
  degenerates into a byte-identical deterministic Chord ring;
* the remaining ``fanout - 1`` fingers target ``successor(id + 2**i + δ)``
  with ``δ`` drawn from a *stable* hash of ``(seed, node, level, j)`` —
  deterministic across runs, and **nested** in ``j`` so a fan-out-``h``
  table is a superset of the fan-out-``h-1`` table (which is what makes
  mean hops monotone in the fan-out under common random numbers);
* the assembled list is sorted by clockwise distance, the order the
  inherited closest-preceding-finger step relies on.

Everything else — lookups, walks, storage, churn, maintenance budgets,
invariant checks — is inherited unchanged, except that ``stabilize_all``
keeps re-deriving every node (``_mark_stale``).
"""

from __future__ import annotations

from hashlib import blake2b

from repro.overlay.chord import ChordNode, ChordRing
from repro.utils.validation import require

__all__ = ["ReCordOverlay"]


class ReCordOverlay(ChordRing):
    """A Chord ring with randomized, fan-out-``h`` finger sampling.

    Examples
    --------
    >>> ring = ReCordOverlay(bits=5, fanout=3, seed=1)
    >>> ring.build_full()
    >>> ring.lookup(ring.node(0), 17).owner.node_id
    17
    """

    def __init__(self, bits: int, *, fanout: int = 2, seed: int = 0, **kwargs) -> None:
        require(fanout >= 1, "fanout must be >= 1")
        self.fanout = fanout
        self.finger_seed = seed
        super().__init__(bits, **kwargs)

    def _sample_offset(self, node_id: int, level: int, j: int) -> int:
        """The ``j``-th sampled extra offset at ``level`` — a stable
        function of (seed, node, level, j), in ``[1, 2**level)``."""
        span = 1 << level
        digest = blake2b(
            f"{self.finger_seed}:{node_id}:{level}:{j}".encode(),
            digest_size=8,
        ).digest()
        return 1 + int.from_bytes(digest, "big") % (span - 1)

    def _refresh_far(self, node: ChordNode) -> None:
        nid = node.node_id
        size = self.space.size
        entries: list[tuple[int, ChordNode]] = []
        for level in range(self.bits):
            base = 1 << level
            count = min(self.fanout, base)
            owner = self.successor_of(nid + base)
            entries.append(((owner.node_id - nid) % size, owner))
            for j in range(1, count):
                target = self.successor_of(
                    nid + base + self._sample_offset(nid, level, j)
                )
                entries.append(((target.node_id - nid) % size, target))
        # Ascending clockwise distance: the order in which the furthest
        # finger short of the key is the first one a scan from the top
        # meets, i.e. in which the finger row is one bisect.
        entries.sort(key=lambda e: e[0])
        node.fingers = [n for _, n in entries]
        self._cpf_cache.pop(nid, None)

    def _mark_stale(self, node_id: int) -> None:
        # The sampled offsets are hashed per node, so no arc of the index
        # bounds who targets the changed sector: the sweep stays full.
        self._stale = None
