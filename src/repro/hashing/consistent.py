"""Consistent hashing ``H`` (Karger et al., STOC 1997).

Maps arbitrary string/bytes keys uniformly onto an ``m``-bit circular ID
space via SHA-1, exactly as Chord assigns keys and node identifiers.  The
paper uses ``H`` to hash *attribute names* (LORM's cubical index, SWORD's
and MAAN's attribute root, Mercury's hub selection).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.overlay.idspace import IdSpace

__all__ = ["ConsistentHash"]


@dataclass(frozen=True)
class ConsistentHash:
    """SHA-1 based uniform hash into an ``bits``-wide ID space.

    Deterministic across processes and platforms (unlike built-in ``hash``).

    Examples
    --------
    >>> h = ConsistentHash(8)
    >>> 0 <= h("cpu-speed") < 256
    True
    >>> h("cpu-speed") == ConsistentHash(8)("cpu-speed")
    True
    """

    bits: int
    _space: IdSpace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_space", IdSpace(self.bits))

    @property
    def space(self) -> IdSpace:
        """The target :class:`IdSpace`."""
        return self._space

    def __call__(self, key: str | bytes) -> int:
        """Hash ``key`` to an integer in ``[0, 2**bits)``."""
        if isinstance(key, str):
            key = key.encode("utf-8")
        digest = hashlib.sha1(key).digest()
        # SHA-1 gives 160 bits; take the top `bits` of them.
        value = int.from_bytes(digest, "big")
        return value >> (160 - self.bits)
