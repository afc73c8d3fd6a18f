"""Circular identifier-space arithmetic shared by every DHT.

A DHT identifier space is the ring of integers modulo ``2**bits``.  All
interval logic in Chord ("is ``x`` in ``(a, b]`` going clockwise?") and all
closest-node computations live here so the overlay code stays free of
modular-arithmetic pitfalls.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.utils.validation import require

__all__ = ["IdSpace", "closest_on_ring"]


def closest_on_ring(target: int, candidates: list[int], size: int) -> int:
    """The candidate at minimal ring distance to ``target``, ties clockwise.

    ``candidates`` must be sorted ascending and non-empty; only the two
    neighbours of ``target``'s insertion point can be closest, so this is
    the O(log n) equivalent of :meth:`IdSpace.closest`'s linear scan.
    Works for any cycle length ``size``, not just powers of two (Cycloid's
    intra-cluster cycle has length ``d``).

    Examples
    --------
    >>> closest_on_ring(0, [4, 12], 16)   # tie broken clockwise
    4
    >>> closest_on_ring(0, [10, 11], 16)
    11
    """
    target %= size
    n = len(candidates)
    if n == 1:
        return candidates[0]
    idx = bisect.bisect_left(candidates, target)
    succ = candidates[idx % n]
    pred = candidates[(idx - 1) % n]
    # The winner's ring distance equals its arc distance from ``target``
    # (the opposite arc always passes the other neighbour first), so
    # comparing the two arc distances decides; equality is the clockwise
    # tie, which goes to ``succ``.
    if (succ - target) % size <= (target - pred) % size:
        return succ
    return pred


@dataclass(frozen=True)
class IdSpace:
    """The ring of ``2**bits`` identifiers with clockwise orientation.

    Examples
    --------
    >>> s = IdSpace(4)
    >>> s.size
    16
    >>> s.clockwise_distance(14, 2)
    4
    >>> s.in_interval(0, 14, 2)
    True
    """

    bits: int

    def __post_init__(self) -> None:
        require(1 <= self.bits <= 160, f"bits must be in [1, 160], got {self.bits}")

    @property
    def size(self) -> int:
        """Number of identifiers on the ring, ``2**bits``."""
        return 1 << self.bits

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into the ring."""
        return value % self.size

    def clockwise_distance(self, frm: int, to: int) -> int:
        """Hops walking clockwise (increasing IDs) from ``frm`` to ``to``."""
        return (to - frm) % self.size

    def ring_distance(self, a: int, b: int) -> int:
        """Shortest distance between ``a`` and ``b`` in either direction."""
        d = (a - b) % self.size
        return min(d, self.size - d)

    def in_interval(
        self,
        x: int,
        a: int,
        b: int,
        *,
        closed_left: bool = False,
        closed_right: bool = True,
    ) -> bool:
        """Whether ``x`` lies in the clockwise interval from ``a`` to ``b``.

        Default bounds give Chord's canonical half-open ``(a, b]``.  When
        ``a == b`` the open interval covers the whole ring except the point
        itself (again Chord's convention for a single-node ring).
        """
        x, a, b = self.wrap(x), self.wrap(a), self.wrap(b)
        if a == b:
            if closed_left or closed_right:
                return True
            return x != a
        dist_x = self.clockwise_distance(a, x)
        dist_b = self.clockwise_distance(a, b)
        if dist_x == 0:
            return closed_left
        if dist_x == dist_b:
            return closed_right
        return dist_x < dist_b

    def closest(self, target: int, candidates: list[int]) -> int:
        """The candidate with minimal ring distance to ``target``.

        Ties are broken clockwise (the candidate reached first when walking
        clockwise from ``target``), which keeps key ownership deterministic.
        Candidates need not be sorted; callers that maintain a sorted index
        use :func:`closest_on_ring` instead.
        """
        require(bool(candidates), "closest() needs at least one candidate")
        best = candidates[0]
        best_key = self._closeness_key(target, best)
        for cand in candidates[1:]:
            key = self._closeness_key(target, cand)
            if key < best_key:
                best, best_key = cand, key
        return best

    def _closeness_key(self, target: int, candidate: int) -> tuple[int, int]:
        return (
            self.ring_distance(target, candidate),
            self.clockwise_distance(target, candidate),
        )
