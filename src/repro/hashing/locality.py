"""Locality-preserving hashing ``ℋ`` for attribute values.

A locality-preserving hash (LPH) maps an attribute's value domain
``[lo, hi]`` onto an integer ID space ``[0, size)`` such that order is
preserved: ``v1 <= v2  ⇒  ℋ(v1) <= ℋ(v2)``.  This is the construction from
MAAN (Cai et al., 2004) that the paper adopts for all value dimensions; it
makes "walk the successors from ℋ(π1) to ℋ(π2)" a correct range query
(Proposition 3.1).

The target space is parameterised by *size*, not bits, because LORM hashes
values onto Cycloid's cyclic-index space ``[0, d)`` — and ``d`` need not be
a power of two — while Mercury/MAAN hash onto a ``2**bits`` Chord ring.

Two flavours are provided:

:class:`LinearLocalityHash`
    The textbook affine map.  Perfectly order-preserving but inherits any
    skew in the value distribution: Bounded-Pareto values pile up at the low
    end of the ID space.

:class:`CdfLocalityHash`
    Calibrated against the value distribution's analytic CDF, so hashed
    values are near-uniform on the ID space while order is still
    preserved.  This is MAAN's "uniform locality preserving hashing"
    refinement and is the default in the paper-scale experiments; the
    linear/CDF choice is one of the ablation benches (see DESIGN.md §4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

from repro.utils.validation import require

__all__ = ["LocalityPreservingHash", "LinearLocalityHash", "CdfLocalityHash"]


class LocalityPreservingHash(ABC):
    """Order-preserving map from a numeric value domain to ``[0, size)``."""

    #: Number of identifiers in the target space.
    size: int
    #: Inclusive value domain handled by this hash.
    lo: float
    hi: float

    @abstractmethod
    def __call__(self, value: float) -> int:
        """Hash ``value`` (clamped to ``[lo, hi]``) into ``[0, size)``."""

    def _clamp(self, value: float) -> float:
        if value < self.lo:
            return self.lo
        if value > self.hi:
            return self.hi
        return value

    def _bucket(self, fraction: float) -> int:
        size = self.size
        if fraction >= 1.0:
            return size - 1
        if fraction <= 0.0:
            return 0
        bucket = int(fraction * size)  # NaN raises ValueError here
        return bucket if bucket < size else size - 1

    def hash_range(self, v1: float, v2: float) -> tuple[int, int]:
        """Hash an inclusive value range, normalising endpoint order."""
        if v1 > v2:
            v1, v2 = v2, v1
        return self(v1), self(v2)


@dataclass(frozen=True)
class LinearLocalityHash(LocalityPreservingHash):
    """Affine order-preserving map of ``[lo, hi]`` onto ``[0, size)``.

    Examples
    --------
    >>> h = LinearLocalityHash(size=8, lo=0.0, hi=100.0)
    >>> h(0.0), h(50.0), h(100.0)
    (0, 4, 7)
    """

    size: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        require(self.size >= 1, f"size must be >= 1, got {self.size}")
        require(self.hi > self.lo, f"need hi > lo, got [{self.lo}, {self.hi}]")

    def __call__(self, value: float) -> int:
        value = self._clamp(value)
        return self._bucket((value - self.lo) / (self.hi - self.lo))


@dataclass(frozen=True)
class CdfLocalityHash(LocalityPreservingHash):
    """CDF-calibrated order-preserving map (MAAN's *uniform* LPH).

    ``ℋ(v) = floor(F(v) * size)`` where ``F`` is the value distribution's
    CDF.  Because any CDF is non-decreasing, order is preserved; because
    ``F(V)`` is uniform for ``V ~ F``, hashed values are uniform on the ID
    space, which balances directory load under skewed (e.g. Bounded-Pareto)
    value distributions.
    """

    size: int
    lo: float
    hi: float
    cdf: Callable[[float], float]

    def __post_init__(self) -> None:
        require(self.size >= 1, f"size must be >= 1, got {self.size}")
        require(self.hi > self.lo, f"need hi > lo, got [{self.lo}, {self.hi}]")

    def __call__(self, value: float) -> int:
        if value < self.lo:
            value = self.lo
        elif value > self.hi:
            value = self.hi
        return self._bucket(self.cdf(value))
