"""Skewed-popularity models for the query workload.

The paper samples query attributes *uniformly* (Section V), which makes
every system look balanced by construction.  Production resource-discovery
traffic is nothing like that: attribute popularity follows a Zipf law.
This module supplies both models as drop-in strategies for
:class:`~repro.workloads.generator.GridWorkload`:

* :class:`UniformPopularity` — the paper's model, made explicit;
* :class:`ZipfPopularity` — rank-``r`` attribute drawn with probability
  proportional to ``1 / (r + 1) ** s``.

Every decision is a pure function of ``(model, per-query rng, index)``;
the workload derives one rng per query index, so streams are reproducible
across serial and sharded (``--parallel``) generation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require

__all__ = [
    "PopularityModel",
    "UniformPopularity",
    "ZipfPopularity",
    "stable_seed",
    "zipf_weights",
]

def stable_seed(*parts: object) -> int:
    """A process-independent 63-bit seed from arbitrary labelled parts.

    Python's built-in ``hash`` is salted per process for strings, so it
    must never feed a reproducible rng; this digest-based derivation is a
    pure function of its arguments.
    """
    digest = hashlib.blake2s("|".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (1 << 63)


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Normalized Zipf probabilities over ``count`` ranks (rank 0 hottest)."""
    require(count >= 1, "need at least one rank")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-s)
    return weights / weights.sum()


@dataclass(frozen=True)
class PopularityModel:
    """Base popularity model: the paper's uniform-random selection.

    Subclasses override :meth:`attribute_weights` (per-attribute selection
    probabilities, possibly index-dependent).
    """

    #: Seed of the model's internal permutations (which attribute is hot).
    seed: int = 0

    def attribute_weights(self, num_attributes: int, index: int) -> np.ndarray | None:
        """Selection probabilities over the schema for query ``index``.

        ``None`` means uniform — the caller then uses an unweighted draw.
        """
        return None

    def choose_attributes(
        self, rng: np.random.Generator, num_attributes: int, count: int, index: int
    ) -> np.ndarray:
        """Draw ``count`` distinct attribute indices for query ``index``."""
        weights = self.attribute_weights(num_attributes, index)
        if weights is None:
            return rng.choice(num_attributes, size=count, replace=False)
        return rng.choice(num_attributes, size=count, replace=False, p=weights)


@dataclass(frozen=True)
class UniformPopularity(PopularityModel):
    """The paper's uniform attribute selection, as an explicit model."""


@dataclass(frozen=True)
class ZipfPopularity(PopularityModel):
    """Zipf-skewed attribute popularity.

    Parameters
    ----------
    s:
        Attribute-level Zipf exponent; ``0`` degenerates to uniform.
    seed:
        Seeds the rank permutations, so *which* attribute is hot is
        deterministic but not simply "the first one in the schema".
    """

    s: float = 1.1
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        require(self.s >= 0.0, f"zipf exponent s must be >= 0, got {self.s}")

    def _permutation(self, label: str, count: int) -> np.ndarray:
        key = (label, count)
        found = self._cache.get(key)
        if found is None:
            rng = np.random.default_rng(stable_seed("zipf-perm", self.seed, label, count))
            found = rng.permutation(count)
            self._cache[key] = found
        return found

    def rank_order(self, num_attributes: int) -> np.ndarray:
        """Attribute indices from hottest to coldest (seeded permutation)."""
        return self._permutation("attributes", num_attributes)

    def attribute_weights(self, num_attributes: int, index: int) -> np.ndarray | None:
        if self.s == 0.0:
            return None
        key = ("weights", num_attributes)
        weights = self._cache.get(key)
        if weights is None:
            by_rank = zipf_weights(num_attributes, self.s)
            weights = np.empty(num_attributes)
            weights[self.rank_order(num_attributes)] = by_rank
            self._cache[key] = weights
        return weights
