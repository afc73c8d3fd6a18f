"""Grid resource-attribute schema.

The paper assumes "each resource is described by a set of attributes with
globally known types" — CPU speed, free memory, OS, and so on — with m=200
attribute types in the evaluation.  :class:`AttributeSpec` describes one
attribute (its value domain and Bounded-Pareto value distribution);
:class:`AttributeSchema` is the globally-known collection plus the factory
for per-attribute locality-preserving hashes.

String-valued attributes (``OS=Linux``) carry their category labels but
are sampled and hashed as numeric codes on their domain — the paper
likewise funnels "value or string description" through the same
locality-preserving hash.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.hashing.locality import (
    CdfLocalityHash,
    LinearLocalityHash,
    LocalityPreservingHash,
)
from repro.utils.validation import require
from repro.workloads.pareto import BoundedPareto

__all__ = ["AttributeSpec", "AttributeSchema", "REALISTIC_GRID_ATTRIBUTES"]


@dataclass(frozen=True)
class AttributeSpec:
    """One globally-known attribute type: domain plus value distribution.

    Examples
    --------
    >>> spec = AttributeSpec("cpu-mhz", 100.0, 5000.0, pareto_shape=2.0)
    >>> 100.0 <= spec.distribution.ppf(0.5) <= 5000.0
    True
    """

    name: str
    lo: float
    hi: float
    pareto_shape: float = 2.0
    #: Category labels for string-valued attributes; empty = numeric.
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require(self.hi > self.lo, f"{self.name}: need hi > lo")
        require(self.lo > 0, f"{self.name}: Bounded Pareto needs lo > 0")

    @property
    def distribution(self) -> BoundedPareto:
        """The Bounded-Pareto value distribution on [lo, hi]."""
        return BoundedPareto(alpha=self.pareto_shape, low=self.lo, high=self.hi)

    def value_hash(self, size: int, kind: str = "cdf") -> LocalityPreservingHash:
        """The locality-preserving hash ℋ for this attribute.

        ``kind='cdf'`` calibrates against the attribute's Bounded-Pareto CDF
        (the default used at paper scale); ``kind='linear'`` is the plain
        affine map (ablation).
        """
        if kind == "linear":
            return LinearLocalityHash(size=size, lo=self.lo, hi=self.hi)
        if kind == "cdf":
            return CdfLocalityHash(
                size=size, lo=self.lo, hi=self.hi, cdf=self.distribution.cdf
            )
        raise ValueError(f"unknown LPH kind {kind!r} (expected 'cdf' or 'linear')")


#: Hand-written specs for the grid attributes the paper's introduction
#: motivates; synthetic schemas start from these and pad to m attributes.
REALISTIC_GRID_ATTRIBUTES: tuple[AttributeSpec, ...] = (
    AttributeSpec("cpu-mhz", 100.0, 5000.0),
    AttributeSpec("free-memory-mb", 16.0, 65536.0),
    AttributeSpec("disk-gb", 1.0, 4096.0),
    AttributeSpec("network-mbps", 1.0, 10000.0),
    AttributeSpec("num-cores", 1.0, 128.0),
    AttributeSpec(
        "os",
        1.0,
        9.0,
        categories=("linux", "solaris", "aix", "windows", "hpux", "irix", "bsd", "macos"),
    ),
)


@dataclass(frozen=True)
class AttributeSchema:
    """The globally-known set of attribute types for one grid deployment."""

    specs: tuple[AttributeSpec, ...]
    _by_name: dict = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        names = [s.name for s in self.specs]
        require(len(set(names)) == len(names), f"duplicate attribute names: {names}")
        object.__setattr__(self, "_by_name", {s.name: s for s in self.specs})

    @classmethod
    def synthetic(
        cls,
        num_attributes: int,
        *,
        pareto_shape: float = 2.0,
        base: Sequence[AttributeSpec] = REALISTIC_GRID_ATTRIBUTES,
    ) -> "AttributeSchema":
        """A schema of ``num_attributes`` types (the paper uses 200).

        Starts from the realistic grid attributes and pads with generated
        numeric attributes ``attr-006``, ``attr-007``, … with varied
        domains.
        """
        require(num_attributes >= 1, "need at least one attribute")
        specs = list(base[:num_attributes])
        idx = len(specs)
        while len(specs) < num_attributes:
            # Vary the domain deterministically so attributes are not clones.
            lo = 1.0 + (idx % 7)
            hi = lo * (50.0 + 25.0 * (idx % 13))
            specs.append(
                AttributeSpec(f"attr-{idx:03d}", lo, hi, pareto_shape=pareto_shape)
            )
            idx += 1
        return cls(tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self.specs)

    @property
    def names(self) -> tuple[str, ...]:
        """All attribute names, in schema order."""
        return tuple(s.name for s in self.specs)

    def spec(self, name: str) -> AttributeSpec:
        """The spec for attribute ``name``."""
        return self._by_name[name]
