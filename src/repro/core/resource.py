"""Resource-information and query vocabulary (Section III of the paper).

The paper represents the available resource information of node ``i`` as a
3-tuple ``⟨a, δπ_a, ip_addr(i)⟩`` — attribute type, value, provider address
— and a resource request of node ``j`` as ``⟨a, π_a, ip_addr(j)⟩`` where
``π_a`` is a value or range.  These classes are that vocabulary, shared by
LORM and all three comparator approaches so the equivalence tests can run
identical workloads through each.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from repro.utils.validation import require

__all__ = [
    "ResourceInfo",
    "AttributeConstraint",
    "Query",
    "MultiAttributeQuery",
    "QueryResult",
    "MultiQueryResult",
    "select_matches",
]


@dataclass(frozen=True, slots=True, eq=False)
class ResourceInfo:
    """One piece of available-resource information, ``⟨a, δπ_a, ip_addr⟩``.

    Attributes
    ----------
    attribute:
        Globally-known attribute type ``a`` (e.g. ``"cpu-mhz"``).
    value:
        The provider's available value ``δπ_a``.  String-valued attributes
        (e.g. ``OS=Linux``) are encoded to numeric codes by the workload
        layer, mirroring the paper's use of a locality-preserving hash over
        "value or string description".
    provider:
        ``ip_addr(i)`` — opaque provider address used as the join key.
    """

    attribute: str
    value: float
    provider: str

    def __post_init__(self) -> None:
        # NaN compares false with everything: it would slip through every
        # range test and break the ordered directory views' bisects.
        if self.value != self.value:
            raise ValueError(f"NaN value for attribute {self.attribute!r}")

    # Every directory set, dict and bucket search compares pieces, so
    # equality is written out: field by field with short-circuit (the
    # value first, as it differs most often), no tuples built.  The hash
    # is the generated formula, so sets and dicts iterate as before.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.value == other.value
            and self.provider == other.provider
            and self.attribute == other.attribute
        )

    def __hash__(self) -> int:
        return hash((self.attribute, self.value, self.provider))


@dataclass(frozen=True, slots=True)
class AttributeConstraint:
    """A sub-query ``π_a`` on one attribute: a point or a (half-)range.

    ``low``/``high`` are inclusive bounds; ``None`` means unbounded on that
    side, giving the paper's ``CPU >= 1.8GHz`` style half-ranges.

    Examples
    --------
    >>> c = AttributeConstraint.between("cpu-mhz", 1000, 1800)
    >>> c.matches(1500), c.matches(2000)
    (True, False)
    >>> AttributeConstraint.point("mem-mb", 2048).is_range
    False
    """

    attribute: str
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if self.low != self.low or self.high != self.high:
            raise ValueError(
                f"NaN bound for attribute {self.attribute!r}: [{self.low}, {self.high}]"
            )
        if self.low is not None and self.high is not None:
            require(
                self.low <= self.high,
                f"inverted range for {self.attribute}: [{self.low}, {self.high}]",
            )

    # Constructors -----------------------------------------------------
    @classmethod
    def point(cls, attribute: str, value: float) -> "AttributeConstraint":
        """Exact-value constraint (a non-range query)."""
        return cls(attribute, value, value)

    @classmethod
    def at_least(cls, attribute: str, value: float) -> "AttributeConstraint":
        """Lower-bounded half-range, e.g. ``Free memory >= 2GB``."""
        return cls(attribute, value, None)

    @classmethod
    def between(cls, attribute: str, low: float, high: float) -> "AttributeConstraint":
        """Doubly-bounded range, e.g. ``1GHz <= CPU <= 1.8GHz``."""
        return cls(attribute, low, high)

    # Semantics ---------------------------------------------------------
    @property
    def is_range(self) -> bool:
        """True unless this is an exact-value (point) constraint."""
        return self.low is None or self.high is None or self.low != self.high

    def matches(self, value: float) -> bool:
        """Whether a provider's ``value`` satisfies this constraint."""
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    @property
    def bounds(self) -> tuple[float, float]:
        """Inclusive ``(low, high)`` with ``-inf`` / ``+inf`` standing in
        for an unbounded side — ``low <= value <= high`` is :meth:`matches`."""
        return self.bounds_within(-math.inf, math.inf)

    def bounds_within(self, lo: float, hi: float) -> tuple[float, float]:
        """Concrete inclusive bounds, substituting the attribute domain
        ``[lo, hi]`` for unbounded sides."""
        low = lo if self.low is None else self.low
        high = hi if self.high is None else self.high
        return low, high


def select_matches(
    directories: Iterable[Iterable[ResourceInfo]], constraint: AttributeConstraint
) -> tuple[ResourceInfo, ...]:
    """The infos of the visited ``directories`` that satisfy ``constraint``
    — the scan-side match, for directories small or single-attribute
    enough that an ordered view (``OverlayNode.items_in`` with an
    attribute) would cost more than it saves."""
    attribute = constraint.attribute
    low, high = constraint.bounds
    return tuple([
        info
        for directory in directories
        for info in directory
        if low <= info.value <= high and info.attribute == attribute
    ])


class Query(NamedTuple):
    """A single-attribute resource request, ``⟨a, π_a, ip_addr(j)⟩``."""

    constraint: AttributeConstraint
    requester: str = "requester"

    @property
    def attribute(self) -> str:
        """The queried attribute type."""
        return self.constraint.attribute

    @property
    def is_range(self) -> bool:
        """Whether this is a range query (vs. non-range/point)."""
        return self.constraint.is_range


@dataclass(frozen=True, slots=True)
class MultiAttributeQuery:
    """An m-attribute request: one constraint per attribute, resolved as
    parallel sub-queries whose results are joined on provider address."""

    constraints: tuple[AttributeConstraint, ...]
    requester: str = "requester"

    def __post_init__(self) -> None:
        require(len(self.constraints) >= 1, "need at least one constraint")
        attrs = [c.attribute for c in self.constraints]
        require(len(set(attrs)) == len(attrs), f"duplicate attributes in query: {attrs}")

    @property
    def num_attributes(self) -> int:
        """``m`` — the number of attributes in the request."""
        return len(self.constraints)

    @property
    def is_range(self) -> bool:
        """True if any sub-query is a range query."""
        return any(c.is_range for c in self.constraints)

    def sub_queries(self) -> tuple[Query, ...]:
        """The per-attribute sub-queries, in constraint order."""
        return tuple(Query(c, self.requester) for c in self.constraints)


class QueryResult(NamedTuple):
    """Outcome and accounting of one single-attribute query.

    ``hops`` is the paper's logical-hop metric (routing messages);
    ``visited_nodes`` counts nodes that received the query and checked
    their directory (the Figure 5/6b metric).

    Under fault injection a query can come back *degraded*:
    ``complete=False`` flags that the lookup failed or the range walk was
    truncated, so ``matches`` is an honest partial answer rather than the
    full result set.  ``retries`` counts retransmission rounds spent and
    ``timed_out`` whether the route died waiting on unreachable nodes.

    ``latency`` is the requester-observed response time in seconds —
    populated only while a :class:`~repro.sim.latency.LatencyModel` is
    attached to the service's network (0.0 otherwise, keeping the
    constant-``hop_latency`` world's accounting untouched).

    Like :class:`Query` (and :class:`~repro.overlay.node.LookupResult`) a
    named tuple: immutable and equal by value, built once per sub-query
    by one tuple allocation rather than a setattr per field.
    """

    matches: tuple[ResourceInfo, ...]
    hops: int
    visited_nodes: int
    complete: bool = True
    retries: int = 0
    timed_out: bool = False
    latency: float = 0.0

    @property
    def providers(self) -> frozenset[str]:
        """Distinct providers among the matches."""
        return frozenset(info.provider for info in self.matches)


@dataclass(frozen=True, slots=True)
class MultiQueryResult:
    """Joined outcome of an m-attribute query.

    ``providers`` holds the requesters' answer: nodes offering *all*
    requested attributes within the requested ranges, obtained by the
    database-like join on ``ip_addr``.

    Built once per multi-attribute query, so it stays a slotted
    dataclass: the benchmark's and the differential checker's tests forge
    wrong answers from it with :func:`dataclasses.replace`.
    """

    providers: frozenset[str]
    sub_results: tuple[QueryResult, ...]

    @property
    def total_hops(self) -> int:
        """Sum of routing hops across the parallel sub-queries."""
        return sum(r.hops for r in self.sub_results)

    @property
    def total_visited(self) -> int:
        """Sum of visited (directory-checking) nodes across sub-queries."""
        return sum(r.visited_nodes for r in self.sub_results)

    @property
    def latency_hops(self) -> int:
        """Hops on the critical path: sub-queries resolve in parallel, so
        the slowest one bounds response time."""
        return max((r.hops for r in self.sub_results), default=0)

    @property
    def latency(self) -> float:
        """Measured response time in seconds: sub-queries resolve in
        parallel, so the slowest one's requester-observed latency bounds
        the answer (0.0 when no latency model was attached)."""
        return max((r.latency for r in self.sub_results), default=0.0)

    @property
    def num_matches(self) -> int:
        """Number of providers satisfying every constraint."""
        return len(self.providers)

    @property
    def complete(self) -> bool:
        """Whether every sub-query came back complete.

        An incomplete sub-result makes the join an *under*-approximation
        (providers may be missing, never spurious), so requesters can
        decide whether a partial answer is acceptable.
        """
        return all(r.complete for r in self.sub_results)

    @property
    def retries(self) -> int:
        """Total retransmission rounds spent across sub-queries."""
        return sum(r.retries for r in self.sub_results)
