"""Resource and query generators reproducing the paper's workload.

* ``k`` providers per attribute report Bounded-Pareto values —
  :meth:`GridWorkload.resource_infos` yields the full ``m × k`` set of
  resource-information pieces.
* Query attributes are "randomly generated" — sampled uniformly without
  replacement.
* Range queries target the paper's *average case* of Theorem 4.9: the
  expected covered fraction of the (hashed) value space is 1/4, achieved by
  drawing the quantile span uniformly from ``[0, 1/2]`` and placing it
  uniformly inside the quantile space.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.core.resource import (
    AttributeConstraint,
    MultiAttributeQuery,
    ResourceInfo,
)
from repro.utils.seeding import SeedFactory
from repro.utils.validation import require
from repro.workloads.attributes import AttributeSchema
from repro.workloads.popularity import PopularityModel

__all__ = ["GridWorkload", "QueryKind"]


class QueryKind(str, Enum):
    """Shape of the generated per-attribute constraints."""

    POINT = "point"  # non-range query (Figures 4 / 6a)
    RANGE = "range"  # doubly-bounded range (Figures 5 / 6b)
    AT_LEAST = "at-least"  # one-sided range, "CPU >= 1.8GHz"


@dataclass
class GridWorkload:
    """Deterministic generator of providers, resource infos and queries.

    Parameters
    ----------
    schema:
        The globally-known attribute types.
    infos_per_attribute:
        ``k`` — resource-information pieces per attribute (paper: 500).
        Provider ``p`` reports one value for every attribute, so there are
        exactly ``k`` providers and ``m*k`` info pieces in total.
    seed:
        Master seed; the full workload is a pure function of it.
    mean_span_fraction:
        Expected quantile-space fraction covered by a RANGE constraint
        (paper's average case: 0.25).  The span is drawn uniformly from
        ``[0, 2 * mean_span_fraction]``.
    popularity:
        Optional :class:`~repro.workloads.popularity.PopularityModel`
        skewing attribute/value selection (Zipf).  ``None``
        (the default) keeps the paper's uniform sampling byte-identical
        to the pre-popularity code path; when set, query streams derive
        one rng per query *index* so sharded generation reproduces the
        serial stream exactly.
    """

    schema: AttributeSchema
    infos_per_attribute: int = 500
    seed: int = 0
    mean_span_fraction: float = 0.25
    popularity: PopularityModel | None = None
    _seeds: SeedFactory = field(init=False, repr=False)
    _values: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require(self.infos_per_attribute >= 1, "need at least one info per attribute")
        require(
            0.0 < self.mean_span_fraction <= 0.5,
            f"mean_span_fraction must be in (0, 0.5], got {self.mean_span_fraction}",
        )
        self._seeds = SeedFactory(self.seed)
        rng = self._seeds.numpy("provider-values")
        self._values = {
            spec.name: np.asarray(
                spec.distribution.sample(rng, self.infos_per_attribute), dtype=float
            )
            for spec in self.schema
        }

    # ------------------------------------------------------------------
    # Providers and resource information
    # ------------------------------------------------------------------
    @property
    def num_providers(self) -> int:
        """Number of distinct providers (= ``k``)."""
        return self.infos_per_attribute

    def provider_name(self, index: int) -> str:
        """Stable provider address, ``grid-node-0042`` style."""
        return f"grid-node-{index:05d}"

    def provider_value(self, attribute: str, provider_index: int) -> float:
        """The value provider ``provider_index`` reports for ``attribute``."""
        return float(self._values[attribute][provider_index])

    def resource_infos(self) -> Iterator[ResourceInfo]:
        """All ``m * k`` resource-information pieces, provider-major order.

        The records (and their value floats) are *created* attribute-major,
        all ``k`` of one attribute after another: every bucket, arc table,
        ordered view and join reads one attribute's records together, and
        created together they share pages instead of sitting a provider's
        ``m`` records apart.  Only the yield order is provider-major.
        """
        providers = [self.provider_name(p) for p in range(self.num_providers)]
        columns = [
            [
                ResourceInfo(spec.name, value, provider)
                for value, provider in zip(self._values[spec.name].tolist(), providers)
            ]
            for spec in self.schema
        ]
        for row in zip(*columns):
            yield from row

    def infos_for_attribute(self, attribute: str) -> list[ResourceInfo]:
        """The ``k`` info pieces of one attribute."""
        return [
            ResourceInfo(attribute, float(v), self.provider_name(p))
            for p, v in enumerate(self._values[attribute])
        ]

    def total_info_pieces(self) -> int:
        """``m * k`` — the system-wide resource-information count."""
        return len(self.schema) * self.infos_per_attribute

    # ------------------------------------------------------------------
    # Query sampling
    # ------------------------------------------------------------------
    def sample_constraint(
        self,
        attribute: str,
        kind: QueryKind = QueryKind.RANGE,
        rng: np.random.Generator | None = None,
    ) -> AttributeConstraint:
        """One constraint on ``attribute`` of the requested ``kind``.

        RANGE constraints are placed in quantile space (see module
        docstring) so their expected hashed span is ``mean_span_fraction``
        regardless of the Pareto skew.  POINT constraints sample an
        *existing* provider value so that non-range queries have hits.
        """
        rng = rng if rng is not None else self._seeds.numpy("adhoc-constraint")
        spec = self.schema.spec(attribute)
        dist = spec.distribution
        if kind is QueryKind.POINT:
            values = self._values[attribute]
            pick = int(rng.integers(len(values)))
            return AttributeConstraint.point(attribute, float(values[pick]))
        if kind is QueryKind.AT_LEAST:
            # Lower bound placed so the expected covered quantile mass is
            # mean_span_fraction: U ~ Uniform(1 - 2*msf, 1) covers on
            # average msf of the space.
            lo = 1.0 - 2.0 * self.mean_span_fraction
            u = float(rng.uniform(lo, 1.0))
            return AttributeConstraint.at_least(attribute, dist.ppf(u))
        span = float(rng.uniform(0.0, 2.0 * self.mean_span_fraction))
        start = float(rng.uniform(0.0, 1.0 - span))
        return AttributeConstraint.between(
            attribute, dist.ppf(start), dist.ppf(start + span)
        )

    def sample_multi_query(
        self,
        num_attributes: int,
        kind: QueryKind = QueryKind.RANGE,
        rng: np.random.Generator | None = None,
        requester: str = "requester",
        index: int | None = None,
    ) -> MultiAttributeQuery:
        """An m-attribute query over distinct attributes.

        Uniformly chosen without a :attr:`popularity` model (the paper's
        workload); otherwise the model weights the draw and ``index``
        positions the query in the stream.
        """
        require(
            1 <= num_attributes <= len(self.schema),
            f"num_attributes must be in [1, {len(self.schema)}], got {num_attributes}",
        )
        rng = rng if rng is not None else self._seeds.numpy("adhoc-query")
        if self.popularity is None:
            chosen = rng.choice(len(self.schema), size=num_attributes, replace=False)
        else:
            chosen = self.popularity.choose_attributes(
                rng, len(self.schema), num_attributes, 0 if index is None else index
            )
        constraints = tuple(
            self.sample_constraint(self.schema.specs[int(i)].name, kind, rng)
            for i in chosen
        )
        return MultiAttributeQuery(constraints, requester=requester)

    def query_stream(
        self,
        count: int,
        num_attributes: int,
        kind: QueryKind = QueryKind.RANGE,
        label: str = "queries",
        start: int = 0,
    ) -> Iterator[MultiAttributeQuery]:
        """A deterministic stream of ``count`` multi-attribute queries.

        Without a :attr:`popularity` model the stream consumes one
        sequential rng (the seed behaviour, byte-identical).  With one,
        every query index derives its own rng, so ``start`` can shard the
        stream: generating ``[0, n)`` in one pass is identical to
        concatenating ``[0, k)`` and ``[k, n)`` passes, which is what
        ``--parallel`` sharding relies on.
        """
        if self.popularity is None:
            require(start == 0, "sharded streams need a popularity model")
            rng = self._seeds.numpy(f"query-stream:{label}:{num_attributes}:{kind.value}")
            for i in range(count):
                yield self.sample_multi_query(
                    num_attributes, kind, rng, requester=f"requester-{i:05d}"
                )
            return
        prefix = f"query-stream:{label}:{num_attributes}:{kind.value}"
        for i in range(start, start + count):
            rng = self._seeds.numpy(f"{prefix}:{i}")
            yield self.sample_multi_query(
                num_attributes, kind, rng, requester=f"requester-{i:05d}", index=i
            )

    # ------------------------------------------------------------------
    # Ground truth (for equivalence tests)
    # ------------------------------------------------------------------
    def matching_providers_bruteforce(self, query: MultiAttributeQuery) -> frozenset[str]:
        """Providers satisfying every constraint, by exhaustive scan."""
        result: set[str] | None = None
        for constraint in query.constraints:
            values = self._values[constraint.attribute]
            hits = {
                self.provider_name(p)
                for p, v in enumerate(values)
                if constraint.matches(float(v))
            }
            result = hits if result is None else (result & hits)
            if not result:
                return frozenset()
        return frozenset(result or set())
