"""Experiment configuration (Section V parameters).

The paper's setup: "The dimension was set to 8 in Cycloid and 11 in Chord,
and each DHT had 2048 nodes.  We assumed there were m = 200 resource
attributes, and each attribute had k = 500 values.  We used Bounded Pareto
distribution function to generate resource values…"; Figure 4 uses 100
requesters × 10 queries over 1–10 attributes; Figure 5 uses 1000 range
queries; Figure 6 uses 10000 requests under churn rates R = 0.1 … 0.5.

``PAPER_CONFIG`` encodes those numbers; ``SMOKE_CONFIG`` is a scaled-down
copy with the same *shape* for tests and quick runs, ``CHECK_CONFIG`` the
smaller one behind ``repro check`` and ``repro trace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.validation import require
from repro.workloads.attributes import AttributeSchema

__all__ = ["ExperimentConfig", "PAPER_CONFIG", "SMOKE_CONFIG", "CHECK_CONFIG"]

#: Hotspot experiment: load windows per cell.  The first window is warm-up
#: (dynamic replication needs one observed window before it can react) and
#: is excluded from every cell's imbalance metrics.  Defined here, not in
#: :mod:`~repro.experiments.hotspot`, because ``hotspot_queries`` is
#: validated against it and that module imports this one.
HOTSPOT_WINDOWS = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the paper's evaluation, with the paper's defaults."""

    #: Cycloid dimension d (n = d * 2**d nodes).
    dimension: int = 8
    #: Chord ID-space width; the paper uses 11 (2048 IDs = 2048 nodes).
    chord_bits: int = 11
    #: m — number of resource attributes.
    num_attributes: int = 200
    #: k — resource-information pieces (provider values) per attribute.
    infos_per_attribute: int = 500
    #: Attributes per query swept in Figures 4/5 (1..10 in the paper).
    max_query_attributes: int = 10
    #: Figure 4: requesters × queries-per-requester.
    num_requesters: int = 100
    queries_per_requester: int = 10
    #: Figure 5: number of range queries per point.
    num_range_queries: int = 1000
    #: Figure 6: total resource requests under churn.
    num_churn_requests: int = 10000
    #: Figure 6: churn rates R (events/second per stream).
    churn_rates: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    #: Expected hashed-span fraction of range queries (Theorem 4.9's
    #: average case corresponds to 0.25).
    mean_span_fraction: float = 0.25
    #: Locality-preserving hash flavour: "cdf" (default) or "linear".
    lph_kind: str = "cdf"
    #: Bounded-Pareto shape for attribute values.
    pareto_shape: float = 2.0
    #: Master seed.
    seed: int = 2009
    #: Availability experiment: per-message loss rates swept.
    loss_rates: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1)
    #: Availability experiment: replication factors swept.
    availability_replications: tuple[int, ...] = (1, 2, 3)
    #: Availability experiment: multi-attribute queries per cell.
    num_availability_queries: int = 120
    #: Recovery experiment: maintenance-round intervals (seconds) swept.
    maintenance_intervals: tuple[float, ...] = (2.0, 5.0, 10.0)
    #: Recovery experiment: background churn rates R layered under the
    #: chaos timeline (0.0 = faults only).
    recovery_churn_rates: tuple[float, ...] = (0.0, 0.1)
    #: Recovery experiment: probe multi-attribute queries per sample.
    num_recovery_queries: int = 10
    #: Scale experiment: populations swept on the compact array core
    #: (``repro scale``).  The paper stops at n=2048; these reach the
    #: 10^5–10^6 regime of the single-hop / ReCord literature.
    scale_sizes: tuple[int, ...] = (100_000, 250_000, 500_000, 1_000_000)
    #: Scale experiment: routed lookups measured per population point.
    scale_queries: int = 2000
    #: Scale experiment: churn events (join/leave/fail round-robin) used
    #: to measure maintenance messages per event at each point.
    scale_churn_events: int = 60
    #: Tail experiment (``repro tail``): slow-node fractions swept under
    #: the gray-failure scenario (0.0 = the healthy baseline cell).
    tail_slow_fractions: tuple[float, ...] = (0.0, 0.1)
    #: Tail experiment: measured multi-attribute queries per cell.
    tail_queries: int = 400
    #: Tail experiment: warmup queries per cell (RTT estimators learn the
    #: healthy latency picture before the measurement window opens).
    tail_warmup: int = 40
    #: Tail experiment: latency multiplier of a gray-failing node.
    tail_slow_multiplier: float = 20.0
    #: Tail experiment: probability a message touching a slow node is
    #: actually degraded (gray failures are intermittent).
    tail_intermittency: float = 0.6
    #: Tail experiment: lognormal sigma of the base latency distribution.
    tail_sigma: float = 0.35
    #: Tail experiment: p99 response-time SLO (seconds) the defended
    #: policy must meet under gray failure.
    tail_slo_p99: float = 1.5
    #: Hotspot experiment (``repro hotspot``): attribute-level Zipf
    #: exponents swept (0.0 = the paper's uniform control).
    hotspot_zipf_s: tuple[float, ...] = (0.0, 1.1)
    #: Hotspot experiment: measured multi-attribute queries per cell,
    #: split evenly into :data:`HOTSPOT_WINDOWS` load windows.
    hotspot_queries: int = 2000
    #: Hotspot experiment: salted roots per attribute (S).
    hotspot_salts: int = 4
    #: Tradeoff experiment (``repro tradeoff``): measured multi-attribute
    #: queries per overlay × budget cell.
    tradeoff_queries: int = 200
    #: Tradeoff experiment: churn events (leave/join alternating) applied
    #: before the query phase of each cell, with one budgeted maintenance
    #: round after every event.
    tradeoff_churn_events: int = 40
    #: Tradeoff experiment: ReCord per-level fan-outs swept (1 = exactly
    #: deterministic Chord, larger = closer to a full table).
    tradeoff_fanouts: tuple[int, ...] = (1, 4, 16)
    #: Install :class:`~repro.sim.invariants.ChurnGuard` on every built
    #: service, validating overlay invariants and directory conservation
    #: after each churn event (the runner's ``--invariants`` flag).
    validate_invariants: bool = False

    def __post_init__(self) -> None:
        require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        require(self.dimension >= 2, "dimension must be >= 2")
        require(self.chord_bits >= 2, "chord_bits must be >= 2")
        require(
            self.max_query_attributes <= self.num_attributes,
            "max_query_attributes cannot exceed num_attributes",
        )
        require(
            self.population <= (1 << self.chord_bits),
            f"chord_bits={self.chord_bits} cannot host {self.population} nodes",
        )
        require(
            self.hotspot_queries >= HOTSPOT_WINDOWS,
            "hotspot_queries must cover every window",
        )
        require(
            all(0.0 <= rate < 1.0 for rate in self.loss_rates),
            "every loss_rates entry must be in [0, 1)",
        )
        require(
            all(r >= 1 for r in self.availability_replications),
            "every availability_replications entry must be >= 1",
        )
        require(
            all(0.0 <= f <= 1.0 for f in self.tail_slow_fractions),
            "every tail_slow_fractions entry must be in [0, 1]",
        )
        require(
            any(f > 0.0 for f in self.tail_slow_fractions),
            "tail_slow_fractions needs an entry > 0 (the headline fraction)",
        )
        require(
            all(s >= 0.0 for s in self.hotspot_zipf_s),
            "every hotspot_zipf_s entry must be >= 0",
        )
        require(
            all(f >= 1 for f in self.tradeoff_fanouts),
            "every tradeoff_fanouts entry must be >= 1",
        )
        require(self.num_availability_queries >= 1, "num_availability_queries must be >= 1")
        require(self.tradeoff_churn_events >= 0, "tradeoff_churn_events must be >= 0")
        require(self.scale_churn_events >= 0, "scale_churn_events must be >= 0")
        require(self.tail_slo_p99 > 0.0, "tail_slo_p99 must be > 0")
        require(self.hotspot_salts >= 1, "hotspot_salts must be >= 1")
        require(self.tail_queries >= 1, "tail_queries must be >= 1")
        require(self.tradeoff_queries >= 1, "tradeoff_queries must be >= 1")
        require(self.scale_queries >= 1, "scale_queries must be >= 1")
        # The scale churn loop (join, leave, fail round-robin) nets one
        # departure per three events and cannot remove a ring's last node.
        smallest = max(3, self.scale_churn_events // 3 + 1)
        require(
            all(n >= smallest for n in self.scale_sizes),
            f"every scale_sizes entry must be >= {smallest} to survive "
            f"{self.scale_churn_events} churn events",
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def population(self) -> int:
        """n — the node population of *every* overlay, ``d * 2**d``.

        The paper uses n = 2048 for both the Cycloid and the Chord DHTs
        ("each DHT had 2048 nodes"); at paper scale the 11-bit Chord ring
        is exactly full, at other scales the ring is sparse with the same
        population so per-node averages stay comparable.
        """
        return self.dimension * (1 << self.dimension)

    def schema(self) -> AttributeSchema:
        """The attribute schema this configuration implies."""
        return AttributeSchema.synthetic(
            self.num_attributes, pareto_shape=self.pareto_shape
        )

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy with some fields replaced (for ablations and tests)."""
        return replace(self, **overrides)


#: The paper's exact evaluation parameters.
PAPER_CONFIG = ExperimentConfig()

#: Same shape, laptop-smoke scale: d=5 Cycloid (160 nodes), 256-ID Chord,
#: 20 attributes × 50 providers, fewer queries.
SMOKE_CONFIG = ExperimentConfig(
    dimension=5,
    chord_bits=8,
    num_attributes=20,
    infos_per_attribute=50,
    max_query_attributes=5,
    num_requesters=20,
    queries_per_requester=5,
    num_range_queries=100,
    num_churn_requests=300,
    churn_rates=(0.1, 0.3, 0.5),
    loss_rates=(0.0, 0.05),
    availability_replications=(1, 2),
    num_availability_queries=40,
    maintenance_intervals=(2.0, 5.0),
    recovery_churn_rates=(0.0,),
    num_recovery_queries=8,
    scale_sizes=(2048, 8192),
    scale_queries=200,
    scale_churn_events=24,
    tail_queries=120,
    tail_warmup=24,
    hotspot_queries=480,
    tradeoff_queries=60,
    tradeoff_churn_events=16,
    tradeoff_fanouts=(1, 4, 16),
)

#: Scale of ``repro check`` and ``repro trace``: big enough for a sparse
#: ring, several-hop lookups, range walks over several nodes and replica
#: repair; small enough for sub-second builds.
CHECK_CONFIG = SMOKE_CONFIG.scaled(
    dimension=4,
    chord_bits=7,
    num_attributes=8,
    infos_per_attribute=25,
    max_query_attributes=3,
)
