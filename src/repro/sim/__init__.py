"""Discrete-event simulation substrate.

The paper's evaluation is a discrete-event simulation of DHT overlays; this
package rebuilds that substrate: a deterministic event engine
(:mod:`~repro.sim.engine`), message/hop accounting
(:mod:`~repro.sim.network`), the Poisson churn process of Section V-C
(:mod:`~repro.sim.churn`) and metric collection with the 1st/99th-percentile
summaries used throughout Figure 3 (:mod:`~repro.sim.metrics`).

Robustness extensions past the paper: fault injection
(:mod:`~repro.sim.faults`), declarative chaos timelines
(:mod:`~repro.sim.chaos`), budgeted self-healing maintenance
(:mod:`~repro.sim.maintenance`), recovery-time SLO metrics
(:mod:`~repro.sim.recovery`) and pluggable durability policies —
placement × replication/erasure redundancy (:mod:`~repro.sim.durability`).
"""

from repro.sim.chaos import (
    CRASH_STORM_SCENARIO,
    DEMO_SCENARIO,
    ChaosScenario,
    CrashBurst,
    NodeFlap,
    PartitionWindow,
)
from repro.sim.churn import ChurnEvent, ChurnProcess
from repro.sim.durability import (
    DEFAULT_POLICY_SPECS,
    DurabilityPolicy,
    PlacementPolicy,
    SuccessorPlacement,
    SymmetricPlacement,
    decodable_level,
    erasure_code,
    parse_policy,
    successor_replication,
    symmetric_replication,
)
from repro.sim.engine import Event, Simulator
from repro.sim.faults import (
    ADAPTIVE_POLICY,
    DEFAULT_POLICY,
    HEDGED_POLICY,
    NO_RETRY_POLICY,
    ArcPartition,
    FaultInjector,
    FaultPlan,
    LookupPolicy,
)
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LognormalLatency,
    RttBook,
    RttEstimator,
    critical_path_latency,
)
from repro.sim.invariants import (
    ChurnGuard,
    InvariantViolation,
    check_overlay,
    check_replica_placement,
    directory_census,
    install_churn_guards,
)
from repro.sim.loadstats import (
    LoadStats,
    LoadWindow,
    gini,
    load_histogram,
    max_mean_ratio,
    top_share,
)
from repro.sim.maintenance import (
    DEFAULT_BUDGET,
    UNLIMITED_BUDGET,
    ZERO_BUDGET,
    MaintenanceBudget,
    MaintenanceReport,
    MaintenanceRound,
    MaintenanceScheduler,
    RepairProgress,
)
from repro.sim.metrics import MetricsRegistry, SummaryStats, summarize
from repro.sim.network import MessageStats, SimulatedNetwork, publish_stats
from repro.sim.recovery import RecoverySample, RecoveryTracker, replica_deficit

__all__ = [
    "ADAPTIVE_POLICY",
    "ArcPartition",
    "ChaosScenario",
    "ChurnEvent",
    "ChurnGuard",
    "ChurnProcess",
    "ConstantLatency",
    "CrashBurst",
    "check_overlay",
    "check_replica_placement",
    "critical_path_latency",
    "CRASH_STORM_SCENARIO",
    "DEFAULT_BUDGET",
    "DEFAULT_POLICY",
    "DEFAULT_POLICY_SPECS",
    "DEMO_SCENARIO",
    "decodable_level",
    "directory_census",
    "DurabilityPolicy",
    "erasure_code",
    "Event",
    "FaultInjector",
    "FaultPlan",
    "HEDGED_POLICY",
    "install_churn_guards",
    "InvariantViolation",
    "gini",
    "LatencyModel",
    "load_histogram",
    "LoadStats",
    "LoadWindow",
    "LognormalLatency",
    "LookupPolicy",
    "max_mean_ratio",
    "MaintenanceBudget",
    "MaintenanceReport",
    "MaintenanceRound",
    "MaintenanceScheduler",
    "MessageStats",
    "MetricsRegistry",
    "NO_RETRY_POLICY",
    "NodeFlap",
    "parse_policy",
    "PartitionWindow",
    "PlacementPolicy",
    "publish_stats",
    "RecoverySample",
    "RecoveryTracker",
    "RepairProgress",
    "replica_deficit",
    "RttBook",
    "RttEstimator",
    "SimulatedNetwork",
    "Simulator",
    "SuccessorPlacement",
    "successor_replication",
    "SummaryStats",
    "summarize",
    "SymmetricPlacement",
    "symmetric_replication",
    "top_share",
    "UNLIMITED_BUDGET",
    "ZERO_BUDGET",
]
