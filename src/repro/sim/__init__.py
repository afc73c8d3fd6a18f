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
