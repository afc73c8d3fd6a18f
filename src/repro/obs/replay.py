"""Seeded query replay with tracing on — the engine behind ``repro trace``.

Builds *one* discovery system at a small deterministic scale
(:data:`~repro.experiments.config.CHECK_CONFIG`, the differential
harness's),
loads the seeded workload with direct (unrouted) placement, attaches a
:class:`~repro.obs.spans.QueryTracer`, and replays a deterministic
multi-attribute query stream.  Everything downstream of the seed is pure,
so two replays produce identical span trees — the property the golden
traces and the CI byte-identity check rely on.
"""

from __future__ import annotations

from repro.experiments.common import SYSTEM_NAMES, build_service, build_workload
from repro.experiments.config import CHECK_CONFIG, ExperimentConfig
from repro.obs.spans import QueryTracer
from repro.workloads.generator import GridWorkload, QueryKind

__all__ = ["SYSTEMS", "build_traced_service", "replay_queries"]

#: The ``repro trace --system`` slugs.
SYSTEMS = tuple(name.lower() for name in SYSTEM_NAMES)


def build_traced_service(
    system: str,
    config: ExperimentConfig,
    *,
    overlay: str | None = None,
    fanout: int = 2,
) -> tuple:
    """Build one system, load the workload (unrouted), attach a tracer.

    Registration happens *before* the tracer attaches, so the returned
    tracer holds query spans only.  ``overlay``/``fanout`` select the
    routing substrate exactly as in
    :func:`repro.experiments.common.build_service` — ``None`` keeps the
    system's native substrate, byte-identical to earlier releases.
    Returns ``(service, workload, tracer)``.
    """
    workload: GridWorkload = build_workload(config)
    service = build_service(config, system, workload=workload, overlay=overlay, fanout=fanout)
    tracer = QueryTracer()
    service.attach_tracer(tracer)
    return service, workload, tracer


def replay_queries(
    system: str,
    *,
    seed: int = 0,
    num_queries: int = 1,
    num_attributes: int = 2,
    kind: QueryKind = QueryKind.RANGE,
    loss: float = 0.0,
    overlay: str | None = None,
    fanout: int = 2,
) -> tuple:
    """Replay a seeded multi-attribute query stream with tracing on.

    ``loss > 0`` arms a seeded :class:`~repro.sim.faults.FaultInjector`
    first, so the resulting spans carry drop/retry/timeout/failover
    annotations.  ``overlay``/``fanout`` pick the routing substrate
    (``None`` = native).  Returns ``(service, traces)`` — one
    :class:`~repro.obs.spans.QueryTrace` per query, in stream order.
    """
    config = CHECK_CONFIG.scaled(seed=seed)
    service, workload, tracer = build_traced_service(
        system, config, overlay=overlay, fanout=fanout
    )
    if loss:
        from repro.sim.faults import FaultInjector, FaultPlan

        service.configure_faults(FaultInjector(FaultPlan(loss_rate=loss, seed=config.seed)))
    for mq in workload.query_stream(num_queries, num_attributes, kind, label="trace"):
        service.multi_query(mq)
    return service, list(tracer.traces)
