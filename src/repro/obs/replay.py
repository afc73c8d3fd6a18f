"""Seeded query replay with tracing on — the engine behind ``repro trace``.

Builds *one* discovery system at a small deterministic scale
(:data:`TRACE_CONFIG`, the same shape the differential harness uses),
loads the seeded workload with direct (unrouted) placement, attaches a
:class:`~repro.obs.spans.QueryTracer`, and replays a deterministic
multi-attribute query stream.  Everything downstream of the seed is pure,
so two replays produce identical span trees — the property the golden
traces and the CI byte-identity check rely on.
"""

from __future__ import annotations

from repro.baselines.maan import MaanService
from repro.baselines.mercury import MercuryService
from repro.baselines.sword import SwordService
from repro.core.lorm import LormService
from repro.experiments.common import build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG, ExperimentConfig
from repro.obs.spans import QueryTracer
from repro.utils.validation import require
from repro.workloads.generator import GridWorkload, QueryKind

__all__ = ["TRACE_CONFIG", "SYSTEMS", "build_traced_service", "replay_queries"]

#: Replay scale: small enough for sub-second builds, big enough that
#: lookups take several hops and range walks visit several nodes.
TRACE_CONFIG = SMOKE_CONFIG.scaled(
    dimension=4,
    chord_bits=7,
    num_attributes=8,
    infos_per_attribute=25,
    max_query_attributes=3,
    trace=True,
)

#: CLI system slug -> service class.
SYSTEMS = {
    "lorm": LormService,
    "mercury": MercuryService,
    "sword": SwordService,
    "maan": MaanService,
}


def build_traced_service(
    system: str,
    config: ExperimentConfig | None = None,
    *,
    tracer: QueryTracer | None = None,
    replication: int = 1,
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
    slug = system.lower()
    require(slug in SYSTEMS, f"unknown system {system!r}; pick one of {sorted(SYSTEMS)}")
    config = config if config is not None else TRACE_CONFIG
    workload: GridWorkload = build_workload(config)
    service = build_service(
        config, slug, workload=workload,
        overlay=overlay, fanout=fanout, replication=replication,
    )
    if tracer is None:
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
    config: ExperimentConfig | None = None,
    loss: float = 0.0,
    replication: int = 1,
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
    config = (config if config is not None else TRACE_CONFIG).scaled(seed=seed)
    service, workload, tracer = build_traced_service(
        system, config, replication=replication, overlay=overlay, fanout=fanout
    )
    if loss:
        from repro.sim.faults import FaultInjector, FaultPlan

        service.configure_faults(FaultInjector(FaultPlan(loss_rate=loss, seed=config.seed)))
    for mq in workload.query_stream(num_queries, num_attributes, kind, label="trace"):
        service.multi_query(mq)
    return service, list(tracer.traces)
