"""The bulk load is the per-info load, observably.

``register_all(infos)`` hands the overlay one placement
stream (``Overlay.store_all``) instead of calling ``register`` per info.
Twins loaded the two ways must agree on every node's directory *as
stored* — namespace order, key order, bucket order
(:func:`~repro.sim.invariants.directory_layout`), not set equality: churn
handover and repair iterate those dicts — and on the message counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.hotspot import SaltPlan
from repro.experiments.common import SYSTEM_NAMES, build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.sim.durability import DEFAULT_POLICY_SPECS, parse_policy, successor_replication
from repro.sim.invariants import directory_layout
from repro.workloads.generator import QueryKind

WORKLOAD = build_workload(SMOKE_CONFIG)
INFOS = tuple(WORKLOAD.resource_infos())

#: Copies per key: plain successor replication, then the durability sweep's
#: policies (symmetric placement and erasure coding included).
REDUNDANCY = [
    pytest.param({"durability": successor_replication(r)}, id=str(r)) for r in (1, 2, 3)
] + [{"durability": parse_policy(spec)} for spec in DEFAULT_POLICY_SPECS]
#: ``None`` is each system's native substrate (Cycloid under LORM); on a
#: ring tier LORM runs flat.
OVERLAYS = (None, "chord", "singlehop", "record")


def _twins(system: str, **kwargs):
    return tuple(
        build_service(SMOKE_CONFIG, system, workload=WORKLOAD, register=False, **kwargs)
        for _ in range(2)
    )


def _assert_same_state(one, other) -> None:
    assert directory_layout(one.overlay) == directory_layout(other.overlay)
    assert one.overlay.network.stats == other.overlay.network.stats


def _label(value) -> str:
    if isinstance(value, dict):
        (value,) = value.values()
    return str(getattr(value, "name", value))


@pytest.mark.parametrize("overlay", OVERLAYS, ids=_label)
@pytest.mark.parametrize("redundancy", REDUNDANCY, ids=_label)
@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_bulk_load_equals_per_info_load(system, redundancy, overlay):
    per_info, bulk = _twins(system, overlay=overlay, **redundancy)
    for info in INFOS:
        per_info.register(info, routed=False)
    bulk.register_all(INFOS)
    _assert_same_state(per_info, bulk)


@pytest.mark.parametrize("replication", (1, 2))
@pytest.mark.parametrize("system", ("SWORD", "MAAN"))
def test_bulk_load_equals_per_info_load_under_salting(system, replication):
    per_info, bulk = _twins(
        system, salting=SaltPlan(salts=3), durability=successor_replication(replication)
    )
    for info in INFOS:
        per_info.register(info, routed=False)
    bulk.register_all(INFOS)
    _assert_same_state(per_info, bulk)


@pytest.mark.parametrize("system", ("Mercury", "SWORD", "MAAN"))
def test_bulk_load_onto_live_views_and_arc_index(system):
    """Load, query a range and a point, load more: the second load runs
    against built ``_views`` (SWORD's and MAAN's ordered reads) and an
    indexed arc directory (Mercury's and MAAN's range walks), and must
    flush the one and post to the other as ``OverlayNode.store`` does."""
    per_info, bulk = _twins(system, durability=successor_replication(2))
    half = len(INFOS) // 2
    queries = [
        *WORKLOAD.query_stream(6, 2, QueryKind.RANGE, label="bulk-range"),
        *WORKLOAD.query_stream(6, 2, QueryKind.POINT, label="bulk-point"),
    ]

    def answers(service) -> list:
        return [
            dataclasses.astuple(service.multi_query(q, service.overlay.node(start)))
            for q, start in zip(queries, service.overlay.node_ids)
        ]

    for service in (per_info, bulk):
        service.register_all(INFOS[:half])
    assert answers(per_info) == answers(bulk)
    # The branches this test is for are live:
    if system != "Mercury":
        assert any(node._views for node in bulk.overlay.nodes())
    if system != "SWORD":
        assert bulk.overlay._arcs

    for info in INFOS[half:]:
        per_info.register(info, routed=False)
    bulk.register_all(INFOS[half:])

    _assert_same_state(per_info, bulk)
    assert per_info.overlay._arcs == bulk.overlay._arcs
    for one, other in zip(per_info.overlay.nodes(), bulk.overlay.nodes()):
        assert one._views == other._views
    assert answers(per_info) == answers(bulk)


def test_routed_or_traced_register_all_stays_the_per_info_loop(monkeypatch):
    """A routed load (``register`` per info) pays the lookups and a
    traced ``register_all`` shows one span per info: neither goes through
    ``store_all``."""
    from repro.obs import QueryTracer
    from repro.overlay.base import Overlay

    monkeypatch.delattr(Overlay, "store_all")
    routed, traced = _twins("SWORD")
    assert sum(map(routed.register, INFOS[:40])) > 0
    tracer = QueryTracer()
    traced.attach_tracer(tracer)
    traced.register_all(INFOS[:40])
    assert len(tracer.traces) == 40


def test_store_all_counts_what_it_stored_when_the_stream_raises():
    service, reference = _twins("MAAN", durability=successor_replication(2))
    unknown = dataclasses.replace(INFOS[0], attribute="no-such-attribute")
    with pytest.raises(KeyError):
        service.register_all([*INFOS[:10], unknown])
    for info in INFOS[:10]:
        reference.register(info, routed=False)
    _assert_same_state(reference, service)
