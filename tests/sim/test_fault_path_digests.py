"""The latency-aware fault path, pinned query by query.

``tests/obs/test_golden_traces.py`` replays fault-free and lossy runs; no
oracle there covers the requester clock of the timed delivery loop
(``SimulatedNetwork.sender``) — adaptive timeouts, hedges and the RTT
estimators they read.  The digests below were recorded *before* the
estimator's quantile stopped calling ``np.quantile``, on the
``degraded-tail`` cell of the end-to-end benchmark at smoke scale: 10%
gray nodes (x20, intermittency 0.6), ``LognormalLatency(sigma=0.35)``,
``HEDGED_POLICY``, 3-attribute range queries from random requesters.

Each digest is a sha256 over every query's sorted providers and each
sub-result's ``(hops, retries, repr(latency))``, then the network's
``MessageStats``.  A hedge that fires at a different instant, a timeout
one ulp off or a different sample fed to an estimator moves some latency
or counter, and so the digest: the delivery loop may get faster, never
different.  To re-record after an *intended* change, run this file as a
script (``PYTHONPATH=src python tests/sim/test_fault_path_digests.py``)
and paste the printed table.

That cell is pure fail-slow: it never drops a message.  The ``_CELLS``
digests pin the branches it never takes, recorded before the delivery
loops became per-route senders: drops under the hedged policy (10% loss),
adaptive timeouts without hedging on gray nodes, the fixed-timeout policy
with exponential backoff under loss, the hedged policy across an armed
partition, and the loss-only loop (no latency model).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.common import build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.sim.chaos import slow_victims
from repro.sim.faults import (
    ADAPTIVE_POLICY,
    DEFAULT_POLICY,
    HEDGED_POLICY,
    ArcPartition,
    FaultInjector,
    FaultPlan,
)
from repro.sim.invariants import overlay_of
from repro.sim.latency import LognormalLatency
from repro.workloads.generator import QueryKind

_SYSTEMS = ("lorm", "sword")
_SEED = 1
_QUERIES = 200

_DIGESTS: dict[str, str] = {
    "lorm": "851defa7f253e9cc2908230d8ebd66f09d3d7a78b0f8279c915bba0c7afc2a15",
    "sword": "ebd4edc19b4ae5438067e8c77a0e0a5fd4030e650f2812ae77b3be64efb2019a",
}


#: cell -> (policy, loss rate, gray nodes, armed partition, latency model,
#: the ``MessageStats`` counters the cell must move).
_CELLS = {
    "hedged-loss": (HEDGED_POLICY, 0.1, False, False, True, ("dropped", "hedges")),
    "adaptive-gray": (ADAPTIVE_POLICY, 0.0, True, False, True, ("timeouts", "retries")),
    "fixed-loss": (DEFAULT_POLICY, 0.1, False, False, True, ("dropped", "retries")),
    "hedged-partition": (HEDGED_POLICY, 0.0, True, True, True, ("dropped", "hedges")),
    "loss-only": (DEFAULT_POLICY, 0.1, False, False, False, ("dropped", "retries")),
}

_CELL_DIGESTS: dict[str, str] = {
    "hedged-loss/lorm": "b70783593be7893a367e90fa233aa5eb96c8679f1cca81bbd0491ab9417e54d4",
    "hedged-loss/sword": "891343dd4b10457d1abc7c62f0daee0592b77b0e6caa59c4844592e7610b6e63",
    "adaptive-gray/lorm": "dd757057d7eb1af1de0d78116dec04566c466a1ea85cf73b5a2bf3892d570c2a",
    "adaptive-gray/sword": "68172e775f35a7aa6cb2431272879f9cacea50401b2889b6078a9694b3353b8a",
    "fixed-loss/lorm": "a9c5bec63cd2e0f03ce087e326343e0e9a736da9e280d9be1cbd9a2d268f22a5",
    "fixed-loss/sword": "a6d53aae3d2faecebca9f41dc1c99a24828cb276069d40ba079cf79e5e64867c",
    "hedged-partition/lorm": "e701f21aef88c7ef758a12b784626376e9d6a99fb7ce9e1b4b690685560a4230",
    "hedged-partition/sword": "5784db0a7f69c5093d56d65e2fa07805f2776b26108ed599cfd515f39cf370db",
    "loss-only/lorm": "980cec21ef6fde50aca8c4831bd77a155f4178c2c70529dafd6ebd11f4f72458",
    "loss-only/sword": "9ca9c3459cf13d525e2e5f19ac6161576f9771571c4443e83e437a46798b42e8",
}


def _run(system: str, cell: str | None = None) -> str:
    policy, loss, gray, partition, timed, moved = (
        (HEDGED_POLICY, 0.0, True, False, True, ("hedges", "timeouts"))
        if cell is None
        else _CELLS[cell]
    )
    config = SMOKE_CONFIG.scaled(seed=_SEED)
    workload = build_workload(config)
    service = build_service(config, system, workload=workload)
    overlay = overlay_of(service)
    lane_seed = _SEED * 2 + _SYSTEMS.index(system)
    injector = FaultInjector(FaultPlan(loss_rate=loss, seed=lane_seed))
    if gray:
        for victim in slow_victims(overlay, 0.1):
            injector.mark_slow(
                victim, config.tail_slow_multiplier, config.tail_intermittency
            )
    if partition:
        size = overlay.id_space_size
        injector.arm_partition(ArcPartition(size // 8, size // 8 + size // 4, size))
    service.configure_faults(injector, policy)
    if timed:
        service.configure_latency(
            LognormalLatency(
                median=overlay.network.hop_latency, sigma=config.tail_sigma, seed=lane_seed
            )
        )
    digest = hashlib.sha256()
    for query in workload.query_stream(_QUERIES, 3, QueryKind.RANGE, label="fault-path"):
        result = service.multi_query(query, service.random_node())
        record = (
            sorted(result.providers),
            [(r.hops, r.retries, repr(r.latency)) for r in result.sub_results],
        )
        digest.update(repr(record).encode())
    stats = overlay.network.stats
    for counter in moved:
        assert getattr(stats, counter), f"the cell must exercise {counter}"
    digest.update(repr(stats.as_dict()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("system", _SYSTEMS)
def test_fault_path_matches_the_digest_recorded_before_the_rewrite(system):
    assert _run(system) == _DIGESTS[system]


@pytest.mark.parametrize("cell", _CELLS)
@pytest.mark.parametrize("system", _SYSTEMS)
def test_untaken_branches_match_the_digest_recorded_before_the_sender(system, cell):
    assert _run(system, cell) == _CELL_DIGESTS[f"{cell}/{system}"]


if __name__ == "__main__":
    for system in _SYSTEMS:
        print(f'    "{system}": "{_run(system)}",')
    print()
    for cell in _CELLS:
        for system in _SYSTEMS:
            print(f'    "{cell}/{system}": "{_run(system, cell)}",')
