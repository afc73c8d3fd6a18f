"""The latency-aware fault path, pinned query by query.

``tests/obs/test_golden_traces.py`` replays fault-free and lossy runs; no
oracle there covers the requester clock of
:func:`repro.sim.faults.deliver_first` — adaptive timeouts, hedges and the
RTT estimators they read.  The digests below were recorded *before* the
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
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.common import build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.sim.chaos import slow_victims
from repro.sim.faults import HEDGED_POLICY, FaultInjector, FaultPlan
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


def _run(system: str) -> str:
    config = SMOKE_CONFIG.scaled(seed=_SEED)
    workload = build_workload(config)
    service = build_service(config, system, workload=workload)
    overlay = overlay_of(service)
    lane_seed = _SEED * 2 + _SYSTEMS.index(system)
    injector = FaultInjector(FaultPlan(seed=lane_seed))
    for victim in slow_victims(overlay, 0.1):
        injector.mark_slow(victim, config.tail_slow_multiplier, config.tail_intermittency)
    service.configure_faults(injector, HEDGED_POLICY)
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
    assert stats.hedges and stats.timeouts, "the cell must exercise hedges and timeouts"
    digest.update(repr(stats.as_dict()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("system", _SYSTEMS)
def test_fault_path_matches_the_digest_recorded_before_the_rewrite(system):
    assert _run(system) == _DIGESTS[system]


if __name__ == "__main__":
    for system in _SYSTEMS:
        print(f'    "{system}": "{_run(system)}",')
