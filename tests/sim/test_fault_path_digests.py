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
partition, and the loss-only loop (no latency model).  The ``inactive``
cell attaches an injector that can neither drop nor slow a message, under
a latency model: every route must stay on the fault-free paths, so its
digests are those of the same run with no injector attached.

``SENDER_PLANTS`` plants one sender bug per row and requires the named
pin, one digest cell (or the traced drop reconcile of
``tests/obs/test_fault_traces.py``), to catch it.
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

import repro.sim.network as network_module
from repro.experiments.common import build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.overlay.base import Overlay
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
from repro.sim.network import SimulatedNetwork
from repro.workloads.generator import QueryKind
from tests.obs.test_fault_traces import traced_drops

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
    "inactive": (HEDGED_POLICY, 0.0, False, False, True, ()),
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
    "inactive/lorm": "f05b9c6895283a1ac0cf11f1daf948f3478ba41b112881fc23dead20c0d640db",
    "inactive/sword": "6a5d2c02a4131ef0c6156300886966799b0f32925600cb4baeca3d0197131849",
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


def _pinned(system: str, cell: str | None = None) -> None:
    if cell is None:
        assert _run(system) == _DIGESTS[system], f"{system} digest"
    else:
        assert _run(system, cell) == _CELL_DIGESTS[f"{cell}/{system}"], f"{cell} digest"


def _drops_traced() -> None:
    drops, _, timeouts, _ = traced_drops(seed=3)
    assert drops == timeouts, "drop events"


#: The indentation of the timed loop's attempt body and of its late path.
_DROP, _LATE = "\n" + " " * 24, "\n" + " " * 20

#: ``(id, (target, function, edit), pin)``: the plant (see the ``plant``
#: fixture) and the pin that must fail under it.
SENDER_PLANTS = [
    # Historical: a dropped message was not counted in ``messages``.
    ("dropped-message-conservation",
     (SimulatedNetwork, "try_deliver", [("self.stats.messages += 1", "pass")]),
     partial(_pinned, "sword", "fixed-loss")),
    ("karn-rule-off", (network_module, "_timed_sender", [("if sample <= timeout:", "if True:")]),
     partial(_pinned, "sword")),
    ("hedge-winner-learns-delayed-rtt", (network_module, "_timed_sender", [
        ("response, sample = backup, backup_rtt", "response = sample = backup"),
    ]), partial(_pinned, "sword")),
    ("no-backoff", (network_module, "_timed_sender", [("elapsed += backoff_for(attempt)", "pass")]),
     partial(_pinned, "sword", "fixed-loss")),
    ("loss-only-retries-uncounted",
     (network_module, "_loss_only_sender", [("stats.retries += 1", "pass")]),
     partial(_pinned, "sword", "loss-only")),
    ("timeouts-uncounted", (network_module, "_timed_sender", [
        (f"stats.timeouts += 1{_DROP}elapsed += timeout", "elapsed += timeout"),
        (f"stats.timeouts += 1{_LATE}elapsed += window", "elapsed += window"),
    ]), partial(_pinned, "sword", "fixed-loss")),
    ("drop-untraced", (network_module, "_timed_sender", [
        (f"elapsed += timeout{_DROP}if on_drop is not None:",
         f"elapsed += timeout{_DROP}if False:"),
    ]), _drops_traced),
    ("late-loss-untraced", (network_module, "_timed_sender", [
        (f"elapsed += window{_LATE}if on_drop is not None:", f"elapsed += window{_LATE}if False:"),
    ]), _drops_traced),
    # Historical: range walks took a sender without the tracer's hooks.
    ("walk-sender-untraced",
     (Overlay, "_walk_sender", [("if tracer is None:", "if True:")]), _drops_traced),
    # Historical: an injector that could neither drop nor slow a message
    # read as active, forcing every route onto the fault path.
    ("inactive-injector-active", (FaultInjector, "active", [
        ("return self._loss_rate > 0.0 or", "return True or"),
    ]), partial(_pinned, "sword", "inactive")),
]


@pytest.mark.parametrize(
    "edit, pin", [row[1:] for row in SENDER_PLANTS], ids=[row[0] for row in SENDER_PLANTS]
)
def test_sender_plant_is_caught(edit, pin, plant):
    plant(*edit)
    with pytest.raises(AssertionError):
        pin()


if __name__ == "__main__":
    for system in _SYSTEMS:
        print(f'    "{system}": "{_run(system)}",')
    print()
    for cell in _CELLS:
        for system in _SYSTEMS:
            print(f'    "{cell}/{system}": "{_run(system, cell)}",')
