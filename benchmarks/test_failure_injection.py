"""Failure injection — data availability under crashes vs replication.

Extends the paper's graceful-churn study (Section V-C) with *crash*
failures: nodes vanish without handing off their directories.  Sweeps the
replication factor r and measures, after a crash storm with periodic
replica repair, the fraction of queries still answered completely —
r = 1 loses data, r >= 2 keeps availability at 100% for single failures
between repairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lorm import LormService
from repro.sim.durability import successor_replication
from repro.utils.formatting import render_table
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind

REPLICATION_FACTORS = (1, 2, 3)
CRASHES = 40
REPAIR_EVERY = 5


def _availability(replication: int) -> dict[str, float]:
    schema = AttributeSchema.synthetic(16)
    service = LormService.build_full(
        6, schema, seed=50 + replication, durability=successor_replication(replication)
    )
    wl = GridWorkload(schema, infos_per_attribute=64, seed=60)
    for info in wl.resource_infos():
        service.register(info, routed=False)

    queries = list(wl.query_stream(120, 2, QueryKind.RANGE, label=f"fail-r{replication}"))
    complete = 0
    for i in range(CRASHES):
        service.churn_fail()
        if (i + 1) % REPAIR_EVERY == 0:
            service.overlay.repair_replication()
            service.stabilize()
    service.overlay.repair_replication()
    service.stabilize()
    for query in queries:
        got = service.multi_query(query).providers
        truth = wl.matching_providers_bruteforce(query)
        if got == truth:
            complete += 1
    surviving = sum(service.directory_sizes()) / replication
    return {
        "replication": replication,
        "complete_fraction": complete / len(queries),
        "surviving_fraction": surviving / wl.total_info_pieces(),
        "nodes_left": service.num_nodes(),
    }


@pytest.fixture(scope="module")
def sweep():
    return [_availability(r) for r in REPLICATION_FACTORS]


def test_failure_injection(sweep, results_dir):
    table = render_table(
        ["replication", "queries complete", "infos surviving", "nodes left"],
        [
            [r["replication"], r["complete_fraction"], r["surviving_fraction"], r["nodes_left"]]
            for r in sweep
        ],
        title=f"Failure injection: {CRASHES} crashes, repair every {REPAIR_EVERY}",
    )
    (results_dir / "failure_injection.txt").write_text(table + "\n")

    by_r = {r["replication"]: r for r in sweep}
    # Without replication a crash storm visibly loses data and answers.
    assert by_r[1]["surviving_fraction"] < 1.0
    assert by_r[1]["complete_fraction"] < 1.0
    # With replication >= 2 and periodic repair, nothing is lost.
    for r in (2, 3):
        assert by_r[r]["surviving_fraction"] == pytest.approx(1.0)
        assert by_r[r]["complete_fraction"] == 1.0
    # Availability is monotone in the replication factor.
    fractions = [by_r[r]["complete_fraction"] for r in REPLICATION_FACTORS]
    assert fractions == sorted(fractions)


def test_crash_storm_never_breaks_routing(sweep):
    """Whatever happens to the data, lookups must keep terminating on the
    correct owner (routing state repairs are independent of replication)."""
    schema = AttributeSchema.synthetic(8)
    service = LormService.build_full(5, schema, seed=99)
    rng = np.random.default_rng(1)
    for _ in range(50):
        service.churn_fail()
    ids = service.overlay.node_ids
    for _ in range(200):
        start = service.overlay.node(ids[int(rng.integers(len(ids)))])
        from repro.overlay.cycloid import CycloidId

        target = CycloidId(int(rng.integers(5)), int(rng.integers(32)))
        result = service.overlay.lookup(start, target)
        assert result.owner is service.overlay.closest_node(target)
