"""The bulk load at paper scale: 100,000 infos on four systems.

``tests/properties/test_service_machine.py`` holds the bulk path to the
per-info one after every rule on a tiny ring; this is the same check
on the load every paper-scale figure starts from — ``build_services`` at
``PAPER_CONFIG`` against a per-info ``register`` loop, every node's
directory compared as stored (namespace, key and bucket order) and the
message counts with it.  At this scale the shapes the smoke workload
cannot reach are all present: full rings, 200 interleaved hubs on one
node, SWORD roots of 500 items, ~2,000 distinct key ids per overlay.
"""

from __future__ import annotations

from repro.experiments.common import build_services
from repro.sim.durability import successor_replication
from repro.sim.invariants import directory_layout


def test_bulk_load_equals_per_info_load_at_paper_scale(paper_config):
    bulk = build_services(paper_config, durability=successor_replication(2))
    per_info = build_services(
        paper_config, durability=successor_replication(2), register=False
    )
    for info in per_info.workload.resource_infos():
        for service in per_info.all():
            service.register(info, routed=False)
    for one, other in zip(per_info.all(), bulk.all()):
        assert directory_layout(one.overlay) == directory_layout(other.overlay), one.name
        assert one.overlay.network.stats == other.overlay.network.stats, one.name
