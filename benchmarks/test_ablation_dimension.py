"""Ablation — Cycloid dimension d (DESIGN.md §4, choice 2).

d controls LORM's central trade-off: lookup cost and range-walk length grow
with d (hops ~ d, walk ~ 1 + d/4) while per-node directory load shrinks
(~k/d per cluster member) and the SWORD-relative reduction improves
(Theorem 4.4's factor d).  This bench sweeps d and records both sides.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import theorems
from repro.core.lorm import LormService
from repro.sim.metrics import summarize
from repro.utils.formatting import render_table
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind

DIMS = (4, 5, 6, 7, 8)


def _sweep():
    schema = AttributeSchema.synthetic(16)  # must fit the smallest 2**d cluster space
    rows = []
    for d in DIMS:
        service = LormService.build_full(d, schema, seed=100 + d)
        wl = GridWorkload(schema, infos_per_attribute=96, seed=200 + d)
        for info in wl.resource_infos():
            service.register(info, routed=False)
        point_queries = list(wl.query_stream(300, 1, QueryKind.POINT, label=f"d{d}"))
        hops = float(np.mean([service.multi_query(q).total_hops for q in point_queries]))
        service.collect_matches = False
        range_queries = list(wl.query_stream(300, 1, QueryKind.RANGE, label=f"dr{d}"))
        visited = float(
            np.mean([service.multi_query(q).total_visited for q in range_queries])
        )
        dir_stats = summarize(service.directory_sizes())
        rows.append(
            {
                "d": d,
                "nodes": service.num_nodes(),
                "hops": hops,
                "visited": visited,
                "dir_p99": dir_stats.p99,
                "outlinks": float(np.mean(service.outlink_counts())),
            }
        )
    return rows


def test_dimension_tradeoff(results_dir):
    rows = _sweep()

    table = render_table(
        ["d", "nodes", "avg hops", "avg visited", "dir p99", "outlinks"],
        [[r["d"], r["nodes"], r["hops"], r["visited"], r["dir_p99"], r["outlinks"]] for r in rows],
        title="Ablation: Cycloid dimension d (LORM)",
    )
    (results_dir / "ablation_dimension.txt").write_text(table + "\n")

    by_d = {r["d"]: r for r in rows}
    # Hop cost grows with d, tracking Theorem 4.7's d-hops model.
    assert by_d[8]["hops"] > by_d[4]["hops"]
    for d in DIMS:
        predicted = theorems.cycloid_expected_lookup_hops(d)
        assert by_d[d]["hops"] == pytest.approx(predicted, rel=0.45)
    # Range-walk cost tracks 1 + d/4 (Theorem 4.9's LORM term).
    for d in DIMS:
        assert by_d[d]["visited"] == pytest.approx(1 + d / 4, rel=0.35)
    # Directory tails shrink as clusters widen (Theorem 4.4's d-fold gain).
    assert by_d[8]["dir_p99"] < by_d[4]["dir_p99"]
    # Degree stays constant regardless of d.
    assert all(r["outlinks"] <= 7.0 for r in rows)
