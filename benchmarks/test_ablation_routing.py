"""Ablation — Cycloid routing discipline: adaptive-descend vs MSB-first.

The Cycloid paper routes MSB-first (ascend to the most significant
differing bit, then descend); this library's default descends immediately,
fixing whichever bit the current level governs — no ascending phase.  Both
land on the correct owner; the ablation quantifies the path-length cost of
the classical discipline at paper scale (~2.2 extra hops at d=8), which is
why the adaptive default measures so close to Theorem 4.7's d-hops model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.utils.formatting import render_table
from repro.utils.seeding import SeedFactory


def _measure():
    results = {}
    rng = SeedFactory(7).python("routing-ablation")
    targets = [
        (rng.randrange(2048), CycloidId(rng.randrange(8), rng.randrange(256)))
        for _ in range(3000)
    ]
    for mode in ("adaptive", "msb"):
        overlay = CycloidOverlay(8, routing_mode=mode)
        overlay.build_full()
        ids = overlay.node_ids
        hops = []
        for start_idx, target in targets:
            start = overlay.node(ids[start_idx])
            result = overlay.lookup(start, target)
            assert result.owner is overlay.closest_node(target)
            hops.append(result.hops)
        results[mode] = {
            "mean": float(np.mean(hops)),
            "p99": float(np.percentile(hops, 99)),
            "max": float(np.max(hops)),
        }
    return results


def test_routing_mode_ablation(results_dir):
    results = _measure()

    table = render_table(
        ["mode", "mean hops", "p99", "max"],
        [[m, r["mean"], r["p99"], r["max"]] for m, r in results.items()],
        title="Ablation: Cycloid routing discipline (d=8, full overlay)",
    )
    (results_dir / "ablation_routing.txt").write_text(table + "\n")

    adaptive, msb = results["adaptive"], results["msb"]
    # Both are O(d); MSB-first pays the ascending phase.
    assert adaptive["mean"] < msb["mean"]
    assert msb["mean"] - adaptive["mean"] > 1.0
    # The adaptive default sits near the d-hops model of Theorem 4.7.
    assert adaptive["mean"] == pytest.approx(8.0, rel=0.2)
    # Worst cases stay bounded for both.
    assert adaptive["max"] <= 2 * 8
    assert msb["max"] <= 3 * 8
