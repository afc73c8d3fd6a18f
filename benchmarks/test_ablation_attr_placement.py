"""Ablation — attribute placement: collision-free spread vs plain hashing.

The paper's model gives every attribute its own cluster (LORM) and its own
root node (SWORD/MAAN) — "the information is accumulated in 200 nodes
among 2048 nodes".  Plain consistent hashing of 200 attributes into 256
Cycloid clusters collides ~38% of clusters, which fattens LORM's directory
tail well past the theorems' predictions.  This ablation quantifies that
gap at paper scale, justifying the library's `spread` default
(DESIGN.md's substitution table).
"""

from __future__ import annotations

import pytest

from repro.core.lorm import LormService
from repro.experiments.common import build_workload
from repro.sim.metrics import summarize
from repro.utils.formatting import render_table


def _measure(config):
    workload = build_workload(config)
    stats = {}
    for placement in ("spread", "hash"):
        service = LormService.build_full(
            config.dimension,
            workload.schema,
            seed=config.seed,
            attr_placement=placement,
        )
        for info in workload.resource_infos():
            service.register(info, routed=False)
        stats[placement] = summarize(service.directory_sizes())
    return stats


def test_attr_placement_tail(paper_config, results_dir):
    stats = _measure(paper_config)

    d = paper_config.dimension
    table = render_table(
        ["placement", "mean", "p99", "max"],
        [
            [name, s.mean, s.p99, s.maximum]
            for name, s in stats.items()
        ],
        title="Ablation: LORM attribute placement (paper scale)",
    )
    (results_dir / "ablation_attr_placement.txt").write_text(
        table + f"\nk/d (one attribute per cluster, uniform values) = "
        f"{paper_config.infos_per_attribute / d:.1f}\n"
    )

    # Means are identical (same total info, same node count)...
    assert stats["hash"].mean == pytest.approx(stats["spread"].mean, rel=1e-9)
    # ...but hashing collisions fatten the tail by ~2x or more: colliding
    # clusters carry 2-3 attributes' worth of pieces.
    assert stats["hash"].p99 > 1.8 * stats["spread"].p99
    assert stats["hash"].maximum > 1.8 * stats["spread"].maximum
    # Spread placement keeps the paper's "slightly above analysis" regime.
    k_over_d = paper_config.infos_per_attribute / d
    assert stats["spread"].p99 < 1.6 * k_over_d
