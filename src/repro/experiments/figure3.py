"""Figure 3 — maintenance overhead in the four approaches.

* 3(a): outlinks maintained per node versus network size — Mercury,
  "Analysis>LORM" (Mercury's measured curve divided by m, Theorem 4.1), and
  LORM.
* 3(b): directory-size mean and 1st/99th percentiles — MAAN vs LORM, with
  analysis rows derived from MAAN's measurements via Theorems 4.2/4.3.
* 3(c): SWORD vs LORM (Theorems 4.2/4.4).
* 3(d): Mercury vs LORM (Theorems 4.2/4.5).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis import theorems
from repro.analysis.models import AnalysisCurve, derive_curve
from repro.experiments.common import build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import DistributionResult, FigureResult
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidOverlay
from repro.sim.metrics import summarize
from repro.utils.seeding import SeedFactory

__all__ = ["run_fig3a", "run_fig3bcd"]

#: Network sizes (Cycloid dimensions) swept in Figure 3(a).
FIG3A_DIMENSIONS = (5, 6, 7, 8, 9)


def run_fig3a(config: ExperimentConfig) -> FigureResult:
    """Outlinks per node vs network size (Figure 3(a)).

    Sweeps the Cycloid dimensions :data:`FIG3A_DIMENSIONS`; for each,
    the Chord/Mercury comparison point uses the same population placed on a
    ``ceil(log2 n)``-bit ring.  Mercury's per-node outlinks are the per-hub
    routing table times the m hubs each node participates in.
    """
    m = config.num_attributes
    seeds = SeedFactory(config.seed).fork("fig3a")
    xs: list[float] = []
    mercury_y: list[float] = []
    lorm_y: list[float] = []
    for d in FIG3A_DIMENSIONS:
        n = d * (1 << d)
        xs.append(float(n))

        overlay = CycloidOverlay(d)
        overlay.build_full()
        lorm_y.append(float(np.mean(overlay.outlink_counts())))

        bits = max(2, math.ceil(math.log2(n)))
        ring = ChordRing(bits)
        if n >= (1 << bits):
            ring.build_full()
        else:
            rng = seeds.numpy(f"chord-members:{d}")
            ids = rng.choice(1 << bits, size=n, replace=False)
            ring.build(int(i) for i in ids)
        per_hub = float(np.mean(ring.outlink_counts()))
        mercury_y.append(m * per_hub)

    mercury = AnalysisCurve("Mercury", tuple(xs), tuple(mercury_y))
    result = FigureResult(
        figure_id="fig3a",
        title="Outlinks per node vs network size",
        x_label="network size (nodes)",
        y_label="outlinks per node",
        log_y=True,
    )
    result.add(mercury)
    result.add(derive_curve("Analysis>LORM", mercury, divide_by=float(m)))
    result.add(AnalysisCurve("LORM", tuple(xs), tuple(lorm_y)))
    result.notes.append(
        f"m={m} attribute hubs; LORM keeps a constant-degree (<=7) table "
        f"(Theorem 4.1: LORM saves >= m times Mercury's structure overhead)"
    )
    return result


def _fig3b(config: ExperimentConfig, stats: dict) -> DistributionResult:
    """Directory sizes: MAAN vs LORM (Figure 3(b))."""
    n, m, d = config.population, config.num_attributes, config.dimension
    pct_factor = theorems.thm43_directory_reduction_vs_maan(n, m, d)
    avg_factor = theorems.thm42_total_info_ratio_maan()

    result = DistributionResult(
        figure_id="fig3b",
        title="Directory size per node: MAAN vs LORM",
        value_label="pieces",
    )
    result.add_summary("MAAN", stats["MAAN"])
    result.add_summary("LORM", stats["LORM"])
    maan = stats["MAAN"]
    result.add(
        "Analysis-LORM",
        maan.mean / avg_factor,  # Theorem 4.2: averages differ by 2x
        maan.p01 / pct_factor,  # Theorem 4.3: percentiles by d(1+m/n)
        maan.p99 / pct_factor,
    )
    result.notes.append(
        f"analysis: avg = MAAN/2 (Thm 4.2); percentiles = MAAN/{pct_factor:.2f} "
        f"= d(1+m/n) (Thm 4.3)"
    )
    return result


def _fig3c(config: ExperimentConfig, stats: dict) -> DistributionResult:
    """Directory sizes: SWORD vs LORM (Figure 3(c))."""
    d = config.dimension

    result = DistributionResult(
        figure_id="fig3c",
        title="Directory size per node: SWORD vs LORM",
        value_label="pieces",
    )
    result.add_summary("SWORD", stats["SWORD"])
    result.add_summary("LORM", stats["LORM"])
    sword = stats["SWORD"]
    result.add(
        "Analysis-LORM",
        sword.mean,  # Theorem 4.2: same total info, same average
        sword.p01 / theorems.thm44_directory_reduction_vs_sword(d),
        sword.p99 / theorems.thm44_directory_reduction_vs_sword(d),
    )
    result.notes.append(
        f"analysis: avg = SWORD (Thm 4.2); percentiles = SWORD/d = SWORD/{d} (Thm 4.4)"
    )
    return result


def _fig3d(config: ExperimentConfig, stats: dict) -> DistributionResult:
    """Directory sizes: Mercury vs LORM (Figure 3(d))."""
    n, m, d = config.population, config.num_attributes, config.dimension
    balance = theorems.thm45_balance_ratio_mercury_vs_lorm(n, m, d)

    result = DistributionResult(
        figure_id="fig3d",
        title="Directory size per node: Mercury vs LORM",
        value_label="pieces",
    )
    result.add_summary("Mercury", stats["Mercury"])
    result.add_summary("LORM", stats["LORM"])
    mercury = stats["Mercury"]
    # Theorem 4.5: Mercury is n/(dm) times more balanced, so the analysis
    # prediction for LORM widens Mercury's percentile band by that factor
    # (p01 scaled down, p99 scaled up) around the equal average (Thm 4.2).
    result.add(
        "Analysis-LORM",
        mercury.mean,
        mercury.p01 / balance,
        mercury.p99 * balance,
    )
    result.notes.append(
        f"analysis: avg = Mercury (Thm 4.2); percentile band widened by "
        f"n/(dm) = {balance:.2f} (Thm 4.5)"
    )
    return result


def run_fig3bcd(
    config: ExperimentConfig,
) -> tuple[DistributionResult, DistributionResult, DistributionResult]:
    """The three directory-size panels from one loaded bundle's
    per-approach directory-size summaries."""
    stats = {
        service.name: summarize(service.directory_sizes())
        for service in build_services(config).all()
    }
    return _fig3b(config, stats), _fig3c(config, stats), _fig3d(config, stats)
