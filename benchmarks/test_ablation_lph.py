"""Ablation — locality-preserving hash flavour (DESIGN.md §4, choice 1).

The paper funnels "value or string description" through a locality
preserving hash but does not pin down the flavour.  This ablation contrasts
the plain affine map with the CDF-calibrated variant (MAAN's *uniform* LPH)
under the paper's Bounded-Pareto values: the linear map piles resource
information into the low end of the ID space, inflating the 99th-percentile
directory size of every value-indexed approach, while the CDF variant
restores the balance the paper's Figure 3(d) shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import build_services
from repro.sim.metrics import summarize
from repro.utils.formatting import render_table


@pytest.fixture(scope="module")
def ablation_config(paper_config):
    # Quarter-scale keeps the two full service builds cheap.
    return paper_config.scaled(
        dimension=6, chord_bits=9, num_attributes=64, infos_per_attribute=128
    )


def _build_both(config):
    return {
        kind: build_services(config.scaled(lph_kind=kind))
        for kind in ("linear", "cdf")
    }


def test_lph_flavour_directory_balance(ablation_config, results_dir):
    bundles = _build_both(ablation_config)

    rows = []
    stats = {}
    for kind, bundle in bundles.items():
        for service in (bundle.mercury, bundle.lorm, bundle.maan):
            s = summarize(service.directory_sizes())
            stats[(kind, service.name)] = s
            rows.append([kind, service.name, s.mean, s.p99, s.std])
    table = render_table(
        ["lph", "approach", "mean", "p99", "std"],
        rows,
        title="Ablation: LPH flavour vs directory balance (Bounded-Pareto values)",
    )
    (results_dir / "ablation_lph.txt").write_text(table + "\n")

    # Averages are placement-invariant...
    for name in ("Mercury", "LORM", "MAAN"):
        assert stats[("linear", name)].mean == pytest.approx(
            stats[("cdf", name)].mean, rel=1e-6
        )
    # ...but the linear LPH concentrates load: every value-indexed approach
    # gets a fatter tail than with the CDF calibration.
    for name in ("Mercury", "MAAN"):
        assert stats[("linear", name)].p99 > 1.5 * stats[("cdf", name)].p99
    assert stats[("linear", "LORM")].p99 >= stats[("cdf", "LORM")].p99


def test_lph_flavour_does_not_change_answers(ablation_config):
    """Correctness is LPH-invariant: both flavours answer identically."""
    from repro.workloads.generator import QueryKind

    bundles = _build_both(
        ablation_config.scaled(
            num_attributes=8, max_query_attributes=4, infos_per_attribute=40
        )
    )
    wl = bundles["cdf"].workload
    queries = list(wl.query_stream(20, 2, QueryKind.RANGE, label="lph-abl"))
    for query in queries:
        truth = wl.matching_providers_bruteforce(query)
        for bundle in bundles.values():
            for service in bundle.all():
                assert service.multi_query(query).providers == truth


def test_linear_lph_concentrates_query_traffic(ablation_config):
    """The linear LPH compresses Pareto values into few low IDs, so range
    walks visit few nodes — the *same* few nodes for almost every query.
    Cheap-looking walks are really a query hotspot: the handful of low-ID
    nodes absorb the traffic (the flip side of the storage skew above).
    The CDF calibration spreads the walks over the ring, so per-query
    visits track the quantile span (Theorem 4.9's regime)."""
    from repro.workloads.generator import QueryKind

    bundles = _build_both(ablation_config)
    visits = {}
    for kind, bundle in bundles.items():
        bundle.set_collect_matches(False)
        wl = bundle.workload
        queries = list(wl.query_stream(150, 1, QueryKind.RANGE, label="lph-walk"))
        samples = [bundle.mercury.multi_query(q).total_visited for q in queries]
        visits[kind] = np.asarray(samples, dtype=float)
    n = ablation_config.population
    # Linear: walks collapse onto the compressed low-ID region...
    assert visits["linear"].mean() < visits["cdf"].mean() / 3
    # ...while the CDF flavour realises the average-case span*n regime.
    assert visits["cdf"].mean() == pytest.approx(1 + 0.25 * n, rel=0.2)
