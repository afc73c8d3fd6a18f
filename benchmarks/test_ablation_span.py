"""Ablation — range-query span (DESIGN.md §4, choice 3).

Theorem 4.9's "average case" assumes range queries cover 1/4 of the value
space; the paper's workload generator is calibrated to that regime.  This
bench sweeps the mean span fraction and shows how each approach's
visited-node count responds: Mercury/MAAN scale linearly with span × n,
LORM with span × d, and SWORD not at all — so LORM's advantage is
span-robust, which is the claim behind Theorem 4.10's worst case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import build_services
from repro.utils.formatting import render_table
from repro.workloads.generator import QueryKind

SPANS = (0.05, 0.125, 0.25, 0.5)


def _sweep(config):
    results = {}
    for span in SPANS:
        bundle = build_services(config.scaled(mean_span_fraction=span))
        bundle.set_collect_matches(False)
        wl = bundle.workload
        queries = list(wl.query_stream(200, 1, QueryKind.RANGE, label=f"span{span}"))
        results[span] = {
            s.name: float(np.mean([s.multi_query(q).total_visited for q in queries]))
            for s in bundle.all()
        }
    return results


@pytest.fixture(scope="module")
def span_config(paper_config):
    return paper_config.scaled(
        dimension=6, chord_bits=9, num_attributes=48, infos_per_attribute=96
    )


def test_span_scaling(span_config, results_dir):
    results = _sweep(span_config)

    rows = [
        [span, vals["LORM"], vals["Mercury"], vals["SWORD"], vals["MAAN"]]
        for span, vals in results.items()
    ]
    table = render_table(
        ["mean span", "LORM", "Mercury", "SWORD", "MAAN"],
        rows,
        title="Ablation: visited nodes per 1-attribute range query vs span",
    )
    (results_dir / "ablation_span.txt").write_text(table + "\n")

    n, d = span_config.population, span_config.dimension
    for span, vals in results.items():
        # Mercury ~ 1 + span * n; MAAN adds the extra attribute root.
        assert vals["Mercury"] == pytest.approx(1 + span * n, rel=0.15)
        assert vals["MAAN"] == pytest.approx(2 + span * n, rel=0.15)
        # LORM ~ 1 + span * d — the cluster confines the walk.
        assert vals["LORM"] == pytest.approx(1 + span * d, rel=0.3)
        # SWORD is span-invariant.
        assert vals["SWORD"] == 1.0

    # The LORM-vs-Mercury gap widens linearly with span (Theorem 4.9's
    # m(n-d)/4 saving generalises to span * (n - d)).
    gaps = {span: vals["Mercury"] - vals["LORM"] for span, vals in results.items()}
    assert gaps[0.5] > gaps[0.05] * 5


def test_worst_case_full_span(span_config):
    """Theorem 4.10's worst case: a full-domain range query probes the
    whole system in Mercury/MAAN but at most d nodes in LORM."""
    bundle = build_services(span_config)
    bundle.set_collect_matches(False)
    from repro.core.resource import AttributeConstraint, Query

    spec = bundle.workload.schema.spec("cpu-mhz")
    q = Query(AttributeConstraint.between("cpu-mhz", spec.lo, spec.hi))
    n, d = span_config.population, span_config.dimension
    assert bundle.mercury.query(q).visited_nodes == n
    assert bundle.maan.query(q).visited_nodes == n + 1
    assert bundle.lorm.query(q).visited_nodes <= d
    assert bundle.sword.query(q).visited_nodes == 1
