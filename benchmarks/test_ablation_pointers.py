"""Ablation — Mercury's record/pointer strategy (Section IV's footnote).

Measures the trade the paper set aside "to make the different methods
comparable": storing one full record plus (m−1) pointers instead of m full
copies slashes heavyweight storage m-fold, at the price of one extra
pointer-chasing lookup per non-home hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mercury import MercuryService
from repro.baselines.mercury_pointers import PointerMercuryService
from repro.core.resource import ResourceInfo
from repro.utils.formatting import render_table
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


@pytest.fixture(scope="module")
def setup():
    schema = AttributeSchema.synthetic(24)
    wl = GridWorkload(schema, infos_per_attribute=128, seed=31)

    pointered = PointerMercuryService.build_full(9, schema, seed=31)
    for p in range(wl.num_providers):
        record = [
            ResourceInfo(spec.name, wl.provider_value(spec.name, p), wl.provider_name(p))
            for spec in schema
        ]
        pointered.register_record(record, routed=False)

    plain = MercuryService.build_full(9, schema, seed=31)
    for info in wl.resource_infos():
        plain.register(info, routed=False)
    return wl, plain, pointered


def _measure(setup):
    wl, plain, pointered = setup
    queries = list(wl.query_stream(200, 1, QueryKind.RANGE, label="ptr-abl"))
    plain_hops = [plain.multi_query(q).total_hops for q in queries]
    ptr_hops = [pointered.multi_query(q).total_hops for q in queries]
    return {
        "plain_records": plain.total_info_pieces(),
        "ptr_records": pointered.stored_record_copies(),
        "ptr_pointers": pointered.stored_pointers(),
        "plain_hops": float(np.mean(plain_hops)),
        "ptr_hops": float(np.mean(ptr_hops)),
        "queries": queries,
        "wl": wl,
        "plain": plain,
        "pointered": pointered,
    }


def test_pointer_strategy_tradeoff(setup, results_dir):
    out = _measure(setup)
    wl = out["wl"]
    m = len(wl.schema)

    table = render_table(
        ["variant", "record copies", "pointers", "avg hops / range query"],
        [
            ["Mercury", out["plain_records"], 0, out["plain_hops"]],
            ["Mercury+ptr", out["ptr_records"], out["ptr_pointers"], out["ptr_hops"]],
        ],
        title="Ablation: Mercury record/pointer strategy",
    )
    (results_dir / "ablation_pointers.txt").write_text(table + "\n")

    # Storage: m-fold fewer heavyweight record copies.
    assert out["plain_records"] == m * out["ptr_records"]
    assert out["ptr_pointers"] == (m - 1) * wl.num_providers
    # Cost: pointer chasing makes queries at least as expensive in hops.
    assert out["ptr_hops"] >= out["plain_hops"]


def test_pointer_strategy_answers_identical(setup):
    wl, plain, pointered = setup
    for query in wl.query_stream(30, 2, QueryKind.RANGE, label="ptr-eq"):
        assert (
            pointered.multi_query(query).providers
            == plain.multi_query(query).providers
            == wl.matching_providers_bruteforce(query)
        )
