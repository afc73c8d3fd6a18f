"""Tests for the differential replay harness and ``repro check``.

``PLANTS`` is the harness's own acceptance criterion: each deliberately
reintroduced bug (the pre-fix ``repair_replication`` that collapsed
duplicate pieces, a service that lies about its result set, broken hop
and visited bounds) must surface as a divergence, not pass silently.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.base import DiscoveryService
from repro.baselines.sword import SwordService
from repro.experiments.common import SYSTEM_NAMES
from repro.sim import maintenance
from repro.testing.differential import (
    Divergence,
    run_check,
    run_differential,
)


class TestRunDifferential:
    def test_fault_free_replay_is_oracle_exact(self):
        report = run_differential(num_queries=10)
        assert not report.divergences, report.render()
        assert set(report.stats) == set(SYSTEM_NAMES)
        assert all(st.queries == 10 for st in report.stats.values())

    def test_graceful_churn_stays_exact(self):
        ops = ("leave", "join", "stabilize", "leave", "stabilize")
        report = run_differential(num_queries=8, churn_ops=ops)
        assert not report.divergences, report.render()

    def test_crash_churn_is_subset_honest(self):
        report = run_differential(
            num_queries=8, churn_ops=("fail", "stabilize", "fail", "stabilize")
        )
        # A crash loses the keys it held, never invents one: every
        # divergence is a result set with providers missing, none spurious.
        assert all(
            d.kind == "result-set" and d.detail.endswith("spurious []")
            for d in report.divergences
        ), report.render()

    def test_render_mentions_every_system(self):
        report = run_differential(num_queries=6)
        text = report.render()
        for name in SYSTEM_NAMES:
            assert name in text


def _lying_multi_query(self, query, start=None):
    """Drops the first provider of every non-empty answer."""
    result = DiscoveryService.multi_query(self, query, start)
    if result.providers:
        return dataclasses.replace(result, providers=frozenset(sorted(result.providers)[1:]))
    return result


def _sword_replay():
    return run_differential(systems=("SWORD",), num_queries=12)


def _storm_check():
    return run_check(systems=("SWORD",), seed=0, num_queries=9, churn_events=20)


#: ``(id, (class, method, edit), run, kind, detail)``: the plant (see the
#: ``plant`` fixture), the harness run that must report it, and the kind
#: and detail of the divergence it must report.
PLANTS = [
    ("lying-result-set", (SwordService, "multi_query", _lying_multi_query),
     _sword_replay, "result-set", ""),
    ("hop-bound-zero", (SwordService, "structural_hop_bound", lambda self: 0),
     _sword_replay, "hop-bound", ""),
    ("visited-bound-zero", (SwordService, "max_visited_per_subquery", lambda self: 0),
     _sword_replay, "visited-bound", ""),
    # The pre-fix repair collapsed duplicate identical pieces to one copy.
    ("repair-collapses-duplicates", (maintenance, "place_bucket", [
        ("decodable_level(cs, threshold)", "min(1, decodable_level(cs, threshold))"),
    ]), _storm_check, "invariant", "conserve"),
]


@pytest.mark.parametrize(
    "edit, run, kind, detail", [row[1:] for row in PLANTS], ids=[row[0] for row in PLANTS]
)
def test_check_plant_is_caught(edit, run, kind, detail, plant):
    plant(*edit)
    report = run()
    assert any(d.kind == kind and detail in d.detail for d in report.divergences), (
        report.render()
    )


class TestRunCheck:
    def test_seed_zero_check_passes(self, check_report):
        assert check_report.ok, check_report.render()
        storm_events = [o[1] for _, o in check_report.legs if isinstance(o, tuple)]
        assert storm_events and all(n > 0 for n in storm_events)
        assert "result: OK" in check_report.render()

    def test_single_system_check(self):
        report = run_check(systems=("LORM",), seed=3, num_queries=9, churn_events=10)
        assert report.ok, report.render()

    def test_divergence_render(self):
        d = Divergence(
            system="MAAN", kind="hop-bound", detail="too many hops", query_index=4
        )
        text = d.render()
        assert "MAAN" in text and "hop-bound" in text and "query #4" in text
