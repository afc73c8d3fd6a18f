"""Tests for the differential replay harness and ``repro check``.

The monkeypatch tests are the harness's own acceptance criterion: a
deliberately reintroduced bug (the pre-fix ``repair_replication`` that
collapsed duplicate pieces, a service that lies about its result set, a
broken hop bound) must surface as a divergence, not pass silently.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.baselines.sword import SwordService
from repro.experiments.common import SYSTEM_NAMES
from repro.overlay.chord import ChordRing
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


class TestDivergenceDetection:
    def test_lying_result_set_is_flagged(self, monkeypatch):
        orig = SwordService.multi_query

        def lying(self, query, *args, **kwargs):
            result = orig(self, query, *args, **kwargs)
            if result.providers:
                return dataclasses.replace(
                    result,
                    providers=frozenset(sorted(result.providers)[1:]),
                )
            return result

        monkeypatch.setattr(SwordService, "multi_query", lying)
        report = run_differential(systems=("SWORD",), num_queries=12)
        assert report.divergences
        assert any(d.kind == "result-set" for d in report.divergences)

    def test_broken_hop_bound_is_flagged(self, monkeypatch):
        monkeypatch.setattr(
            SwordService, "structural_hop_bound", lambda self: 0
        )
        monkeypatch.setattr(
            SwordService, "max_visited_per_subquery", lambda self: 0
        )
        report = run_differential(systems=("SWORD",), num_queries=10)
        kinds = {d.kind for d in report.divergences}
        assert "hop-bound" in kinds
        assert "visited-bound" in kinds

    def test_reintroduced_repair_multiplicity_bug_is_caught(self, monkeypatch):
        # The pre-fix ChordRing.repair_replication: collapses duplicate
        # identical pieces to a single copy while re-placing replicas.
        def buggy_repair(self):
            surviving: dict[tuple[str, int], Counter] = {}
            for node in list(self.nodes()):
                for namespace, key_id, item in node.stored_entries():
                    bucket = surviving.setdefault((namespace, key_id), Counter())
                    bucket[item] = max(bucket[item], 1)
                node.clear_storage()
            moved = 0
            for (namespace, key_id), bucket in surviving.items():
                for holder in self.replica_set_of(key_id):
                    for item, count in bucket.items():
                        for _ in range(count):
                            holder.store(namespace, key_id, item)
                        moved += count
            if moved:
                self.network.count_maintenance(moved)
            return moved

        monkeypatch.setattr(ChordRing, "repair_replication", buggy_repair)
        report = run_check(seed=0, num_queries=9, churn_events=20)
        assert not report.ok
        assert any(
            d.kind == "invariant" and "conserve" in d.detail
            for d in report.divergences
        ), report.render()


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
