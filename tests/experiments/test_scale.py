"""Tests for the n-scaling experiment on the compact array core."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.config import SMOKE_CONFIG
from repro.experiments.scale import run_scale, scale_point


@pytest.fixture(scope="module")
def scale_config():
    """A sub-second scaling sweep (two tiny populations)."""
    return SMOKE_CONFIG.scaled(
        scale_sizes=(64, 256), scale_queries=40, scale_churn_events=9
    )


@pytest.fixture(scope="module")
def result(scale_config):
    return run_scale(scale_config)


class TestScalePoint:
    def test_deterministic(self, scale_config):
        a = scale_point(scale_config, 64)
        b = scale_point(scale_config, 64)
        # Wall-clock and memory fields vary run to run; the measured
        # figures must not.
        assert a.mean_hops == b.mean_hops
        assert a.p99_hops == b.p99_hops
        assert a.maintenance_per_event == b.maintenance_per_event
        assert a.bits == b.bits

    def test_hops_track_half_log2_n(self, scale_config):
        point = scale_point(scale_config, 256)
        assert point.half_log2_n == pytest.approx(4.0)
        # Stabilized Chord averages ~0.5*log2(n) hops; leave generous
        # slack, the tie to Figure 4 is pinned by the equivalence tests.
        assert 0.25 * point.half_log2_n < point.mean_hops < 2.5 * point.half_log2_n

    def test_resource_accounting_present(self, scale_config):
        point = scale_point(scale_config, 64)
        assert point.build_seconds > 0
        assert point.query_seconds > 0
        assert point.churn_seconds > 0  # the point ran 9 churn events
        assert point.peak_tracemalloc_mb > 0
        assert point.state_mb > 0
        assert point.maintenance_per_event > 0


class TestRunScale:
    def test_curves_and_points(self, result, scale_config):
        assert [p.num_nodes for p in result.points] == [64, 256]
        assert set(result.curve_names) == {
            "Chord hops",
            "Chord hops p99",
            "Analysis 0.5*log2(n)",
            "maintenance msgs/event",
        }
        assert result.curve("Chord hops").x == (64.0, 256.0)

    def test_parallel_matches_serial(self, result, scale_config):
        parallel = run_scale(scale_config, workers=2)
        for serial_point, parallel_point in zip(result.points, parallel.points):
            assert serial_point.num_nodes == parallel_point.num_nodes
            assert serial_point.mean_hops == parallel_point.mean_hops
            assert serial_point.p99_hops == parallel_point.p99_hops
            assert (
                serial_point.maintenance_per_event
                == parallel_point.maintenance_per_event
            )

    def test_table_json_is_strict(self, result):
        payload = json.loads(result.table_json())
        assert len(payload["points"]) == 2
        for row in payload["points"]:
            assert row["num_nodes"] in (64, 256)
            for value in row.values():
                if isinstance(value, float):
                    assert math.isfinite(value)

    def test_save_writes_table_artifact(self, result, tmp_path):
        csv_path = result.save(tmp_path)
        assert csv_path.exists()
        assert (tmp_path / "scale.txt").exists()
        table = json.loads((tmp_path / "scale_table.json").read_text())
        assert [p["num_nodes"] for p in table["points"]] == [64, 256]

    def test_render_mentions_resources(self, result):
        text = result.render()
        assert "scale" in text
        assert "built in" in text
        assert "9 churn events in" in text
        assert "traced" in text

    def test_over_budget_names_each_blown_budget(self, result):
        assert result.over_budget(5.0) == []
        assert result.over_budget(5.0, budget_seconds=10.0, budget_mb=1e6) == []
        slow, = result.over_budget(5.0, budget_seconds=1.0)
        assert "5.0s" in slow and "1.0s" in slow
        worst = max(result.points, key=lambda p: p.peak_tracemalloc_mb)
        slow, fat = result.over_budget(5.0, budget_seconds=1.0, budget_mb=0.0)
        assert f"n={worst.num_nodes}" in fat and "0.0 MB" in fat
