"""Tests for per-node load accounting and imbalance reducers."""

from __future__ import annotations

import math

import pytest

from repro.sim.loadstats import (
    LoadStats,
    LoadWindow,
    gini,
    max_mean_ratio,
    top_share,
)


class TestMaxMeanRatio:
    def test_simple_ratio(self):
        # mean over the population of 4 is 1.0; the max is 3.
        assert max_mean_ratio({"a": 3, "b": 1}, population=4) == pytest.approx(3.0)

    def test_perfect_balance_is_one(self):
        counts = {i: 2.0 for i in range(5)}
        assert max_mean_ratio(counts, population=5) == pytest.approx(1.0)

    def test_zero_load_members_raise_the_ratio(self):
        counts = {i: 1.0 for i in range(4)}
        assert max_mean_ratio(counts, population=8) == pytest.approx(2.0)

    def test_no_load_is_nan(self):
        assert math.isnan(max_mean_ratio({}, population=4))
        assert math.isnan(max_mean_ratio({"a": 0.0}, population=4))

    def test_population_validation(self):
        with pytest.raises(ValueError):
            max_mean_ratio({"a": 1, "b": 1}, population=1)


class TestGini:
    def test_equal_load_is_zero(self):
        counts = {i: 3.0 for i in range(6)}
        assert gini(counts, population=6) == pytest.approx(0.0)

    def test_single_loaded_member(self):
        # One member carries everything: G = (n - 1) / n.
        assert gini({"a": 10.0}, population=4) == pytest.approx(0.75)

    def test_no_load_is_nan(self):
        assert math.isnan(gini({}, population=4))

    def test_more_skew_more_gini(self):
        even = gini({i: 1.0 for i in range(8)}, population=8)
        skew = gini({0: 9.0, 1: 1.0}, population=8)
        assert skew > even


class TestTopShare:
    def test_top_one(self):
        assert top_share({"a": 3.0, "b": 1.0}, 1) == pytest.approx(0.75)

    def test_k_covers_everything(self):
        assert top_share({"a": 3.0, "b": 1.0}, 10) == pytest.approx(1.0)

    def test_empty_is_nan(self):
        assert math.isnan(top_share({}, 1))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_share({"a": 1.0}, 0)


class TestLoadWindow:
    def test_total_serves(self):
        window = LoadWindow(serves={"a": 2, "b": 3})
        assert window.total_serves == 5.0

    def test_reducer_wrappers(self):
        window = LoadWindow(serves={"a": 3, "b": 1})
        assert window.max_mean_ratio(4) == pytest.approx(3.0)
        assert window.top_share(1) == pytest.approx(0.75)
        assert window.gini(4) == pytest.approx(gini({"a": 3, "b": 1}, 4))

    def test_merged_sums_elementwise(self):
        a = LoadWindow(serves={"x": 1}, routes={"r": 2}, by_attribute={"cpu": 1})
        b = LoadWindow(serves={"x": 2, "y": 1}, routes={}, by_attribute={"cpu": 3})
        merged = a.merged(b)
        assert merged.serves == {"x": 3, "y": 1}
        assert merged.routes == {"r": 2}
        assert merged.by_attribute == {"cpu": 4}


class TestLoadStats:
    def test_record_serves_counts_every_visited_node(self):
        stats = LoadStats()
        stats.record_serves(["n1", "n2", "n3"], "mem")
        window = stats.take_window()
        assert window.serves == {"n1": 1, "n2": 1, "n3": 1}
        assert window.by_attribute == {"mem": 3}

    def test_route_path_counts_intermediates_only(self):
        stats = LoadStats()
        stats.record_route_path(["req", "mid1", "mid2", "owner"])
        stats.record_route_path(["req", "owner"])
        window = stats.take_window()
        assert window.routes == {"mid1": 1, "mid2": 1}

    def test_take_window_resets(self):
        stats = LoadStats()
        stats.record_serves(["n1"], "cpu")
        first = stats.take_window()
        assert first.serves == {"n1": 1}
        stats.record_serves(["n2"], "cpu")
        second = stats.take_window()
        assert second.serves == {"n2": 1}
        assert stats.take_window().serves == {}
