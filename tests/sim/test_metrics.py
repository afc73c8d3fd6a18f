"""Tests for metric collection and percentile summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.metrics import MetricsRegistry, summarize


class TestSummarize:
    def test_basic_stats(self):
        s = summarize([1, 2, 3, 4])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.maximum == 4

    def test_percentiles_match_numpy(self):
        data = list(range(100))
        s = summarize(data)
        assert s.p01 == pytest.approx(np.percentile(data, 1))
        assert s.p99 == pytest.approx(np.percentile(data, 99))
        assert s.median == pytest.approx(49.5)

    def test_empty_sample(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_single_sample(self):
        s = summarize([7.0])
        assert s.mean == s.p01 == s.p99 == 7.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_ordering_invariants(self, data):
        s = summarize(data)
        assert min(data) <= s.p01 <= s.median <= s.p99 <= s.maximum
        # The mean can exceed min/max by a rounding ulp when all samples
        # are equal; allow that float slack.
        slack = 1e-9 * max(1.0, abs(s.maximum))
        assert min(data) - slack <= s.mean <= s.maximum + slack


class TestRegistry:
    def test_samples_recorded_and_summarized(self):
        m = MetricsRegistry()
        for v in (1, 2, 3):
            m.record("hops", v)
        assert m.samples("hops") == [1.0, 2.0, 3.0]
        assert summarize(m.samples("hops")).mean == 2.0

    def test_record_pair_matches_two_records(self):
        batched, plain = MetricsRegistry(), MetricsRegistry()
        batched.record_pair("hops", 3, "visited", 5)
        plain.record("hops", 3)
        plain.record("visited", 5)
        for name in ("hops", "visited"):
            assert batched.samples(name) == plain.samples(name)

    def test_samples_returns_copy(self):
        m = MetricsRegistry()
        m.record("x", 1)
        m.samples("x").append(99.0)
        assert m.samples("x") == [1.0]

    def test_samples_are_a_list_of_floats_whatever_was_recorded(self):
        m = MetricsRegistry()
        m.record("x", 3)
        m.record_pair("x", np.int64(4), "y", 2.5)
        assert m.samples("x") == [3.0, 4.0] and type(m.samples("x")) is list
        assert all(type(v) is float for v in m.samples("x") + m.samples("y"))
        assert m.last("x") == 4.0 and m.last("nope") is None
        assert summarize(m.samples("x")).mean == 3.5

    def test_per_sample_footprint(self):
        """A run records two samples per sub-query for as long as it lives:
        a series is a flat double array (8 B a sample), not boxed floats."""
        import tracemalloc

        m = MetricsRegistry()
        m.record_pair("hops", 1, "visited", 1)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(100_000):
                m.record_pair("hops", i, "visited", i + 0.5)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 2_000_000  # 200k samples; boxed floats: ~6.4 MB
