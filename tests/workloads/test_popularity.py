"""Tests for skewed-popularity models and query-stream determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind
from repro.workloads.popularity import (
    ZipfPopularity,
    stable_seed,
    zipf_weights,
)


def _workload(popularity=None, seed=7, num_attributes=12):
    return GridWorkload(
        schema=AttributeSchema.synthetic(num_attributes),
        infos_per_attribute=20,
        seed=seed,
        popularity=popularity,
    )


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)

    def test_sensitive_to_every_part(self):
        base = stable_seed("a", 1)
        assert stable_seed("b", 1) != base
        assert stable_seed("a", 2) != base
        assert stable_seed("a", 1, 0) != base

    def test_in_numpy_seed_range(self):
        for parts in (("x",), ("y", 10**9), (1.5, "z", -3)):
            assert 0 <= stable_seed(*parts) < (1 << 63)


class TestZipfWeights:
    def test_normalized(self):
        assert zipf_weights(50, 1.1).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(20, 0.9)
        assert all(w[i] > w[i + 1] for i in range(19))

    def test_s_zero_is_uniform(self):
        w = zipf_weights(8, 0.0)
        assert np.allclose(w, 1.0 / 8.0)

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)


class TestZipfPopularity:
    def test_s_zero_degenerates_to_uniform(self):
        assert ZipfPopularity(s=0.0).attribute_weights(10, 0) is None

    def test_hottest_rank_gets_max_weight(self):
        model = ZipfPopularity(s=1.1, seed=3)
        weights = model.attribute_weights(10, 0)
        assert int(np.argmax(weights)) == model.rank_order(10)[0]

    def test_rank_order_is_seeded(self):
        a = ZipfPopularity(s=1.1, seed=3).rank_order(20)
        b = ZipfPopularity(s=1.1, seed=3).rank_order(20)
        c = ZipfPopularity(s=1.1, seed=4).rank_order(20)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            ZipfPopularity(s=-0.5)


class TestStreamDeterminism:
    def test_same_seed_same_stream(self):
        a = list(_workload(ZipfPopularity(s=1.1, seed=7)).query_stream(25, 2))
        b = list(_workload(ZipfPopularity(s=1.1, seed=7)).query_stream(25, 2))
        assert a == b

    def test_different_zipf_s_different_stream(self):
        a = list(_workload(ZipfPopularity(s=0.5, seed=7)).query_stream(25, 2))
        b = list(_workload(ZipfPopularity(s=1.5, seed=7)).query_stream(25, 2))
        assert a != b

    def test_sharded_stream_matches_serial(self):
        wl = _workload(ZipfPopularity(s=1.1, seed=7))
        serial = list(wl.query_stream(30, 2, QueryKind.RANGE, label="shard"))
        first = list(wl.query_stream(12, 2, QueryKind.RANGE, label="shard"))
        rest = list(wl.query_stream(18, 2, QueryKind.RANGE, label="shard", start=12))
        assert serial == first + rest

    def test_uniform_path_rejects_sharding(self):
        with pytest.raises(ValueError):
            list(_workload(None).query_stream(5, 2, start=3))

    def test_skew_concentrates_attributes(self):
        uniform = list(_workload(None, num_attributes=16).query_stream(150, 1))
        skewed = list(
            _workload(ZipfPopularity(s=1.5, seed=7), num_attributes=16).query_stream(150, 1)
        )

        def top_count(queries):
            names = [q.constraints[0].attribute for q in queries]
            return max(names.count(n) for n in set(names))

        assert top_count(skewed) > top_count(uniform)
