"""Tests for the locality-preserving hashes ℋ (linear and CDF flavours)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.locality import CdfLocalityHash, LinearLocalityHash
from repro.workloads.pareto import BoundedPareto

values = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestLinear:
    def test_endpoints(self):
        h = LinearLocalityHash(size=8, lo=0.0, hi=100.0)
        assert h(0.0) == 0
        assert h(100.0) == 7

    def test_midpoint(self):
        h = LinearLocalityHash(size=8, lo=0.0, hi=100.0)
        assert h(50.0) == 4

    def test_clamps_out_of_domain(self):
        h = LinearLocalityHash(size=8, lo=10.0, hi=20.0)
        assert h(-5.0) == 0
        assert h(99.0) == 7

    @given(v1=values, v2=values)
    def test_monotone(self, v1, v2):
        h = LinearLocalityHash(size=64, lo=0.0, hi=100.0)
        if v1 <= v2:
            assert h(v1) <= h(v2)

    def test_size_one_all_zero(self):
        h = LinearLocalityHash(size=1, lo=0.0, hi=1.0)
        assert h(0.0) == h(1.0) == 0

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            LinearLocalityHash(size=8, lo=5.0, hi=5.0)

    def test_hash_range_normalises_order(self):
        h = LinearLocalityHash(size=16, lo=0.0, hi=1.0)
        assert h.hash_range(0.9, 0.1) == (h(0.1), h(0.9))


class TestCdfAnalytic:
    @pytest.fixture
    def pareto_hash(self) -> CdfLocalityHash:
        dist = BoundedPareto(alpha=2.0, low=1.0, high=1000.0)
        return CdfLocalityHash(size=256, lo=1.0, hi=1000.0, cdf=dist.cdf)

    def test_endpoints(self, pareto_hash):
        assert pareto_hash(1.0) == 0
        assert pareto_hash(1000.0) == 255

    @given(v1=st.floats(1.0, 1000.0), v2=st.floats(1.0, 1000.0))
    def test_monotone(self, v1, v2):
        dist = BoundedPareto(alpha=2.0, low=1.0, high=1000.0)
        h = CdfLocalityHash(size=64, lo=1.0, hi=1000.0, cdf=dist.cdf)
        if v1 <= v2:
            assert h(v1) <= h(v2)

    def test_uniformises_skewed_values(self, pareto_hash):
        """Hashed Pareto samples should spread evenly — the whole point of
        the CDF calibration."""
        dist = BoundedPareto(alpha=2.0, low=1.0, high=1000.0)
        rng = np.random.default_rng(1)
        hashed = [pareto_hash(float(v)) for v in dist.sample(rng, 4000)]
        counts = np.bincount(hashed, minlength=256)
        # Every quarter of the space holds roughly a quarter of the mass.
        quarters = counts.reshape(4, 64).sum(axis=1) / 4000
        assert all(0.17 < q < 0.33 for q in quarters)

    def test_linear_hash_skews_pareto_low(self):
        """Contrast case: the linear LPH piles Pareto values into the low
        end (motivates the CDF flavour; exercised by the LPH ablation)."""
        dist = BoundedPareto(alpha=2.0, low=1.0, high=1000.0)
        h = LinearLocalityHash(size=256, lo=1.0, hi=1000.0)
        rng = np.random.default_rng(1)
        hashed = [h(float(v)) for v in dist.sample(rng, 4000)]
        low_quarter = sum(1 for x in hashed if x < 64) / 4000
        assert low_quarter > 0.9
