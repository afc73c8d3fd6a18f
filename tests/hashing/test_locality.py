"""Tests for the locality-preserving hashes ℋ (linear and CDF flavours)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.locality import CdfLocalityHash, LinearLocalityHash
from repro.workloads.attributes import AttributeSchema
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


# ----------------------------------------------------------------------
# The seed's hash chain, verbatim, as the oracle of the value hash
# ----------------------------------------------------------------------
def _seed_clamp(h, value):
    if value < h.lo:
        return h.lo
    if value > h.hi:
        return h.hi
    return value


def _seed_bucket(h, fraction):
    fraction = min(max(fraction, 0.0), 1.0)
    return min(int(fraction * h.size), h.size - 1)


def _seed_cdf(dist, x):
    if x <= dist.low:
        return 0.0
    if x >= dist.high:
        return 1.0
    return (1.0 - (dist.low / x) ** dist.alpha) / (1.0 - (dist.low / dist.high) ** dist.alpha)


def _seed_cdf_hash(h, dist, value):
    return _seed_bucket(h, _seed_cdf(dist, _seed_clamp(h, value)))


def _seed_linear_hash(h, value):
    value = _seed_clamp(h, value)
    return _seed_bucket(h, (value - h.lo) / (h.hi - h.lo))


domains = st.tuples(
    st.floats(1e-3, 1e4, allow_nan=False), st.floats(1.0001, 1e3, allow_nan=False)
).map(lambda pair: (pair[0], pair[0] * pair[1]))
#: Sizes of one and sizes that are not powers of two, beside ring sizes.
sizes = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 11, 2**11, 2**20, 2**60, 2**160]),
    st.integers(1, 10**6),
)
alphas = st.floats(0.05, 8.0, allow_nan=False)


def _probes(lo, hi, inside):
    return [lo, hi, inside, lo / 2, lo - 1.0, hi * 2, hi + 1.0, -math.inf, math.inf]


class TestSeedHashOracle:
    """Every key stays bit-identical to the seed's clamp -> cdf -> bucket
    chain, for any domain, shape and target size."""

    @given(domain=domains, alpha=alphas, size=sizes, u=st.floats(0.0, 1.0))
    def test_cdf_hash_equals_the_seed_chain(self, domain, alpha, size, u):
        lo, hi = domain
        dist = BoundedPareto(alpha=alpha, low=lo, high=hi)
        h = CdfLocalityHash(size=size, lo=lo, hi=hi, cdf=dist.cdf)
        for value in [*_probes(lo, hi, lo + u * (hi - lo)), dist.ppf(u)]:
            got = h(value)
            assert type(got) is int
            assert got == _seed_cdf_hash(h, dist, value), value

    @given(domain=domains, size=sizes, u=st.floats(0.0, 1.0))
    def test_linear_hash_equals_the_seed_chain(self, domain, size, u):
        lo, hi = domain
        h = LinearLocalityHash(size=size, lo=lo, hi=hi)
        for value in _probes(lo, hi, lo + u * (hi - lo)):
            assert h(value) == _seed_linear_hash(h, value), value

    @given(domain=domains, alpha=alphas, u=st.floats(0.0, 1.0))
    def test_cdf_equals_the_seed_cdf(self, domain, alpha, u):
        lo, hi = domain
        dist = BoundedPareto(alpha=alpha, low=lo, high=hi)
        for x in _probes(lo, hi, lo + u * (hi - lo)):
            assert dist.cdf(x) == _seed_cdf(dist, x)

    def test_schema_hashes_equal_the_seed_chain(self):
        schema = AttributeSchema.synthetic(12)
        rng = np.random.default_rng(3)
        for spec in schema:
            dist = spec.distribution
            for size in (1, 7, 25, 2**11):
                h = spec.value_hash(size)
                for value in (*dist.sample(rng, 50).tolist(), spec.lo, spec.hi):
                    assert h(value) == _seed_cdf_hash(h, dist, value)

    def test_nan_raises_what_the_seed_raised(self):
        dist = BoundedPareto(alpha=2.0, low=1.0, high=1000.0)
        cdf_hash = CdfLocalityHash(size=64, lo=1.0, hi=1000.0, cdf=dist.cdf)
        linear = LinearLocalityHash(size=64, lo=1.0, hi=1000.0)
        for h, seed in (
            (cdf_hash, lambda v: _seed_cdf_hash(cdf_hash, dist, v)),
            (linear, lambda v: _seed_linear_hash(linear, v)),
        ):
            with pytest.raises(Exception) as expected:
                seed(math.nan)
            with pytest.raises(expected.type):
                h(math.nan)
