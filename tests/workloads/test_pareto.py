"""Tests for the Bounded Pareto distribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.pareto import BoundedPareto

DIST = BoundedPareto(alpha=2.0, low=1.0, high=100.0)


class TestCdf:
    def test_boundaries(self):
        assert DIST.cdf(1.0) == 0.0
        assert DIST.cdf(100.0) == 1.0

    def test_outside_clamped(self):
        assert DIST.cdf(0.5) == 0.0
        assert DIST.cdf(1e9) == 1.0

    @given(st.floats(1.0, 100.0), st.floats(1.0, 100.0))
    def test_monotone(self, a, b):
        if a <= b:
            assert DIST.cdf(a) <= DIST.cdf(b)

    def test_skew_toward_low_values(self):
        """Half the mass sits well below the arithmetic midpoint."""
        assert DIST.cdf(10.0) > 0.9


class TestPpf:
    @given(st.floats(0.0, 1.0))
    def test_inverse_of_cdf(self, q):
        x = DIST.ppf(q)
        assert DIST.cdf(x) == pytest.approx(q, abs=1e-9)

    def test_boundaries(self):
        assert DIST.ppf(0.0) == 1.0
        assert DIST.ppf(1.0) == 100.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DIST.ppf(1.5)


class TestSampling:
    def test_samples_within_bounds(self):
        rng = np.random.default_rng(2)
        samples = DIST.sample(rng, 10_000)
        assert samples.min() >= 1.0
        assert samples.max() <= 100.0

    def test_scalar_sample(self):
        rng = np.random.default_rng(3)
        value = DIST.sample(rng)
        assert isinstance(value, float)
        assert 1.0 <= value <= 100.0

    def test_empirical_cdf_matches_analytic(self):
        """Kolmogorov–Smirnov style check against the analytic CDF."""
        rng = np.random.default_rng(4)
        samples = np.sort(DIST.sample(rng, 50_000))
        empirical = np.arange(1, len(samples) + 1) / len(samples)
        analytic = np.array([DIST.cdf(float(x)) for x in samples[::500]])
        assert np.max(np.abs(analytic - empirical[::500])) < 0.02

    def test_reproducible(self):
        a = DIST.sample(np.random.default_rng(5), 10)
        b = DIST.sample(np.random.default_rng(5), 10)
        assert np.array_equal(a, b)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BoundedPareto(alpha=0.0, low=1.0, high=2.0)
        with pytest.raises(ValueError):
            BoundedPareto(alpha=1.0, low=0.0, high=2.0)
        with pytest.raises(ValueError):
            BoundedPareto(alpha=1.0, low=2.0, high=2.0)


class TestSampleUnified:
    """Regression: scalar and vector draws share one inverse transform."""

    def test_vector_matches_scalar_transform(self):
        rng_vec = np.random.default_rng(9)
        rng_scalar = np.random.default_rng(9)
        vector = DIST.sample(rng_vec, 64)
        scalars = np.array([DIST.sample(rng_scalar) for _ in range(64)])
        np.testing.assert_allclose(vector, scalars, rtol=1e-12)

    def test_vector_ppf_clamped_to_bounds(self):
        q = np.array([0.0, 1.0 - 1e-17, 1.0])
        x = DIST.ppf(q)
        assert x[0] == DIST.low
        assert (x <= DIST.high).all()
        assert x[-1] == DIST.high

    def test_vector_ppf_matches_scalar_ppf(self):
        q = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(
            DIST.ppf(q), [DIST.ppf(float(v)) for v in q], rtol=1e-12
        )

    def test_vector_ppf_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DIST.ppf(np.array([0.5, 1.5]))
