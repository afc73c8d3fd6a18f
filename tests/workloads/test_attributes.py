"""Tests for the attribute schema."""

from __future__ import annotations

import pytest

from repro.hashing.locality import CdfLocalityHash, LinearLocalityHash
from repro.workloads.attributes import AttributeSchema, AttributeSpec


class TestAttributeSpec:
    def test_distribution_bounds(self):
        spec = AttributeSpec("cpu", 100.0, 5000.0)
        dist = spec.distribution
        assert dist.low == 100.0 and dist.high == 5000.0

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            AttributeSpec("x", 5.0, 5.0)
        with pytest.raises(ValueError):
            AttributeSpec("x", 0.0, 5.0)  # Pareto needs lo > 0

    def test_value_hash_kinds(self):
        spec = AttributeSpec("cpu", 1.0, 10.0)
        assert isinstance(spec.value_hash(8, "linear"), LinearLocalityHash)
        assert isinstance(spec.value_hash(8, "cdf"), CdfLocalityHash)
        with pytest.raises(ValueError):
            spec.value_hash(8, "bogus")

    def test_value_hash_respects_size(self):
        spec = AttributeSpec("cpu", 1.0, 10.0)
        h = spec.value_hash(5, "cdf")  # non-power-of-two (LORM cyclic space)
        assert h(10.0) == 4


class TestAttributeSchema:
    def test_synthetic_count(self):
        assert len(AttributeSchema.synthetic(200)) == 200

    def test_synthetic_starts_with_realistic_names(self):
        schema = AttributeSchema.synthetic(10)
        assert schema.names[0] == "cpu-mhz"
        assert "os" in schema.names

    def test_synthetic_pads_with_generated(self):
        schema = AttributeSchema.synthetic(30)
        assert "attr-020" in schema.names

    def test_generated_domains_vary(self):
        schema = AttributeSchema.synthetic(50)
        domains = {(s.lo, s.hi) for s in schema.specs[10:]}
        assert len(domains) > 5

    def test_unique_names_enforced(self):
        spec = AttributeSpec("dup", 1.0, 2.0)
        with pytest.raises(ValueError):
            AttributeSchema((spec, spec))

    def test_lookup_and_membership(self):
        schema = AttributeSchema.synthetic(5)
        assert "cpu-mhz" in schema.names
        assert schema.spec("cpu-mhz").name == "cpu-mhz"
        assert "nonexistent" not in schema.names

    def test_iteration_order_stable(self):
        schema = AttributeSchema.synthetic(12)
        assert [s.name for s in schema] == list(schema.names)

    def test_pareto_shape_propagates(self):
        schema = AttributeSchema.synthetic(25, pareto_shape=1.5)
        assert schema.specs[-1].pareto_shape == 1.5
