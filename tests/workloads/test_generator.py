"""Tests for the workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.resource import ResourceInfo
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload, QueryKind


def _cdf_mass(constraint, spec) -> float:
    """Value-CDF mass a constraint covers: its share of the hashed space
    under the CDF locality-preserving hash."""
    low, high = constraint.bounds_within(spec.lo, spec.hi)
    return spec.distribution.cdf(high) - spec.distribution.cdf(low)


@pytest.fixture(scope="module")
def wl() -> GridWorkload:
    return GridWorkload(
        schema=AttributeSchema.synthetic(10), infos_per_attribute=40, seed=5
    )


class TestResourceInfos:
    def test_total_count_is_m_times_k(self, wl):
        infos = list(wl.resource_infos())
        assert len(infos) == 10 * 40 == wl.total_info_pieces()

    def test_every_provider_reports_every_attribute(self, wl):
        infos = list(wl.resource_infos())
        providers = {i.provider for i in infos}
        assert len(providers) == 40
        for provider in providers:
            attrs = {i.attribute for i in infos if i.provider == provider}
            assert len(attrs) == 10

    def test_values_within_domains(self, wl):
        for info in wl.resource_infos():
            spec = wl.schema.spec(info.attribute)
            assert spec.lo <= info.value <= spec.hi

    def test_deterministic_across_instances(self):
        schema = AttributeSchema.synthetic(4)
        a = list(GridWorkload(schema, infos_per_attribute=10, seed=9).resource_infos())
        b = list(GridWorkload(schema, infos_per_attribute=10, seed=9).resource_infos())
        assert a == b

    def test_different_seeds_differ(self):
        schema = AttributeSchema.synthetic(4)
        a = list(GridWorkload(schema, infos_per_attribute=10, seed=1).resource_infos())
        b = list(GridWorkload(schema, infos_per_attribute=10, seed=2).resource_infos())
        assert a != b

    def test_infos_for_attribute(self, wl):
        infos = wl.infos_for_attribute("cpu-mhz")
        assert len(infos) == 40
        assert all(i.attribute == "cpu-mhz" for i in infos)

    def test_provider_value_consistent(self, wl):
        infos = wl.infos_for_attribute("cpu-mhz")
        assert infos[3].value == wl.provider_value("cpu-mhz", 3)

    @pytest.mark.parametrize(
        "attributes, k, seed", [(10, 40, 5), (1, 1, 0), (3, 7, 2), (6, 500, 1)]
    )
    def test_yields_the_seed_provider_major_sequence(self, attributes, k, seed):
        """Record for record what the seed's provider-major loop yielded
        (values as Python floats, providers shared per provider)."""
        workload = GridWorkload(
            AttributeSchema.synthetic(attributes), infos_per_attribute=k, seed=seed
        )
        seed_infos = [
            ResourceInfo(spec.name, workload.provider_value(spec.name, p), workload.provider_name(p))
            for p in range(workload.num_providers)
            for spec in workload.schema
        ]
        infos = list(workload.resource_infos())
        assert infos == seed_infos
        assert all(type(info.value) is float for info in infos)
        assert [info.value.hex() for info in infos] == [
            info.value.hex() for info in seed_infos
        ]


class TestConstraintSampling:
    def test_point_constraints_hit_existing_values(self, wl):
        rng = np.random.default_rng(0)
        values = {i.value for i in wl.infos_for_attribute("cpu-mhz")}
        for _ in range(20):
            c = wl.sample_constraint("cpu-mhz", QueryKind.POINT, rng)
            assert c.low == c.high
            assert c.low in values

    def test_range_constraints_are_ranges(self, wl):
        rng = np.random.default_rng(1)
        c = wl.sample_constraint("cpu-mhz", QueryKind.RANGE, rng)
        assert c.is_range
        assert c.low is not None and c.high is not None and c.low <= c.high

    def test_at_least_one_sided(self, wl):
        rng = np.random.default_rng(2)
        c = wl.sample_constraint("cpu-mhz", QueryKind.AT_LEAST, rng)
        assert c.low is not None and c.high is None

    def test_range_mean_span_quarter_in_quantile_space(self, wl):
        """The paper's average-case regime: expected covered CDF mass 1/4."""
        rng = np.random.default_rng(3)
        spec = wl.schema.spec("cpu-mhz")
        fractions = [
            _cdf_mass(wl.sample_constraint("cpu-mhz", QueryKind.RANGE, rng), spec)
            for _ in range(3000)
        ]
        assert np.mean(fractions) == pytest.approx(0.25, abs=0.02)

    def test_at_least_mean_span_quarter(self, wl):
        rng = np.random.default_rng(4)
        spec = wl.schema.spec("cpu-mhz")
        fractions = [
            _cdf_mass(wl.sample_constraint("cpu-mhz", QueryKind.AT_LEAST, rng), spec)
            for _ in range(3000)
        ]
        assert np.mean(fractions) == pytest.approx(0.25, abs=0.02)

    def test_custom_mean_span(self):
        wl = GridWorkload(
            schema=AttributeSchema.synthetic(3),
            infos_per_attribute=10,
            seed=0,
            mean_span_fraction=0.1,
        )
        rng = np.random.default_rng(5)
        spec = wl.schema.spec("cpu-mhz")
        fractions = [
            _cdf_mass(wl.sample_constraint("cpu-mhz", QueryKind.RANGE, rng), spec)
            for _ in range(3000)
        ]
        assert np.mean(fractions) == pytest.approx(0.1, abs=0.01)


class TestMultiQueries:
    def test_attribute_count_respected(self, wl):
        rng = np.random.default_rng(6)
        for n in (1, 3, 7):
            mq = wl.sample_multi_query(n, QueryKind.RANGE, rng)
            assert mq.num_attributes == n

    def test_attributes_distinct(self, wl):
        rng = np.random.default_rng(7)
        for _ in range(30):
            mq = wl.sample_multi_query(5, QueryKind.RANGE, rng)
            attrs = [c.attribute for c in mq.constraints]
            assert len(set(attrs)) == 5

    def test_too_many_attributes_rejected(self, wl):
        with pytest.raises(ValueError):
            wl.sample_multi_query(11)

    def test_query_stream_deterministic(self, wl):
        a = list(wl.query_stream(5, 2, QueryKind.RANGE, label="t"))
        b = list(wl.query_stream(5, 2, QueryKind.RANGE, label="t"))
        assert a == b

    def test_query_stream_labels_independent(self, wl):
        a = list(wl.query_stream(5, 2, QueryKind.RANGE, label="l1"))
        b = list(wl.query_stream(5, 2, QueryKind.RANGE, label="l2"))
        assert a != b

    def test_requesters_numbered(self, wl):
        queries = list(wl.query_stream(3, 1, QueryKind.POINT, label="n"))
        assert [q.requester for q in queries] == [
            "requester-00000", "requester-00001", "requester-00002"
        ]


class TestBruteForce:
    def test_bruteforce_honours_all_constraints(self, wl):
        rng = np.random.default_rng(8)
        mq = wl.sample_multi_query(3, QueryKind.RANGE, rng)
        providers = wl.matching_providers_bruteforce(mq)
        for p in providers:
            idx = int(p.rsplit("-", 1)[1])
            for c in mq.constraints:
                assert c.matches(wl.provider_value(c.attribute, idx))

    def test_bruteforce_point_query_finds_owner(self, wl):
        value = wl.provider_value("cpu-mhz", 7)
        from repro.core.resource import AttributeConstraint, MultiAttributeQuery

        mq = MultiAttributeQuery((AttributeConstraint.point("cpu-mhz", value),))
        assert wl.provider_name(7) in wl.matching_providers_bruteforce(mq)
