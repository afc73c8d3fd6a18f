"""Tests for the resource/query vocabulary."""

from __future__ import annotations

from operator import attrgetter

import pytest

from repro.core.resource import (
    AttributeConstraint,
    MultiAttributeQuery,
    MultiQueryResult,
    Query,
    QueryResult,
    ResourceInfo,
    select_matches,
)


class TestAttributeConstraint:
    def test_point_matches_exactly(self):
        c = AttributeConstraint.point("cpu", 100.0)
        assert c.matches(100.0)
        assert not c.matches(100.1)
        assert not c.is_range

    def test_between_inclusive(self):
        c = AttributeConstraint.between("cpu", 1.0, 2.0)
        assert c.matches(1.0) and c.matches(2.0) and c.matches(1.5)
        assert not c.matches(0.99) and not c.matches(2.01)
        assert c.is_range

    def test_at_least(self):
        c = AttributeConstraint.at_least("mem", 512.0)
        assert c.matches(512.0) and c.matches(1e9)
        assert not c.matches(511.0)

    def test_unbounded_matches_everything(self):
        c = AttributeConstraint("any")
        assert c.matches(-1e18) and c.matches(1e18)
        assert c.is_range

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            AttributeConstraint.between("cpu", 2.0, 1.0)

    def test_nan_bound_rejected_naming_the_attribute(self):
        nan = float("nan")
        for make in (
            lambda: AttributeConstraint.point("cpu-mhz", nan),
            lambda: AttributeConstraint.at_least("cpu-mhz", nan),
            lambda: AttributeConstraint("cpu-mhz", None, nan),
            lambda: AttributeConstraint.between("cpu-mhz", 1.0, nan),
        ):
            with pytest.raises(ValueError, match="cpu-mhz"):
                make()

    def test_bounds_are_what_matches_tests(self):
        inf = float("inf")
        assert AttributeConstraint("any").bounds == (-inf, inf)
        assert AttributeConstraint.at_least("cpu", 5.0).bounds == (5.0, inf)
        assert AttributeConstraint("cpu", None, 5.0).bounds == (-inf, 5.0)
        for c in (
            AttributeConstraint.point("cpu", 2.0),
            AttributeConstraint.between("cpu", 1.0, 3.0),
        ):
            low, high = c.bounds
            for value in (0.5, 1.0, 2.0, 3.0, 3.5):
                assert (low <= value <= high) == c.matches(value)

    def test_bounds_within_substitutes_domain(self):
        c = AttributeConstraint.at_least("cpu", 5.0)
        assert c.bounds_within(0.0, 10.0) == (5.0, 10.0)
        c2 = AttributeConstraint("cpu", None, 5.0)
        assert c2.bounds_within(0.0, 10.0) == (0.0, 5.0)


class TestResourceInfo:
    def test_nan_value_rejected_naming_the_attribute(self):
        with pytest.raises(ValueError, match="mem-mb"):
            ResourceInfo("mem-mb", float("nan"), "p")

    def test_slotted_and_still_a_value(self):
        import copy
        import pickle

        info = ResourceInfo("cpu", 2.0, "p")
        assert not hasattr(info, "__dict__")
        assert pickle.loads(pickle.dumps(info)) == info == copy.deepcopy(info)
        assert hash(info) == hash(ResourceInfo("cpu", 2.0, "p"))
        with pytest.raises(AttributeError):
            info.value = 3.0  # frozen

    def test_equality_contract_is_the_generated_one(self):
        """The written-out ``__eq__`` / ``__hash__`` behave as the
        dataclass-generated pair: the same hash formula, equal exactly
        when all three fields are, never equal to a tuple or another
        class, and sets and dicts iterate in the generated twin's order."""
        import random
        from dataclasses import dataclass

        @dataclass(frozen=True, slots=True)
        class Twin:
            attribute: str
            value: float
            provider: str

        for fields in (("cpu", 2.5, "p"), ("cpu", 3, "p"), ("cpu", -0.0, "p")):
            assert hash(ResourceInfo(*fields)) == hash(fields) == hash(Twin(*fields))
        info = ResourceInfo("cpu", 2.0, "p")
        assert info == ResourceInfo("cpu", 2.0, "p") and not info != ResourceInfo("cpu", 2.0, "p")
        assert info == ResourceInfo("cpu", 2, "p")  # as the generated tuple compare
        for other in (("mem", 2.0, "p"), ("cpu", 2.5, "p"), ("cpu", 2.0, "q")):
            assert info != ResourceInfo(*other) and not info == ResourceInfo(*other)
        for other in (("cpu", 2.0, "p"), Twin("cpu", 2.0, "p"), "cpu", None):
            assert info != other and not info == other and not other == info

        rng = random.Random(7)
        rows = [
            (rng.choice("abcd"), rng.choice([rng.random(), rng.randrange(9), -0.0]), f"p{i % 37}")
            for i in range(1000)
        ]
        infos, twins = [ResourceInfo(*row) for row in rows], [Twin(*row) for row in rows]
        fields = attrgetter("attribute", "value", "provider")
        assert list(map(fields, set(infos))) == list(map(fields, set(twins)))
        assert list(map(fields, dict.fromkeys(infos))) == list(map(fields, dict.fromkeys(twins)))

    def test_select_matches_is_the_per_item_filter(self):
        constraint = AttributeConstraint.between("cpu", 1.0, 3.0)
        directories = [
            [ResourceInfo("cpu", 0.5, "a"), ResourceInfo("cpu", 1.0, "b")],
            [],
            [
                ResourceInfo("mem", 2.0, "c"),
                ResourceInfo("cpu", 3.0, "d"),
                ResourceInfo("cpu", 3.5, "e"),
            ],
        ]
        assert select_matches(directories, constraint) == tuple(
            info for directory in directories for info in directory
            if info.attribute == "cpu" and constraint.matches(info.value)
        )
        assert [i.provider for i in select_matches(directories, constraint)] == ["b", "d"]


class TestQueries:
    def test_query_delegates(self):
        q = Query(AttributeConstraint.point("cpu", 1.0), requester="r")
        assert q.attribute == "cpu"
        assert not q.is_range

    def test_multi_query_validation(self):
        with pytest.raises(ValueError):
            MultiAttributeQuery(())
        with pytest.raises(ValueError):
            MultiAttributeQuery(
                (
                    AttributeConstraint.point("cpu", 1.0),
                    AttributeConstraint.point("cpu", 2.0),
                )
            )

    def test_multi_query_sub_queries(self):
        mq = MultiAttributeQuery(
            (
                AttributeConstraint.point("cpu", 1.0),
                AttributeConstraint.at_least("mem", 2.0),
            ),
            requester="me",
        )
        subs = mq.sub_queries()
        assert [s.attribute for s in subs] == ["cpu", "mem"]
        assert all(s.requester == "me" for s in subs)
        assert mq.num_attributes == 2
        assert mq.is_range  # one constraint is a range


class TestResults:
    def _info(self, provider: str) -> ResourceInfo:
        return ResourceInfo("cpu", 1.0, provider)

    def test_query_result_providers(self):
        r = QueryResult(matches=(self._info("a"), self._info("b"), self._info("a")),
                        hops=3, visited_nodes=1)
        assert r.providers == {"a", "b"}

    def test_multi_result_accounting(self):
        subs = (
            QueryResult((), hops=3, visited_nodes=1),
            QueryResult((), hops=5, visited_nodes=4),
        )
        mr = MultiQueryResult(providers=frozenset({"x"}), sub_results=subs)
        assert mr.total_hops == 8
        assert mr.total_visited == 5
        assert mr.latency_hops == 5
        assert mr.num_matches == 1
