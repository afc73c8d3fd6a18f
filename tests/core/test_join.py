"""Tests for the requester-side join operation."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.join import join_on_provider
from repro.core.resource import ResourceInfo


def infos(attr: str, providers: list[str]) -> list[ResourceInfo]:
    return [ResourceInfo(attr, 1.0, p) for p in providers]


class TestJoin:
    def test_intersection(self):
        result = join_on_provider(
            [infos("cpu", ["a", "b", "c"]), infos("mem", ["b", "c", "d"])]
        )
        assert result == {"b", "c"}

    def test_single_attribute_identity(self):
        assert join_on_provider([infos("cpu", ["a", "b"])]) == {"a", "b"}

    def test_empty_sub_result_kills_join(self):
        assert join_on_provider([infos("cpu", ["a"]), []]) == frozenset()

    def test_no_sub_queries(self):
        assert join_on_provider([]) == frozenset()

    def test_duplicates_within_attribute_ignored(self):
        result = join_on_provider(
            [infos("cpu", ["a", "a"]), infos("mem", ["a"])]
        )
        assert result == {"a"}

    def test_three_way(self):
        result = join_on_provider(
            [
                infos("cpu", ["a", "b", "c"]),
                infos("mem", ["a", "c"]),
                infos("disk", ["c", "d"]),
            ]
        )
        assert result == {"c"}

    providers = st.lists(st.sampled_from("abcdefgh"), max_size=8)

    @given(a=providers, b=providers)
    def test_matches_set_intersection(self, a, b):
        result = join_on_provider([infos("x", a), infos("y", b)])
        assert result == set(a) & set(b)

    @given(a=providers)
    def test_idempotent(self, a):
        assert join_on_provider([infos("x", a), infos("y", a)]) == set(a)


def seed_join(per_attribute_matches):
    """The seed's join, verbatim: one frozenset per sub-result, folded."""
    if not per_attribute_matches:
        return frozenset()
    provider_sets = [
        frozenset(info.provider for info in matches)
        for matches in per_attribute_matches
    ]
    result = provider_sets[0]
    for providers in provider_sets[1:]:
        result &= providers
        if not result:
            break
    return frozenset(result)


class TestSeedFoldOracle:
    """The size-ordered single-set join answers what the seed's
    frozenset fold answered, on every shape of sub-result list."""

    #: Small alphabets make duplicates and overlaps likely; the two
    #: disjoint halves make empty intersections likely.
    match_lists = st.lists(
        st.lists(
            st.one_of(st.sampled_from("abcdef"), st.sampled_from("uvwxyz")),
            max_size=12,
        ),
        max_size=10,
    )

    @given(lists=match_lists)
    def test_equals_the_seed_fold(self, lists):
        matches = [infos(f"attr-{i}", providers) for i, providers in enumerate(lists)]
        result = join_on_provider(matches)
        assert type(result) is frozenset
        assert result == seed_join(matches)

    @given(lists=match_lists)
    def test_tuples_and_lists_agree(self, lists):
        matches = [infos(f"attr-{i}", providers) for i, providers in enumerate(lists)]
        assert join_on_provider([tuple(m) for m in matches]) == seed_join(matches)

    def test_disjoint_sets_join_to_nothing(self):
        assert join_on_provider([infos("cpu", ["a", "b"]), infos("mem", ["c", "d"])]) == frozenset()

    def test_empty_iterator_is_the_empty_join(self):
        assert join_on_provider(iter(())) == frozenset()

    def test_iterator_of_sub_results(self):
        lists = [infos("cpu", ["a", "b", "c"]), infos("mem", ["c", "b"])]
        assert join_on_provider(iter(lists)) == {"b", "c"}
