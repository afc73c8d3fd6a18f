"""The result and request records' contract: immutable values.

``Query``, ``QueryResult``, ``MultiQueryResult`` and ``LookupResult`` are
built on every sub-query and every lookup.  Whatever they are built from,
each stays immutable, hashable and equal by value, with the same fields
in the same order, the same defaults, the same properties and the same
``repr``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.resource import (
    AttributeConstraint,
    MultiQueryResult,
    Query,
    QueryResult,
    ResourceInfo,
)
from repro.overlay.node import LookupResult

CPU = AttributeConstraint.between("cpu", 1.0, 2.0)
A = ResourceInfo("cpu", 1.5, "a")
B = ResourceInfo("cpu", 1.2, "b")


def _sample_records():
    """One record of each type, built by keyword with every default."""
    sub = QueryResult(matches=(A, B, A), hops=3, visited_nodes=2)
    return [
        Query(constraint=CPU),
        sub,
        MultiQueryResult(providers=frozenset({"a"}), sub_results=(sub,)),
        LookupResult(owner="node-7", hops=2, path=(1, 7)),
    ]


class TestValueSemantics:
    @pytest.mark.parametrize(
        "record, name",
        zip(_sample_records(), ["constraint", "hops", "providers", "owner"]),
        ids=lambda r: type(r).__name__ if not isinstance(r, str) else r,
    )
    def test_immutable(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        # A slotted frozen dataclass raises TypeError here (its generated
        # ``__setattr__`` calls ``super()`` on the pre-slots class);
        # either way no attribute is added.
        with pytest.raises((AttributeError, TypeError)):
            record.no_such_field = 1

    @pytest.mark.parametrize("record", _sample_records(), ids=lambda r: type(r).__name__)
    def test_hash_and_equality_by_value(self, record):
        twin = next(r for r in _sample_records() if type(r) is type(record))
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert len({twin, record}) == 1

    @pytest.mark.parametrize("record", _sample_records(), ids=lambda r: type(r).__name__)
    def test_pickle_and_copy_round_trip(self, record):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record == copy.deepcopy(record)

    def test_differing_fields_differ(self):
        assert Query(CPU) != Query(CPU, "someone")
        assert QueryResult((), 1, 1) != QueryResult((), 1, 1, complete=False)
        assert QueryResult((), 1, 1) != QueryResult((), 1, 1, latency=0.5)
        assert LookupResult("n", 1, (1,)) != LookupResult("n", 1, (1,), retries=1)
        assert MultiQueryResult(frozenset(), ()) != MultiQueryResult(frozenset({"a"}), ())

    def test_slotted(self):
        for record in _sample_records()[:3]:
            assert not hasattr(record, "__dict__")


class TestFieldsDefaultsAndRepr:
    def test_query(self):
        q = Query(CPU)
        assert repr(q) == f"Query(constraint={CPU!r}, requester='requester')"
        assert Query(CPU, "me") == Query(constraint=CPU, requester="me")
        assert (q.constraint, q.requester) == (CPU, "requester")

    def test_query_result(self):
        r = QueryResult((A,), 3, 2)
        assert repr(r) == (
            f"QueryResult(matches=({A!r},), hops=3, visited_nodes=2, complete=True, "
            "retries=0, timed_out=False, latency=0.0)"
        )
        full = QueryResult((A,), 3, 2, False, 1, True, 0.25)
        assert full == QueryResult(
            matches=(A,), hops=3, visited_nodes=2, complete=False,
            retries=1, timed_out=True, latency=0.25,
        )
        assert (
            full.matches, full.hops, full.visited_nodes, full.complete,
            full.retries, full.timed_out, full.latency,
        ) == ((A,), 3, 2, False, 1, True, 0.25)

    def test_multi_query_result(self):
        sub = QueryResult((), 1, 1)
        mr = MultiQueryResult(frozenset({"a"}), (sub,))
        assert repr(mr) == f"MultiQueryResult(providers=frozenset({{'a'}}), sub_results=({sub!r},))"
        assert mr == MultiQueryResult(providers=frozenset({"a"}), sub_results=(sub,))

    def test_lookup_result(self):
        r = LookupResult("node-7", 2, (1, 7))
        assert repr(r) == (
            "LookupResult(owner='node-7', hops=2, path=(1, 7), complete=True, "
            "retries=0, timed_out=False)"
        )
        full = LookupResult("n", 4, (0, 1), False, 2, True)
        assert full == LookupResult(
            owner="n", hops=4, path=(0, 1), complete=False, retries=2, timed_out=True
        )
        assert (
            full.owner, full.hops, full.path, full.complete, full.retries, full.timed_out,
        ) == ("n", 4, (0, 1), False, 2, True)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Query(),
            lambda: QueryResult((), 1),
            lambda: MultiQueryResult(frozenset()),
            lambda: LookupResult("n", 1),
            lambda: Query(CPU, "r", "extra"),
        ],
    )
    def test_required_fields_and_arity(self, build):
        with pytest.raises(TypeError):
            build()


class TestProperties:
    def test_query(self):
        assert Query(CPU).attribute == "cpu"
        assert Query(CPU).is_range
        assert not Query(AttributeConstraint.point("cpu", 1.0)).is_range

    def test_query_result_providers(self):
        assert QueryResult((A, B, A), 1, 1).providers == frozenset({"a", "b"})
        assert QueryResult((), 1, 1).providers == frozenset()

    def test_multi_query_result(self):
        subs = (
            QueryResult((), 3, 1, retries=1, latency=0.5),
            QueryResult((), 5, 4, complete=False, latency=0.25),
        )
        mr = MultiQueryResult(frozenset({"x", "y"}), subs)
        assert (mr.total_hops, mr.total_visited, mr.latency_hops) == (8, 5, 5)
        assert (mr.latency, mr.num_matches, mr.retries) == (0.5, 2, 1)
        assert not mr.complete
        empty = MultiQueryResult(frozenset(), ())
        assert (empty.latency_hops, empty.latency, empty.complete) == (0, 0.0, True)
