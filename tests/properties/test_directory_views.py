"""The ordered read view of :class:`~repro.overlay.node.OverlayNode`.

``items_at`` / ``items_in`` called with ``(attribute, low, high)`` answer
from a lazily built, write-flushed sorted view.  The property: over any
interleaving of the four write paths and reads, a filtered read is exactly
the brute-force filter of the un-filtered read — as a multiset — and comes
back in value order.  Reads are interleaved with the writes so a view that
survives a write it should not have is caught at the next read.
"""

from __future__ import annotations

from collections import Counter
from math import inf

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.resource import ResourceInfo
from repro.overlay.node import OverlayNode

NAMESPACES = ("ns-a", "ns-b")
KEYS = (0, 1, 7)
ATTRIBUTES = ("cpu", "mem", "os")
#: Few distinct values, so equal values and duplicate infos are common.
VALUES = (-3.0, 0.0, 1.0, 1.0, 2.5, 1e9)

info_st = st.builds(
    ResourceInfo,
    st.sampled_from(ATTRIBUTES),
    st.sampled_from(VALUES),
    st.sampled_from(("p0", "p1")),
)
namespace_st = st.sampled_from(NAMESPACES)
key_st = st.sampled_from(KEYS)
low_st = st.sampled_from((-inf, *VALUES, 0.5, inf))
high_st = st.sampled_from((inf, *VALUES, 0.5, -inf))
read_st = st.tuples(
    namespace_st, st.none() | key_st, st.sampled_from(ATTRIBUTES), low_st, high_st
)
op_st = st.one_of(
    st.tuples(st.just("store"), namespace_st, key_st, info_st),
    st.tuples(st.just("remove_item"), namespace_st, key_st, info_st),
    st.tuples(st.just("remove_items"), namespace_st, key_st),
    st.tuples(st.just("clear_storage")),
    st.tuples(st.just("read"), read_st),
)


def _check_read(node: OverlayNode, namespace, key_id, attribute, low, high) -> None:
    if key_id is None:
        everything = node.items_in(namespace)
        got = node.items_in(namespace, attribute, low, high)
    else:
        everything = node.items_at(namespace, key_id)
        got = node.items_at(namespace, key_id, attribute, low, high)
    want = [
        info for info in everything
        if info.attribute == attribute and low <= info.value <= high
    ]
    assert Counter(got) == Counter(want)
    values = [info.value for info in got]
    assert values == sorted(values)


READ = ("read", ("ns-a", 0, "cpu", -inf, inf))


@example(ops=[("store", "ns-a", 0, ResourceInfo("cpu", 1, "p")), READ, ("clear_storage",), READ],
         final_reads=[])
@given(ops=st.lists(op_st, max_size=40), final_reads=st.lists(read_st, max_size=6))
def test_filtered_reads_equal_bruteforce_filter(ops, final_reads):
    node = OverlayNode("n")
    for op, *args in ops:
        if op == "read":
            _check_read(node, *args[0])
        else:
            getattr(node, op)(*args)
    for read in final_reads:
        _check_read(node, *read)


@given(
    infos=st.lists(info_st, min_size=1, max_size=30),
    reads=st.lists(read_st, min_size=1, max_size=8),
)
def test_reads_leave_the_unfiltered_order_alone(infos, reads):
    """Building views must not reorder what handover, repair and
    ``bucket_counts`` read: the bucket lists keep insertion order."""
    node = OverlayNode("n")
    for index, info in enumerate(infos):
        node.store(NAMESPACES[index % 2], KEYS[index % 3], info)
    before = node.stored_entries()
    for read in reads:
        _check_read(node, *read)
    assert node.stored_entries() == before
