"""Unit tests for the ReCord randomized-Chord overlay."""

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.record import ReCordOverlay


def build_ring(bits=6, fanout=2, seed=0, step=1):
    ring = ReCordOverlay(bits=bits, fanout=fanout, seed=seed)
    ring.build(range(0, 1 << bits, step))
    return ring


def test_fanout_must_be_positive():
    with pytest.raises(ValueError):
        ReCordOverlay(bits=4, fanout=0)


def test_lookups_resolve_to_the_true_owner():
    ring = build_ring(bits=6, fanout=3, step=3)
    for key in range(0, ring.space.size, 5):
        result = ring.lookup(ring.node(0), key)
        assert result.owner is ring.successor_of(key)
        assert result.hops <= ring.bits + 1


def test_fingers_sorted_by_clockwise_distance():
    ring = build_ring(bits=6, fanout=4, step=1)
    size = ring.space.size
    for node in ring.nodes():
        dists = [(f.node_id - node.node_id) % size for f in node.fingers]
        assert dists == sorted(dists)


def test_deterministic_anchor_present_at_every_level():
    ring = build_ring(bits=6, fanout=3, step=3)
    for node in ring.nodes():
        finger_ids = {f.node_id for f in node.fingers}
        for level in range(ring.bits):
            anchor = ring.successor_of(node.node_id + (1 << level))
            assert anchor.node_id in finger_ids


def test_fanout_one_is_byte_identical_to_chord():
    chord = ChordRing(bits=6)
    chord.build(range(0, 64, 3))
    record = build_ring(bits=6, fanout=1, step=3)
    for cn, rn in zip(chord.nodes(), record.nodes()):
        assert [f.node_id for f in cn.fingers] == [f.node_id for f in rn.fingers]
    for key in range(0, 64, 7):
        assert chord.lookup(chord.node(0), key).path == \
            record.lookup(record.node(0), key).path


def test_sampled_offsets_are_stable_and_nested():
    ring = build_ring(bits=6, fanout=4)
    assert ring._sample_offset(5, 4, 1) == ring._sample_offset(5, 4, 1)
    # Nested sampling: the fan-out-h table reuses the first h-1 draws, so
    # a larger fan-out strictly adds fingers.
    small = build_ring(bits=6, fanout=2, step=3)
    large = build_ring(bits=6, fanout=4, step=3)
    for s_node, l_node in zip(small.nodes(), large.nodes()):
        s_ids = {f.node_id for f in s_node.fingers}
        l_ids = {f.node_id for f in l_node.fingers}
        assert s_ids <= l_ids


def test_mean_hops_non_increasing_in_fanout():
    means = []
    for fanout in (1, 2, 8):
        ring = build_ring(bits=7, fanout=fanout, step=1)
        keys = range(0, ring.space.size, 3)
        hops = [ring.lookup(ring.node(0), key).hops for key in keys]
        means.append(sum(hops) / len(hops))
    assert means[0] >= means[1] >= means[2]


def test_different_seeds_sample_different_fingers():
    a = build_ring(bits=6, fanout=4, seed=1, step=1)
    b = build_ring(bits=6, fanout=4, seed=2, step=1)
    tables_differ = any(
        [f.node_id for f in na.fingers] != [f.node_id for f in nb.fingers]
        for na, nb in zip(a.nodes(), b.nodes())
    )
    assert tables_differ


def test_invariants_and_routing_survive_churn():
    ring = build_ring(bits=6, fanout=3, step=3)
    ring.leave(ring.node_ids[4])
    ring.fail(ring.node_ids[-1])
    ring.join(1)
    ring.stabilize_all()
    ring.check_invariants()
    for key in range(0, ring.space.size, 5):
        result = ring.lookup(ring.node(ring.node_ids[0]), key)
        assert result.owner is ring.successor_of(key)
        assert result.hops <= ring.bits + 1
