"""Unit tests for the D1HT-style single-hop ring."""

import pytest

from repro.overlay.singlehop import SingleHopRing
from repro.sim.maintenance import UNLIMITED_BUDGET, MaintenanceRound


def build_ring(bits=6, step=3):
    ring = SingleHopRing(bits=bits)
    ring.build(range(0, 1 << bits, step))
    return ring


def test_fresh_ring_is_fully_disseminated():
    ring = build_ring()
    assert ring.pending_events() == 0


def test_every_fault_free_lookup_is_at_most_one_hop():
    ring = build_ring()
    for start in ring.node_ids:
        for key in range(0, ring.space.size, 5):
            result = ring.lookup(ring.node(start), key)
            assert result.hops <= 1
            assert result.owner is ring.successor_of(key)
            # Zero hops only when the requester already owns the key.
            if result.hops == 0:
                assert result.owner.node_id == start


def test_lookup_result_path_accounting():
    ring = build_ring()
    result = ring.lookup(ring.node(0), 17)
    assert result.hops == len(result.path) - 1
    assert all(nid in ring._nodes for nid in result.path)


def test_join_queues_events_for_distant_nodes_only():
    ring = build_ring(bits=5, step=4)
    n = ring.num_nodes
    ring.join(1)
    # Nodes outside the repaired neighbourhood owe a notification; the
    # joiner and its immediate neighbours owe none.
    assert 0 < ring.pending_events() < n
    assert ring._pending[1] == {}


def test_join_counts_full_table_download():
    ring = build_ring(bits=5, step=4)
    before = ring.network.stats.snapshot()
    ring.join(1)
    delta = ring.network.stats.delta_since(before)
    # At least n-1 membership entries plus the inherited join traffic.
    assert delta.maintenance_messages >= ring.num_nodes - 1


def test_join_then_leave_cancels_pending_events():
    ring = build_ring(bits=5, step=4)
    ring.join(1)
    ring.leave(1)
    assert ring.pending_events() == 0


def test_stale_lookup_misroutes_then_corrects():
    ring = build_ring(bits=6, step=3)
    # A node joins between 0 and its old successor; 0's neighbourhood is
    # repaired immediately but a *far* node still holds the stale view.
    far = ring.node_ids[len(ring.node_ids) // 2]
    ring.join(1)
    assert ring._pending[far].get(1) is True
    result = ring.lookup(ring.node(far), 1)
    assert result.owner.node_id == 1
    # The stale view cost at most a correction hop, never a failure.
    assert 1 <= result.hops <= 2
    assert result.path[-1] == 1


def test_departed_believed_owner_costs_a_retry_not_a_dead_hop():
    ring = build_ring(bits=6, step=3)
    ids = ring.node_ids
    victim = ids[len(ids) // 2]
    observer = ids[0]
    ring.fail(victim)
    assert ring._pending[observer].get(victim) is False
    result = ring.lookup(ring.node(observer), victim)
    assert result.retries >= 1
    assert victim not in result.path
    assert result.owner is ring.successor_of(victim)
    # The timeout taught the observer the departure.
    assert victim not in ring._pending[observer]


def test_stabilize_all_flushes_staleness_and_counts_messages():
    ring = build_ring(bits=6, step=3)
    ring.leave(ring.node_ids[-1])
    ring.join(1)
    outstanding = ring.pending_events()
    assert outstanding > 0
    before = ring.network.stats.snapshot()
    ring.stabilize_all()
    assert ring.pending_events() == 0
    delta = ring.network.stats.delta_since(before)
    assert delta.maintenance_messages >= outstanding


def test_stabilize_step_delivers_one_nodes_backlog():
    ring = build_ring(bits=6, step=3)
    ring.join(1)
    stale = next(
        nid for nid in ring.node_ids if ring._pending.get(nid)
    )
    ring.stabilize_step(ring.node(stale))
    assert ring._pending[stale] == {}


def test_maintenance_round_with_unlimited_budget_restores_one_hop():
    ring = build_ring(bits=6, step=3)
    for victim in list(ring.node_ids[5:9]):
        ring.leave(victim)
    ring.join(1)
    ring.join(2)
    MaintenanceRound(ring).run(UNLIMITED_BUDGET)
    assert ring.pending_events() == 0
    for start in ring.node_ids[:8]:
        for key in range(0, ring.space.size, 7):
            assert ring.lookup(ring.node(start), key).hops <= 1


def test_edge_kind_attributes_long_jumps_to_the_membership_table():
    ring = build_ring(bits=6, step=3)
    src = ring.node(0)
    far = ring.successor_of(ring.space.size // 2)
    assert ring.edge_kind(src, far) == "membership"
    assert ring.edge_kind(src, src.successor) == "successor"


def test_ring_invariants_hold_through_churn():
    ring = build_ring(bits=6, step=3)
    ring.leave(ring.node_ids[2])
    ring.fail(ring.node_ids[-1])
    ring.join(1)
    ring.check_invariants()


def test_duplicate_join_raises_like_chord():
    ring = build_ring(bits=5, step=4)
    with pytest.raises(ValueError):
        ring.join(ring.node_ids[0])
    # The failed join must not leave phantom pending events behind.
    assert ring.pending_events() == 0
