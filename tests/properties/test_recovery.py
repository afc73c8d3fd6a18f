"""Hypothesis properties of budgeted self-healing maintenance.

The contract the recovery experiment leans on, stated as properties:

* unbounded budget is *complete* — after any crash storm the overlay is
  structurally clean, every surviving key is fully replicated in place,
  and the census is conserved (replication >= 2 means single crashes
  lose nothing);
* zero budget is *inert* — whatever replica deficit a crash storm left
  persists through any number of maintenance rounds, so non-recovery is
  observable rather than assumed.

Both properties hold along the *durability-policy axis* too: successor
replication, symmetric spread replication and erasure coding all repair
to zero deficit under an unlimited sweep, and bounded partial sweeps
conserve the policy's (decodable) census at every step.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.overlay.chord import ChordRing
from repro.sim.durability import erasure_code, parse_policy, successor_replication
from repro.sim.invariants import (
    check_overlay,
    check_replica_placement,
    directory_census,
)
from repro.sim.maintenance import (
    UNLIMITED_BUDGET,
    ZERO_BUDGET,
    MaintenanceBudget,
    MaintenanceRound,
)
from repro.sim.recovery import replica_deficit

slow = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: One policy per placement × redundancy kind the engine supports.
POLICIES = [
    successor_replication(2),
    parse_policy("symmetric:2"),
    erasure_code(2, 1),
]


def _stormed_ring(keys, crash_seq, policy=None) -> ChordRing:
    """A replicated ring loaded with ``keys``, then hit by a crash storm.

    ``crash_seq`` picks victims by index into the shrinking live set; the
    storm always leaves at least two nodes alive.  ``policy`` swaps the
    default successor replication for any durability policy (the storm
    then strikes a ring repaired into that policy's placement).
    """
    ring = (
        ChordRing(6, durability=successor_replication(2))
        if policy is None
        else ChordRing(6, durability=policy)
    )
    ring.build_full()
    for key in keys:
        ring.store("ns", key, f"v{key}")
    if policy is not None:
        ring.repair_replication()  # place fragments per the policy first
    for pick in crash_seq:
        if ring.num_nodes <= 2:
            break
        ring.fail(ring.node_ids[pick % ring.num_nodes])
    return ring


keys_strategy = st.lists(
    st.integers(0, 63), min_size=1, max_size=12, unique=True
)
storm_strategy = st.lists(st.integers(0, 1000), min_size=1, max_size=12)


class TestUnboundedBudgetIsComplete:
    @slow
    @given(keys=keys_strategy, crash_seq=storm_strategy)
    def test_one_unlimited_round_always_reconverges(self, keys, crash_seq):
        ring = _stormed_ring(keys, crash_seq)
        before = directory_census(ring)
        MaintenanceRound(ring).run(UNLIMITED_BUDGET)
        check_overlay(ring)
        check_replica_placement(ring)
        assert replica_deficit(ring) == 0
        assert directory_census(ring) == before  # r=2 survives every storm step

    @slow
    @given(
        keys=keys_strategy,
        crash_seq=storm_strategy,
        repair_keys=st.integers(1, 6),
        rounds=st.integers(0, 3),
    )
    def test_bounded_rounds_never_lose_data(self, keys, crash_seq, repair_keys, rounds):
        """Partial repair in any dose conserves the census; finishing with
        an unlimited round lands in the same healed state."""
        ring = _stormed_ring(keys, crash_seq)
        before = directory_census(ring)
        round_ = MaintenanceRound(ring)
        budget = MaintenanceBudget(
            stabilize_nodes=4, refresh_nodes=4, repair_keys=repair_keys
        )
        for _ in range(rounds):
            round_.run(budget)
            assert directory_census(ring) == before
        round_.run(UNLIMITED_BUDGET)
        assert replica_deficit(ring) == 0
        assert directory_census(ring) == before


class TestEveryPolicyRepairsCompletely:
    """The unbounded/bounded properties along the durability-policy axis."""

    @slow
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    @given(keys=keys_strategy, crash_seq=storm_strategy)
    def test_unlimited_sweep_restores_zero_deficit(self, policy, keys, crash_seq):
        ring = _stormed_ring(keys, crash_seq, policy=policy)
        before = directory_census(ring, policy)
        MaintenanceRound(ring).run(UNLIMITED_BUDGET)
        check_overlay(ring)
        check_replica_placement(ring)
        assert replica_deficit(ring) == 0
        # Whatever the storm left decodable, repair keeps — exactly.
        assert directory_census(ring, policy) == before

    @slow
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    @given(
        keys=keys_strategy,
        crash_seq=storm_strategy,
        repair_keys=st.integers(1, 6),
        rounds=st.integers(0, 3),
    )
    def test_bounded_rounds_conserve_policy_census(
        self, policy, keys, crash_seq, repair_keys, rounds
    ):
        ring = _stormed_ring(keys, crash_seq, policy=policy)
        before = directory_census(ring, policy)
        round_ = MaintenanceRound(ring)
        budget = MaintenanceBudget(
            stabilize_nodes=4, refresh_nodes=4, repair_keys=repair_keys
        )
        for _ in range(rounds):
            round_.run(budget)
            assert directory_census(ring, policy) == before
        round_.run(UNLIMITED_BUDGET)
        assert replica_deficit(ring) == 0
        assert directory_census(ring, policy) == before


class TestZeroBudgetIsInert:
    @slow
    @given(
        keys=keys_strategy,
        crash_seq=storm_strategy,
        rounds=st.integers(1, 8),
    )
    def test_deficit_persists_through_zero_budget_rounds(self, keys, crash_seq, rounds):
        ring = _stormed_ring(keys, crash_seq)
        deficit = replica_deficit(ring)
        assume(deficit > 0)  # the storm must actually have wounded a replica set
        round_ = MaintenanceRound(ring)
        steps = []
        ring.stabilize_step = ring.refresh_routing_step = steps.append
        for _ in range(rounds):
            assert round_.run(ZERO_BUDGET) == 0  # copies moved
        assert steps == []
        assert replica_deficit(ring) == deficit
