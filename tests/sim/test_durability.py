"""Tests for durability policies: placement, erasure semantics, deficit."""

from __future__ import annotations

import pytest

from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidOverlay
from repro.sim.durability import (
    DEFAULT_POLICY_SPECS,
    DurabilityPolicy,
    SuccessorPlacement,
    SymmetricPlacement,
    decodable_level,
    erasure_code,
    parse_policy,
    successor_replication,
)
from repro.sim.invariants import (
    check_replica_placement,
    directory_census,
    install_churn_guards,
)
from repro.sim.recovery import replica_deficit


def _loaded_ring(policy=None, replication: int = 2) -> ChordRing:
    if policy is None:
        ring = ChordRing(6, durability=successor_replication(replication))
    else:
        ring = ChordRing(6, durability=policy)
    ring.build_full()
    for key in range(0, 64, 4):
        ring.store("ns", key, f"v{key}")
    return ring


class TestDecodableLevel:
    def test_threshold_one_is_max(self):
        assert decodable_level([3, 1, 2], 1) == 3
        assert decodable_level([], 1) == 0

    def test_threshold_is_kth_largest(self):
        assert decodable_level([3, 1, 2], 2) == 2
        assert decodable_level([3, 1, 2], 3) == 1

    def test_fewer_holders_than_threshold_is_lost(self):
        assert decodable_level([5], 2) == 0
        assert decodable_level([], 2) == 0


class TestPolicyConstruction:
    def test_replication_factors(self):
        policy = successor_replication(3)
        assert policy.fragments == 3
        assert policy.threshold == 1
        assert policy.fragment_weight == 1.0
        assert policy.storage_overhead == 3.0
        assert not policy.is_erasure

    def test_erasure_factors(self):
        policy = erasure_code(2, 1)
        assert policy.fragments == 3
        assert policy.threshold == 2
        assert policy.fragment_weight == 0.5
        assert policy.storage_overhead == 1.5
        assert policy.is_erasure

    def test_zero_fragments_rejected(self):
        with pytest.raises(ValueError):
            DurabilityPolicy(name="bad", fragments=0)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DurabilityPolicy(name="bad", fragments=2, threshold=3)

    def test_erasure_needs_parity(self):
        with pytest.raises(ValueError):
            erasure_code(2, 0)

    def test_successor_placement_bounded_by_successor_list(self):
        with pytest.raises(ValueError):
            ChordRing(6, durability=successor_replication(100))

    def test_symmetric_placement_not_bounded_at_ctor_time(self):
        ring = ChordRing(6, durability=parse_policy("symmetric:100"))
        ring.build_full()  # degraded placements report via deficit, not ctor


class TestParsePolicy:
    @pytest.mark.parametrize("spec", DEFAULT_POLICY_SPECS)
    def test_default_specs_round_trip(self, spec):
        assert parse_policy(spec).name == spec

    def test_placement_override(self):
        policy = parse_policy("erasure:2+1@successor")
        assert isinstance(policy.placement, SuccessorPlacement)
        assert policy.threshold == 2
        policy = parse_policy("replication:2@symmetric")
        assert isinstance(policy.placement, SymmetricPlacement)

    @pytest.mark.parametrize(
        "spec", ["replication", "bogus:2", "erasure:x+y", "symmetric:2@mars"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_policy(spec)


class TestDefaultPolicyByteIdentity:
    def test_chord_replica_sets_unchanged(self):
        # No policy is the paper's model: one copy, on the owner.
        legacy = ChordRing(6)
        legacy.build_full()
        explicit = ChordRing(6, durability=successor_replication(1))
        explicit.build_full()
        for key in range(64):
            assert [n.node_id for n in legacy.replica_set_of(legacy.key_id(key))] == [
                n.node_id for n in explicit.replica_set_of(explicit.key_id(key))
            ]

    def test_cycloid_replica_sets_unchanged(self):
        legacy = CycloidOverlay(3)
        legacy.build_full()
        explicit = CycloidOverlay(3, durability=successor_replication(1))
        explicit.build_full()
        for key_id in range(legacy.capacity):
            key = legacy.delinearize(key_id)
            assert [n.cid for n in legacy.replica_set_of(legacy.key_id(key))] == [
                n.cid for n in explicit.replica_set_of(explicit.key_id(key))
            ]


class TestSymmetricPlacement:
    def test_owner_first_and_spread(self):
        ring = _loaded_ring(parse_policy("symmetric:2"))
        for key in range(0, 64, 4):
            holders = ring.replica_set_of(ring.key_id(key))
            assert holders[0].node_id == key
            assert holders[1].node_id == (key + 32) % 64

    def test_sparse_ring_pads_with_distinct_successors(self):
        ring = ChordRing(6, durability=parse_policy("symmetric:3"))
        ring.build([0, 1, 2])  # every offset resolves near the same arc
        holders = ring.replica_set_of(5)
        ids = [n.node_id for n in holders]
        assert len(ids) == len(set(ids)) == 3

    def test_placement_survives_repair_and_validates(self):
        ring = _loaded_ring(parse_policy("symmetric:2"))
        ring.repair_replication()
        check_replica_placement(ring)
        assert replica_deficit(ring) == 0


class TestErasureEdgeCases:
    """Satellite: k=1 degenerates, m losses decode, m+1 losses are lost."""

    def test_k1_degenerates_to_replication(self):
        degen = _loaded_ring(erasure_code(1, 1, placement="successor"))
        plain = _loaded_ring(successor_replication(2))
        crash = [9, 27, 42]
        for ring in (degen, plain):
            ring.repair_replication()
            for victim in crash:
                ring.fail(victim)
        assert directory_census(degen, degen.durability) == directory_census(
            plain, plain.durability
        )
        assert replica_deficit(degen) == replica_deficit(plain)
        degen.repair_replication()
        plain.repair_replication()
        assert replica_deficit(degen) == replica_deficit(plain) == 0

    def test_losing_exactly_m_fragments_still_decodes(self):
        ring = _loaded_ring(erasure_code(2, 1))  # 3 fragments, any 2 decode
        ring.repair_replication()
        before = directory_census(ring, ring.durability)
        holders = ring.replica_set_of(8)
        ring.fail(holders[-1].node_id)  # m = 1 holder lost
        assert directory_census(ring, ring.durability)[("ns", 8, "v8")] == 1
        assert replica_deficit(ring) > 0
        ring.repair_replication()
        assert replica_deficit(ring) == 0
        assert directory_census(ring, ring.durability) == before

    def test_losing_m_plus_one_fragments_loses_the_piece(self):
        ring = _loaded_ring(erasure_code(2, 1))
        ring.repair_replication()
        holders = ring.replica_set_of(8)
        for node in holders[-2:]:  # m + 1 = 2 holders lost: k - 1 remain
            ring.fail(node.node_id)
        census = directory_census(ring, ring.durability)
        assert ("ns", 8, "v8") not in census  # reported lost, no silent success
        ring.repair_replication()
        # Repair purges the undecodable fragment instead of resurrecting it.
        assert ("ns", 8, "v8") not in directory_census(ring, ring.durability)
        assert not any(
            item == "v8"
            for node in ring.nodes()
            for _, _, item in node.stored_entries()
        )
        assert replica_deficit(ring) == 0


class TestCrashRejoinDeficit:
    """Satellite regression: a crashed-then-rejoined node is not counted
    as still-missing evidence, so the deficit timeline ends at zero."""

    def test_deficit_timeline_crash_repair_rejoin(self):
        ring = _loaded_ring(successor_replication(2))
        ring.repair_replication()
        timeline = [replica_deficit(ring)]
        ring.fail(8)
        timeline.append(replica_deficit(ring))
        ring.repair_replication()
        timeline.append(replica_deficit(ring))
        ring.join(8)
        timeline.append(replica_deficit(ring))
        assert timeline[0] == 0
        assert timeline[1] > 0  # the crash removed a holder
        assert timeline[2] == 0  # repair restored redundancy
        assert timeline[3] == 0  # the rejoin must not re-open the deficit

    def test_rejoin_before_repair_keeps_the_deficit(self):
        ring = _loaded_ring(successor_replication(2))
        ring.repair_replication()
        ring.fail(8)
        wounded = replica_deficit(ring)
        assert wounded > 0
        ring.join(8)  # rejoins empty: redundancy is still missing
        assert replica_deficit(ring) == wounded
        ring.repair_replication()
        assert replica_deficit(ring) == 0

    def test_guarded_erasure_churn_cycle(self):
        """Fragment fate-sharing on join/leave is guarded as lose-only."""

        class _Service:
            def __init__(self, overlay):
                self.overlay = overlay

            def churn_join(self):
                return self.overlay.join(8)

            def churn_leave(self):
                return self.overlay.leave(9)

            def churn_fail(self):
                return self.overlay.fail(10)

            def stabilize(self):
                return self.overlay.stabilize_all()

        ring = _loaded_ring(erasure_code(2, 1))
        ring.repair_replication()
        service = _Service(ring)
        install_churn_guards(service)
        service.churn_leave()
        service.churn_fail()
        service.stabilize()
        ring.repair_replication()
        assert replica_deficit(ring) == 0
