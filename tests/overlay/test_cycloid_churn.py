"""Tests for Cycloid join/leave, repairs and storms."""

from __future__ import annotations

import random

import pytest

from repro.overlay.cycloid import CycloidId, CycloidOverlay


@pytest.fixture
def overlay() -> CycloidOverlay:
    overlay = CycloidOverlay(4)
    overlay.build_full()
    return overlay


def _all_ids(d: int) -> list[CycloidId]:
    return [CycloidId(k, a) for a in range(1 << d) for k in range(d)]


class TestJoin:
    def test_join_into_vacancy(self, overlay):
        overlay.leave(CycloidId(2, 5))
        node = overlay.join(CycloidId(2, 5))
        assert node.cid == CycloidId(2, 5)
        assert overlay.num_nodes == 64

    def test_join_duplicate_rejected(self, overlay):
        with pytest.raises(ValueError):
            overlay.join(CycloidId(0, 0))

    def test_join_takes_over_keys(self, overlay):
        key = CycloidId(2, 5)
        overlay.leave(key)
        fallback_owner = overlay.closest_node(key)
        overlay.store("ns", key, "payload")
        assert fallback_owner.items_at("ns", overlay.linearize(key)) == ["payload"]
        node = overlay.join(key)
        assert node.items_at("ns", overlay.linearize(key)) == ["payload"]
        assert fallback_owner.items_at("ns", overlay.linearize(key)) == []

    def test_join_creates_new_cluster(self):
        overlay = CycloidOverlay(3)
        overlay.build([CycloidId(0, 0), CycloidId(1, 0)])
        overlay.join(CycloidId(2, 4))
        assert 4 in overlay._cluster_ids
        overlay.check_invariants()

    def test_leaf_sets_repaired_after_join(self, overlay):
        overlay.leave(CycloidId(1, 3))
        overlay.join(CycloidId(1, 3))
        overlay.check_invariants()


class TestLeave:
    def test_leave_removes_node(self, overlay):
        overlay.leave(CycloidId(0, 7))
        assert CycloidId(0, 7) not in overlay.node_ids

    def test_leave_transfers_keys(self, overlay):
        key = CycloidId(3, 9)
        overlay.store("ns", key, "v")
        overlay.leave(key)
        new_owner = overlay.closest_node(key)
        assert new_owner.items_at("ns", overlay.linearize(key)) == ["v"]

    def test_leave_last_member_removes_cluster(self, overlay):
        for k in range(4):
            overlay.leave(CycloidId(k, 11))
        assert 11 not in overlay._cluster_ids
        overlay.check_invariants()

    def test_cannot_remove_last_node(self):
        overlay = CycloidOverlay(3)
        overlay.build([CycloidId(0, 0)])
        with pytest.raises(ValueError):
            overlay.leave(CycloidId(0, 0))

    def test_lookups_correct_after_leaves(self, overlay):
        r = random.Random(6)
        ids = list(overlay.node_ids)
        for victim in r.sample(ids, 12):
            overlay.leave(victim)
        live = overlay.node_ids
        for _ in range(200):
            start = overlay.node(live[r.randrange(len(live))])
            target = CycloidId(r.randrange(4), r.randrange(16))
            assert overlay.lookup(start, target).owner is overlay.closest_node(target)


class TestChurnStorm:
    def test_storm_preserves_data_and_routing(self, overlay):
        r = random.Random(8)
        for cid in _all_ids(4)[::2]:
            overlay.store("storm", cid, overlay.linearize(cid))
        total = sum(n.directory_size("storm") for n in overlay.nodes())
        departed: list[CycloidId] = []
        for step in range(120):
            if (r.random() < 0.5 or not departed) and overlay.num_nodes > 8:
                victim = overlay.node_ids[r.randrange(overlay.num_nodes)]
                overlay.leave(victim)
                departed.append(victim)
            elif departed:
                overlay.join(departed.pop(r.randrange(len(departed))))
            if step % 25 == 0:
                overlay.stabilize_all()
        assert sum(n.directory_size("storm") for n in overlay.nodes()) == total
        overlay.check_invariants()
        live = overlay.node_ids
        for _ in range(150):
            start = overlay.node(live[r.randrange(len(live))])
            target = CycloidId(r.randrange(4), r.randrange(16))
            assert overlay.lookup(start, target).owner is overlay.closest_node(target)

    def test_every_key_lands_on_its_current_owner(self, overlay):
        """After churn, each stored key sits exactly where closest_node says."""
        r = random.Random(20)
        for cid in _all_ids(4)[::3]:
            overlay.store("own", cid, str(cid))
        departed = []
        for _ in range(40):
            if r.random() < 0.6 and overlay.num_nodes > 8:
                victim = overlay.node_ids[r.randrange(overlay.num_nodes)]
                overlay.leave(victim)
                departed.append(victim)
            elif departed:
                overlay.join(departed.pop())
        for cid in _all_ids(4)[::3]:
            owner = overlay.closest_node(cid)
            assert owner.items_at("own", overlay.linearize(cid)) == [str(cid)]

    def test_maintenance_counted(self, overlay):
        before = overlay.network.stats.maintenance_messages
        overlay.leave(CycloidId(0, 0))
        assert overlay.network.stats.maintenance_messages > before
