"""Hypothesis properties: arbitrary churn interleavings leave the overlays
routable and repairable.

Random sequences of ``churn_leave`` / ``churn_fail`` / ``churn_join`` /
``stabilize`` — in any order, including failures striking mid-repair — must
never corrupt an overlay: after a final stabilization round the ring
invariants hold, every lookup lands on the true owner, and
``repair_replication`` re-homes every *surviving* copy onto exactly its
replica set.  (With replication 2, two adjacent crashes between repairs can
legitimately lose a key — the property is about placement of what
survives, not about zero loss.)
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.mercury import MercuryService
from repro.core.lorm import LormService
from repro.core.resource import ResourceInfo
from repro.sim.durability import successor_replication
from repro.workloads.attributes import AttributeSchema

SCHEMA = AttributeSchema.synthetic(4)

slow = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

OPS = ("leave", "fail", "join", "stabilize")

op_sequences = st.lists(st.sampled_from(OPS), min_size=0, max_size=25)


def _apply(service, op: str) -> None:
    if op == "leave":
        service.churn_leave()
    elif op == "fail":
        service.churn_fail()
    elif op == "join":
        service.churn_join()
    else:
        service.stabilize()


def _register_some(service, count: int = 12) -> None:
    spec = SCHEMA.specs[0]
    step = (spec.hi - spec.lo) / (count + 1)
    for i in range(count):
        info = ResourceInfo(spec.name, spec.lo + (i + 1) * step, f"prov-{i:02d}")
        service.register(info, routed=False)


def _stored_placement(overlay) -> dict[tuple[str, int], set]:
    """(namespace, key) -> the IDs of the nodes currently holding a copy."""
    placement: dict[tuple[str, int], set] = {}
    for node in list(overlay.nodes()):
        for namespace, key_id, _item in node.stored_entries():
            placement.setdefault((namespace, key_id), set()).add(
                node.node_id if hasattr(node, "node_id") else node.cid
            )
    return placement


class TestChordChurnSequences:
    @slow
    @given(ops=op_sequences, seed=st.integers(0, 1 << 20))
    def test_ring_routable_and_replicas_restored(self, ops, seed):
        service = MercuryService.build(
            6, 40, SCHEMA, seed=seed, durability=successor_replication(2)
        )
        _register_some(service)
        for op in ops:
            _apply(service, op)
        service.stabilize()
        ring = service.ring
        ring.check_invariants()

        # Routable: every key resolves to the true successor from any start.
        starts = ring.node_ids
        for i, key in enumerate(range(0, 64, 7)):
            start = ring.node(starts[(seed + i) % len(starts)])
            assert ring.lookup(start, key).owner is ring.successor_of(key)

        # Repair re-homes every surviving copy onto exactly its replica set.
        ring.repair_replication()
        for (_, key_id), holders in _stored_placement(ring).items():
            expected = {n.node_id for n in ring.replica_set_of(key_id)}
            assert holders == expected, (key_id, holders, expected)


class TestCycloidChurnSequences:
    @slow
    @given(ops=op_sequences, seed=st.integers(0, 1 << 20))
    def test_overlay_routable_and_replicas_restored(self, ops, seed):
        service = LormService.build_full(3, SCHEMA, seed=seed, durability=successor_replication(2))
        _register_some(service)
        for op in ops:
            _apply(service, op)
        service.stabilize()
        overlay = service.overlay
        overlay.check_invariants()

        # Routable: legacy lookup converges on the closest node (it raises
        # RuntimeError if routing state were corrupt).
        ids = overlay.node_ids
        for i in range(8):
            start = overlay.node(ids[(seed + i) % len(ids)])
            target = overlay.delinearize((seed * 7 + i * 5) % 24)
            result = overlay.lookup(start, target)
            assert result.owner is overlay.closest_node(target)

        overlay.repair_replication()
        for (_, key_id), holders in _stored_placement(overlay).items():
            expected = {
                n.cid for n in overlay.replica_set_of(key_id)
            }
            assert holders == expected, (key_id, holders, expected)
