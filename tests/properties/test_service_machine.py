"""One service state machine for the four discovery services.

:class:`Service` drives a service built through ``build_service`` beside
its reference twin: the same build with ``routing_cache=False``, loaded
and written one ``register`` per info.  The subject loads and bulk-writes
through ``register_all``; with the caches on, its fault-free range walks
are slices of the membership index, read as one arc of the overlay's
``ArcDirectory``, and SWORD's and MAAN's directory reads go through the
nodes' ordered views, while the twin steps pointers and reads node by
node.  Both run the same registrations, withdrawals, point, range and
multi-attribute queries from the same entry nodes, joins, leaves, fails,
stabilizations and replica repairs.  The model is a ``Counter`` of
registered infos.  Every query is checked:

* its answer holds nothing the model never registered and, unless copies
  may have been lost, every match the model's brute-force filter finds;
* it equals the twin's as a multiset, with the same ``QueryResult``
  accounting and the same ``LoadStats`` window, which records a serve per
  visited node (pointer chases add more).

After every rule ``directory_layout`` and ``network.stats`` equal the
twin's, and every built read view, routing row and the ``ArcDirectory``
equal a fresh derivation (the membership machine's ``check_memos`` and
``check_arcs``).

Write contract, as the membership machine states it: a withdrawal is
exact only while every bucket sits on its replica set (after a crash a
discard can miss a copy), so an info withdrawn
otherwise may still be found (a *ghost*).  A fail may lose copies, and
until a repair every bucket sits on its replica set.  Hot replicas are
buckets keyed by their holders' ids, under the same contract; a
visit-only root (MAAN) has hot keys but no copies under them.  ``ZOO``
plants one bug per behaviour the retired
arc-read, view, directory-read and bulk-load suites pinned, and requires
a fixed-seed drive of the machine to catch it.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from repro.baselines.base import ChordBackedService, DiscoveryService
from repro.baselines.mercury_pointers import PointerMercuryService
from repro.core.hotspot import DynamicReplicator
from repro.core.resource import AttributeConstraint, MultiAttributeQuery, Query, ResourceInfo
from repro.experiments.common import build_service, build_workload
from repro.experiments.config import SMOKE_CONFIG
from repro.overlay.base import Overlay
from repro.overlay.chord import ChordRing
from repro.overlay.node import ArcDirectory, OverlayNode
from repro.sim.durability import successor_replication
from repro.sim.invariants import check_replica_placement, directory_layout
from repro.sim.loadstats import LoadStats, LoadWindow
from repro.sim.maintenance import MaintenanceBudget
from tests.properties.test_membership_machine import check_arcs, check_memos, placed

CONFIG = SMOKE_CONFIG.scaled(
    dimension=3, chord_bits=5, num_attributes=4, infos_per_attribute=6, max_query_attributes=2
)
WORKLOAD = build_workload(CONFIG)
INFOS = tuple(WORKLOAD.resource_infos())
SCHEMA = WORKLOAD.schema
PROVIDERS = sorted({info.provider for info in INFOS})
#: Per attribute: the loaded values and a five-point grid over its domain,
#: so writes repeat values and query bounds land on stored ones.
VALUES = {
    spec.name: sorted(
        {info.value for info in INFOS if info.attribute == spec.name}
        | {spec.lo + (spec.hi - spec.lo) * i / 4 for i in range(5)}
    )
    for spec in SCHEMA.specs
}

R2 = {"durability": successor_replication(2)}
#: variant -> ``build_service`` keywords.
VARIANTS = {
    "r1": {},
    "r2": R2,
    "salted": {"salting": 3, **R2},
    "hot": {},
    "singlehop": {"overlay": "singlehop", **R2},
}
CELLS = [
    *(f"{system}/{variant}" for system in ("LORM", "Mercury", "SWORD", "MAAN")
      for variant in ("r1", "r2")),
    "SWORD/salted", "MAAN/salted", "SWORD/hot", "MAAN/hot", "Mercury/singlehop",
    "Mercury+ptr/r1",
]


def attach_hot(service: ChordBackedService) -> None:
    """Give every attribute's root its successors as hot keys (adjacent
    roots share them), with the root directory copied there if queries
    read it."""
    replicator = DynamicReplicator(service)
    service.attach_hot_replicator(replicator)
    hot = dict.fromkeys(SCHEMA.names, 1.0)
    replicator.observe(LoadWindow(serves={0: 1.0}, by_attribute=hot), service.num_nodes())
    replicator.tick(MaintenanceBudget(0, 0, 10_000))
    assert service.hot_keys.keys() == hot.keys(), "no hot key placed"


def build(cell: str, reference: bool) -> DiscoveryService:
    """``cell``'s service, loaded: the subject in one ``register_all``, the
    reference twin one ``register`` per info with the routing caches off."""
    system, variant = cell.split("/")
    pointer = system == "Mercury+ptr"
    service = build_service(
        CONFIG, "Mercury" if pointer else system, workload=WORKLOAD, register=False,
        **VARIANTS[variant],
    )
    if pointer:
        service = PointerMercuryService(service.ring, SCHEMA, seed=CONFIG.seed)
    if reference:
        service.overlay.routing_cache = False
        for info in INFOS:
            service.register(info, routed=False)
    else:
        service.register_all(INFOS)
    if variant == "hot":
        attach_hot(service)
    service.attach_load_stats(LoadStats())
    return service


def matching(infos, constraint: AttributeConstraint) -> set:
    return {
        info for info in infos
        if info.attribute == constraint.attribute and constraint.matches(info.value)
    }


def providers(infos, constraints) -> set:
    return set.intersection(*({i.provider for i in matching(infos, c)} for c in constraints))


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------
ARG = st.integers(0, 1 << 21)


class Service(RuleBasedStateMachine):
    """One ``CELLS`` entry: subject, twin and model."""

    def __init__(self, cell: str) -> None:
        super().__init__()
        self.subject, self.twin = build(cell, False), build(cell, True)
        self.pointer = cell.startswith("Mercury+ptr")
        self.model: Counter = Counter(INFOS)
        #: Withdrawn infos a stale copy may still answer with.
        self.ghosts: set = set()
        #: Whether a fail may have lost copies; whether none is unrepaired.
        self.lossy, self.placed = False, True
        self.departed: list = []

    def _both(self, call) -> list:
        return [call(service) for service in (self.subject, self.twin)]

    def _member(self, rng: random.Random):
        ids = self.subject.overlay.node_ids
        return ids[rng.randrange(len(ids))]

    # -- membership ----------------------------------------------------
    @rule(arg=ARG)
    def join(self, arg: int) -> None:
        overlay = self.subject.overlay
        self._join(overlay.key_of(arg % overlay.id_space_size))

    @rule(arg=ARG)
    def rejoin(self, arg: int) -> None:
        if self.departed:
            self._join(self.departed.pop(arg % len(self.departed)))

    def _join(self, uid) -> None:
        if uid not in self.subject.overlay:
            self._both(lambda s: s.overlay.join(uid))

    @rule(arg=ARG)
    def leave(self, arg: int) -> None:
        self._depart("leave", arg)

    @rule(arg=ARG)
    def fail(self, arg: int) -> None:
        self._depart("fail", arg)

    def _depart(self, op: str, arg: int) -> None:
        """Depart member ``arg`` (never below two members, as service churn)."""
        ids = self.subject.overlay.node_ids
        if len(ids) > 2:
            uid = ids[arg % len(ids)]
            self._both(lambda s: getattr(s.overlay, op)(uid))
            self.departed.append(uid)
            self.lossy |= op == "fail"
            self.placed &= op != "fail"

    @rule()
    def stabilize(self) -> None:
        self._both(lambda s: s.stabilize())

    @rule()
    def repair_replication(self) -> None:
        moved = self._both(lambda s: s.overlay.repair_replication())
        assert moved[0] == moved[1], "repair_replication"
        self.placed = True

    # -- writes --------------------------------------------------------
    @staticmethod
    def _info(rng: random.Random) -> ResourceInfo:
        attribute = rng.choice(SCHEMA.names)
        return ResourceInfo(attribute, rng.choice(VALUES[attribute]), rng.choice(PROVIDERS))

    @rule(arg=ARG)
    def register(self, arg: int) -> None:
        info = self._info(random.Random(arg))
        hops = self._both(lambda s: s.register(info))
        assert hops[0] == hops[1], "register hops"
        self.model[info] += 1

    @rule(arg=ARG)
    def register_all(self, arg: int) -> None:
        rng = random.Random(arg)
        infos = [self._info(rng) for _ in range(rng.randrange(2, 6))]
        self.subject.register_all(infos)
        for info in infos:
            self.twin.register(info, routed=False)
        self.model.update(infos)

    @rule(arg=ARG)
    def deregister(self, arg: int) -> None:
        """Withdraw a registered info, or (one time in four) a drawn one."""
        infos = sorted(self.model, key=repr)
        if infos and arg % 4:
            info = infos[arg % len(infos)]
        else:
            info = self._info(random.Random(arg))
        if not placed(self.subject.overlay):
            self.ghosts.add(info)
        removed = self._both(lambda s: s.deregister(info))
        assert removed[0] == removed[1], "deregister count"
        self.model -= Counter([info])

    # -- reads ---------------------------------------------------------
    @staticmethod
    def _constraint(rng: random.Random, attribute: str) -> AttributeConstraint:
        low, high = sorted(rng.choice(VALUES[attribute]) for _ in range(2))
        shape = rng.randrange(4)
        if shape == 0:
            return AttributeConstraint.point(attribute, low)
        if shape == 1:
            return AttributeConstraint.at_least(attribute, low)
        if shape == 2:
            return AttributeConstraint(attribute, None, high)
        return AttributeConstraint.between(attribute, low, high)

    @rule(arg=ARG)
    def query(self, arg: int) -> None:
        rng = random.Random(arg)
        attribute = rng.choice(SCHEMA.names)
        q = Query(self._constraint(rng, attribute), requester=f"r{rng.randrange(8)}")
        uid = self._member(rng)
        got, want = self._both(lambda s: s.query(q, s.overlay.node(uid)))
        self._same_result(got, want)
        self._served(got.visited_nodes)
        self._answer(set(got.matches), partial(matching, constraint=q.constraint))

    @rule(arg=ARG)
    def multi_query(self, arg: int) -> None:
        rng = random.Random(arg)
        attributes = rng.sample(SCHEMA.names, 2)
        mq = MultiAttributeQuery(
            tuple(self._constraint(rng, a) for a in attributes), requester=f"r{rng.randrange(8)}"
        )
        uid = self._member(rng)
        got, want = self._both(lambda s: s.multi_query(mq, s.overlay.node(uid)))
        assert got.providers == want.providers, "providers differ from the twin's"
        for one, other in zip(got.sub_results, want.sub_results):
            self._same_result(one, other)
        self._served(sum(r.visited_nodes for r in got.sub_results))
        self._answer(got.providers, partial(providers, constraints=mq.constraints))

    @staticmethod
    def _same_result(got, want) -> None:
        assert Counter(got.matches) == Counter(want.matches), "matches differ from the twin's"
        assert got[1:] == want[1:], f"accounting {got[1:]} differs from the twin's {want[1:]}"

    def _served(self, visited: int) -> None:
        windows = self._both(lambda s: s.load_stats.take_window())
        assert windows[0] == windows[1], "load window differs from the twin's"
        serves = windows[0].total_serves
        assert serves >= visited if self.pointer else serves == visited, (
            f"{serves} serves recorded for {visited} visited nodes"
        )

    def _answer(self, got: set, select) -> None:
        """``got`` between the brute-force answers ``select(infos)``: none
        beyond the registered infos and ghosts, none short of the
        registered ones unless a copy may be lost."""
        invented = got - select(self.model.keys() | self.ghosts)
        assert not invented, f"answer invented {invented}"
        if not self.lossy:
            lost = select(self.model.keys()) - got
            assert not lost, f"answer lost {lost}"

    # -- after every rule ----------------------------------------------
    @invariant()
    def coherent(self) -> None:
        subject, twin = self.subject.overlay, self.twin.overlay
        layout = directory_layout(subject)
        assert layout == directory_layout(twin), "directory layout"
        if not getattr(self.subject, "reads_root", True):
            hot = f"{self.subject.root_namespace}:hot"
            assert all(ns != hot for _, buckets in layout for (ns, _), _ in buckets), (
                "copies under the hot keys of a visit-only root"
            )
        assert subject.network.stats == twin.network.stats, "network stats"
        check_memos(subject)
        check_arcs(subject)
        if self.placed:
            check_replica_placement(subject)


@pytest.mark.parametrize("cell", CELLS)
def test_service_machine(cell):
    run_state_machine_as_test(lambda: Service(cell))


# ----------------------------------------------------------------------
# The bug zoo
# ----------------------------------------------------------------------
RULES = (
    "join", "rejoin", "leave", "fail", "stabilize", "repair_replication", "register",
    "register_all", "deregister", "query", "query", "multi_query", "multi_query",
)
ARGLESS = ("stabilize", "repair_replication")
MOVERS = ("join", "rejoin", "leave", "fail", "repair_replication")


def storm(cell: str, rules: tuple = RULES, seed: int = 2, events: int = 150) -> None:
    """``events`` rules drawn from ``rules``, each followed by the checks
    Hypothesis runs."""
    machine = Service(cell)
    machine.coherent()
    rng = random.Random(seed)
    for _ in range(events):
        op = rng.choice(rules)
        getattr(machine, op)(*(() if op in ARGLESS else (rng.randrange(1 << 21),)))
        machine.coherent()


#: ``"<drive>:<cell>"`` targets of the zoo.  ``static`` leaves the
#: membership and the replicas alone, so no answer may lose a match.
DRIVES = {
    "storm": storm,
    "static": partial(storm, rules=tuple(op for op in RULES if op not in MOVERS)),
}


def _noop(*args) -> None:
    return None


#: ``(id, target, (class, method, edit), match)``: the plant (see the
#: ``plant`` fixture) and the message its drive must fail with.
ZOO = [
    # Ordered views (the retired view and directory-read suites).
    ("view-upper-bound", "storm:SWORD/r1", (OverlayNode, "_view_slice", [
        ("bisect_right(values, high, first, last)", "bisect_left(values, high, first, last)"),
    ]), "lost"),
    ("view-lower-bound", "storm:MAAN/r1", (OverlayNode, "_view_slice", [
        ("bisect_left(values, low, first, last)", "bisect_right(values, low, first, last)"),
    ]), "lost|differ"),
    ("view-kept-on-store", "storm:SWORD/r2", (OverlayNode, "store", [
        ("self._write_view(namespace, key_id, item, True)", "pass"),
    ]), "read view"),
    # The arc directory and the slice walk (the retired arc suites).
    ("arc-add-dropped", "storm:Mercury/r1", (ArcDirectory, "add", _noop), "arc directory"),
    ("arc-discard-dropped", "storm:MAAN/r2",
     (ArcDirectory, "discard", _noop), "arc directory|matches differ"),
    ("arc-wrap-dropped", "storm:Mercury/r2",
     (ArcDirectory, "arc", [("items[low:] + items[:high]", "items[low:]")]), "differ"),
    ("slice-wrap", "storm:MAAN/r1", (ChordRing, "_walk_slice", [
        ("last = 0  # wraps past the end", "last = len(ids) - 1"),
    ]), "differs from the twin"),
    # The root table: writes that skip salted roots or hot keys, a read of
    # a hot key in the static namespace.
    ("salting-one-root", "storm:SWORD/salted", (ChordBackedService, "_root_placements", [
        ("return keys if", "return keys[:1] if"),
    ]), "lost"),
    ("hot-mirror-dropped", "static:SWORD/hot", (ChordBackedService, "_root_placements", [
        ("if self.reads_root", "if False"),
    ]), "lost"),
    ("hot-read-native-namespace", "static:SWORD/hot", (ChordBackedService, "root_read", [
        ("return keys[route_choice(attribute, requester, len(keys))]",
         "return self.root_namespace, keys[route_choice(attribute, requester, len(keys))][1]"),
    ]), "lost"),
    # The replicator's own placement re-planted: copies keyed by the root
    # key, copies under a visit-only root's hot keys, a withdrawal that
    # skips them, a rejoined holder left empty.
    ("hot-keyed-by-root", "static:SWORD/hot", (DynamicReplicator, "tick", [
        ("(hot_namespace, hot_key, item)", "(hot_namespace, key, item)"),
    ]), "lost"),
    ("hot-copies-for-visit-only", "static:MAAN/hot", (DynamicReplicator, "tick", [
        ("if service.reads_root:", "if True:"),
    ]), "visit-only root"),
    ("hot-withdrawal-skipped", "static:SWORD/hot", (DiscoveryService, "deregister", [
        ("for namespace, key in self._placements(info)",
         'for namespace, key in self._placements(info) if not namespace.endswith(":hot")'),
    ]), "invented"),
    ("hot-rejoin-unfilled", "storm:SWORD/hot", (Overlay, "_replica_sets", [
        ("for key, _ in node.buckets()", 'for key, _ in node.buckets() if ":hot" not in key[0]'),
    ]), "replica drift"),
    # Writes: the bulk load and withdrawal.
    ("bulk-load-owner-only", "storm:MAAN/r2",
     (Overlay, "store_all", [("for holder in holders:", "for holder in holders[:1]:")]),
     "directory layout"),
    ("bulk-load-uncounted", "storm:LORM/r2",
     (Overlay, "store_all", [("copies += len(holders) - 1", "pass")]), "network stats"),
    ("deregister-first-placement", "storm:MAAN/r1", (DiscoveryService, "deregister", [
        ("for namespace, key in self._placements(info)",
         "for namespace, key in self._placements(info)[:1]"),
    ]), "invented"),
    # Historical: pointer-Mercury answered without recording its serves.
    ("pointer-mercury-zero-loadstats", "storm:Mercury+ptr/r1",
     (PointerMercuryService, "_query_impl", [
         ("stats.record_serves((node.uid for node in walk), q.attribute)", "pass"),
     ]), "serves recorded"),
]


@pytest.mark.parametrize(
    "target, edit, match", [row[1:] for row in ZOO], ids=[row[0] for row in ZOO]
)
def test_zoo_plant_is_caught(target, edit, match, plant):
    plant(*edit)
    drive, cell = target.split(":")
    with pytest.raises(AssertionError, match=match):
        DRIVES[drive](cell)


@pytest.mark.parametrize("target", sorted({row[1] for row in ZOO}))
def test_zoo_drive_passes_unplanted(target):
    drive, cell = target.split(":")
    DRIVES[drive](cell)
