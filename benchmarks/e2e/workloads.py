"""The five workloads of the end-to-end benchmark.

Every workload is a closed loop with one client on one thread.  A workload
is *set up* (overlays built, ``m * k`` infos loaded), then runs *rounds*.
One round visits every lane (system) once with a fixed number of fresh
operations, so the lanes are interleaved and machine drift hits them
alike.  A round draws its inputs first, then runs the timed loops, then
verifies every result against an oracle — only the loops are timed.

The inputs and the order of operations are a pure function of the seed
and the round index, never of the clock: the simulated statistics of the
first :data:`SIM_ROUNDS` measured rounds repeat bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.baselines import base as service_base
from repro.core.resource import ResourceInfo
from repro.experiments.common import build_services
from repro.experiments.config import PAPER_CONFIG, SMOKE_CONFIG
from repro.overlay.arraystore import CompactChordRing
from repro.overlay.node import OverlayNode
from repro.sim.chaos import slow_victims
from repro.sim.faults import DEFAULT_POLICY, HEDGED_POLICY, FaultInjector, FaultPlan
from repro.sim.invariants import overlay_of
from repro.sim.latency import LognormalLatency
from repro.workloads.generator import QueryKind

from hostprobe import HostProbe
from tracing import NullRecorder

__all__ = ["SIM_ROUNDS", "SYSTEMS", "Tally", "WORKLOADS", "make_workload"]

#: Lane names of the four approaches, in ``ServiceBundle.all()`` order.
SYSTEMS = ("lorm", "mercury", "sword", "maan")

#: Measured rounds whose simulated statistics (hops, visited nodes,
#: simulated response time, message counts) are reported.  Every run
#: executes at least this many, however short ``--seconds`` is.
SIM_ROUNDS = 4

#: Op kinds that are queries (the rest are writes and membership events).
QUERY_KINDS = ("point", "range")

#: Every op kind that runs inside a timed loop (``predraw`` and ``steady``
#: ops are traced but not timed).
TIMED_KINDS = (
    *QUERY_KINDS, "register", "deregister", "leave", "join", "stabilize", "lookup",
)


class _Region:
    """What one timed region measured, in wall seconds."""

    def __init__(self) -> None:
        self.ops = 0
        self.seconds = 0.0
        self.events = 0
        self.event_seconds = 0.0

    def add(self, ops: int, seconds: float) -> None:
        self.ops += ops
        self.seconds += seconds

    def churned(self, events: int, seconds: float) -> None:
        """Membership events and the time they (and the stabilisation that
        followed) took — a part of the time passed to :meth:`add`."""
        self.events += events
        self.event_seconds += seconds


class Tally:
    """What the rounds measured: ops and reference seconds per lane (see
    ``hostprobe``), verification outcomes, and the simulated statistics of
    the first rounds."""

    def __init__(self, lanes: tuple[str, ...], probe: HostProbe) -> None:
        self.probe = probe
        self.ops = dict.fromkeys(lanes, 0)
        #: Reference seconds in timed loops, full collections taken out.
        self.seconds = dict.fromkeys(lanes, 0.0)
        #: Reference seconds of the full collections that were taken out.
        self.full_gc_seconds = 0.0
        #: Wall seconds inside timed loops, all lanes (trace coverage).
        self.wall_seconds = 0.0
        self.events = 0
        self.event_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        #: False once the simulated statistics are complete.
        self.sim_open = True
        self.sim_ops = 0
        self.sim_hops = 0
        self.sim_visited = 0
        self.sim_latencies: list[float] = []

    @contextmanager
    def region(self, lane: str, interpreter_bound: bool = True):
        """One timed region of ``lane``.  Interpreter-bound regions are
        bracketed by the host probe and credited in reference seconds;
        vectorised ones, which the interference the probe tracks does not
        slow, are credited in wall seconds."""
        probe = self.probe
        before = probe.measure() if interpreter_bound else None
        collecting = probe.full_gc_seconds
        part = _Region()
        yield part
        collecting = probe.full_gc_seconds - collecting
        scale = probe.scale(before, probe.measure()) if interpreter_bound else 1.0
        self.ops[lane] += part.ops
        self.seconds[lane] += (part.seconds - collecting) * scale
        self.full_gc_seconds += collecting * scale
        self.wall_seconds += part.seconds
        self.events += part.events
        self.event_seconds += part.event_seconds * scale

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def simulated(self, hops: int, visited: int = 0, latency: float | None = None) -> None:
        if self.sim_open:
            self.sim_ops += 1
            self.sim_hops += hops
            self.sim_visited += visited
            if latency is not None:
                self.sim_latencies.append(latency)

    def reset_measurements(self) -> None:
        """Forget times and simulated statistics (after the warm-up round);
        verification outcomes are kept."""
        for lane in self.ops:
            self.ops[lane] = 0
            self.seconds[lane] = 0.0
        self.full_gc_seconds = 0.0
        self.wall_seconds = 0.0
        self.events = 0
        self.event_seconds = 0.0
        self.sim_ops = self.sim_hops = self.sim_visited = 0
        self.sim_latencies.clear()

    def measured_seconds(self) -> float:
        """Reference seconds of all timed loops, collections included."""
        return sum(self.seconds.values()) + self.full_gc_seconds

    def rate(self, lane: str) -> float:
        """Ops per reference second.  Full collections are charged to
        every lane in proportion to its time, as if they fell uniformly:
        where one happened to land says nothing about the lane."""
        collector_load = self.measured_seconds() / sum(self.seconds.values())
        return self.ops[lane] / (self.seconds[lane] * collector_load)


def _time_ops(service_call, inputs, begin, lane: str, kind: str):
    """The timed loop: one op per input, results kept for verification."""
    results = []
    keep = results.append
    t0 = perf_counter()
    for item in inputs:
        begin(lane, kind)
        keep(service_call(item))
    return results, perf_counter() - t0


class Workload:
    """What the runner needs of a workload; ``setup``, ``drop``,
    ``install`` and ``round`` are the subclass's."""

    name: str
    lanes: tuple[str, ...]
    #: Lanes whose rates combine into ``throughput_ops_s``.
    throughput_lanes: tuple[str, ...]

    def after_traced_rounds(self, rec) -> None:
        """Traced run only: extra traced work once rounds 1-4 are done."""

    def finish(self, tally: Tally) -> None:
        """Verification that has to wait until the last round is over."""

    def extras(self, probe: HostProbe) -> dict[str, float]:
        """Per-layer numbers of the traced run that need their own passes."""
        return {}


# ----------------------------------------------------------------------
# Paper-scale workloads over the four services
# ----------------------------------------------------------------------
class _ServiceWorkload(Workload):
    """Shared set-up: the four services at ``PAPER_CONFIG`` scale."""

    lanes = SYSTEMS
    throughput_lanes = SYSTEMS

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.config = (SMOKE_CONFIG if smoke else PAPER_CONFIG).scaled(seed=seed)

    def setup(self, phases: dict | None = None) -> None:
        """Build the overlays and load the ``m * k`` infos.  With
        ``phases`` the two steps are timed apart (same calls, same order
        as ``build_services`` makes them)."""
        if phases is None:
            bundle = build_services(self.config)
        else:
            t0 = perf_counter()
            bundle = build_services(self.config, register=False)
            t1 = perf_counter()
            services = bundle.all()
            for info in bundle.workload.resource_infos():
                for service in services:
                    service.register(info, routed=False)
            phases["experiments.build_overlays_s"] = t1 - t0
            phases["experiments.load_s"] = perf_counter() - t1
        self.workload = bundle.workload
        self.services = dict(zip(SYSTEMS, bundle.all()))

    def drop(self) -> None:
        """Forget the built state, so that set-up can be timed again."""
        del self.workload, self.services

    def _queries(self, index: int, kind: QueryKind, attributes: int, count: int) -> list:
        """Round ``index``'s ``count`` queries of one shape — a function of
        the seed and the round index only, so a round can be replayed."""
        return list(
            self.workload.query_stream(count, attributes, kind, label=f"e2e-round-{index}")
        )

    def install(self, rec, oracle_helpers: bool = True) -> None:
        """Wrap the public callables at each layer boundary."""
        for lane in self.lanes:
            service = self.services[lane]
            overlay = overlay_of(service)
            rec.wrap(service, "multi_query", "service.multi_query")
            rec.wrap(service, "query", "service.query", lambda r, a: len(r.matches))
            rec.wrap(service, "random_node", "service.random_node")
            rec.wrap(service, "register", "service.register")
            rec.wrap(service, "deregister", "service.deregister")
            rec.wrap(service, "churn_leave", "service.churn_leave")
            rec.wrap(service, "churn_join", "service.churn_join")
            rec.wrap(service, "stabilize", "service.stabilize")
            rec.wrap(overlay, "lookup", "overlay.lookup", lambda r, a: r.hops)
            walk = "walk_cluster" if hasattr(overlay, "walk_cluster") else "walk_arc"
            rec.wrap(overlay, walk, "overlay.walk", lambda r, a: len(r))
            rec.wrap(overlay, "join", "overlay.join")
            rec.wrap(overlay, "leave", "overlay.leave")
            if oracle_helpers:
                helper = "closest_node" if hasattr(overlay, "closest_node") else "successor_of"
                rec.wrap(overlay, helper, "overlay.owner_oracle")
            rec.wrap(service.metrics, "record_pair", "sim.record_pair")
            rec.wrap(overlay.network, "try_deliver", "sim.try_deliver")
        rec.wrap(
            service_base, "join_on_provider", "core.join",
            lambda r, a: sum(len(matches) for matches in a[0]),
        )
        rec.tap(OverlayNode, "items_at", "directory.examined", len)
        rec.tap(OverlayNode, "items_in", "directory.examined", len)

    def _verify_queries(self, results, expected, tally: Tally) -> None:
        for result, want in zip(results, expected):
            tally.check(result.complete and result.providers == want)
            tally.simulated(result.total_hops, result.total_visited)

    def _run_queries(self, lane: str, queries, expected, tally: Tally, rec, kind: str) -> None:
        with tally.region(lane) as region:
            results, seconds = _time_ops(
                self.services[lane].multi_query, queries, rec.begin_op, lane, kind
            )
            region.add(len(queries), seconds)
        self._verify_queries(results, expected, tally)

    # Shared micro-measurements of the set-up layers -------------------
    def _setup_layer_extras(self) -> dict[str, float]:
        workload = self.workload
        t0 = perf_counter()
        infos = sum(1 for _ in workload.resource_infos())
        info_gen = (perf_counter() - t0) / infos
        fresh = workload.query_stream(200, 3, QueryKind.RANGE, label="e2e-gen")
        t0 = perf_counter()
        queries = list(fresh)
        query_gen = (perf_counter() - t0) / len(queries)
        sword = self.services["sword"]
        names = workload.schema.names
        reps = max(1, 4000 // len(names))
        t0 = perf_counter()
        for _ in range(reps):
            for name in names:
                sword.attr_hash(name)
        consistent = (perf_counter() - t0) / (reps * len(names))
        spec = workload.schema.specs[0]
        value_hash = sword.value_hash(spec.name)
        values = [workload.provider_value(spec.name, p) for p in range(workload.num_providers)]
        reps = max(1, 4000 // len(values))
        t0 = perf_counter()
        for _ in range(reps):
            for value in values:
                value_hash(value)
        lph = (perf_counter() - t0) / (reps * len(values))
        return {
            "workloads.info_gen_us": info_gen * 1e6,
            "workloads.query_gen_us": query_gen * 1e6,
            "hashing.consistent_ns": consistent * 1e9,
            "hashing.lph_ns": lph * 1e9,
        }


class PaperPoint(_ServiceWorkload):
    """Fig. 4 shape: multi-attribute POINT queries, 1..10 attributes."""

    name = "paper-point"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.ops_per_round = 40 if smoke else 200

    def round(self, index: int, tally: Tally, rec) -> None:
        most = self.config.max_query_attributes
        per_shape = [
            self._queries(index, QueryKind.POINT, attributes, self.ops_per_round // most)
            for attributes in range(1, most + 1)
        ]
        # Attributes per query cycle 1..most, as the figure sweeps them.
        queries = [query for shapes in zip(*per_shape) for query in shapes]
        brute = self.workload.matching_providers_bruteforce
        expected = [brute(q) for q in queries]
        for lane in self.lanes:
            self._run_queries(lane, queries, expected, tally, rec, "point")
        self._last_queries = queries

    def extras(self, probe: HostProbe) -> dict[str, float]:
        """Set-up layer costs, and what each optional sink costs attached
        against detached on this workload's own ops."""
        from repro.obs import QueryTracer
        from repro.sim.loadstats import LoadStats

        out = self._setup_layer_extras()
        queries = self._last_queries
        null = NullRecorder().begin_op

        def one_pass(service) -> float:
            collecting = probe.full_gc_seconds
            _, seconds = _time_ops(service.multi_query, queries, null, "", "point")
            return seconds - (probe.full_gc_seconds - collecting)

        for lane in self.lanes:
            service = self.services[lane]
            detached = one_pass(service)
            service.attach_tracer(QueryTracer())
            traced = one_pass(service)
            service.attach_tracer(None)
            service.attach_load_stats(LoadStats())
            loaded = one_pass(service)
            service.attach_load_stats(None)
            out[f"obs.tracer_overhead_ratio.{lane}"] = traced / detached
            out[f"sim.loadstats_overhead_ratio.{lane}"] = loaded / detached
        return out


class PaperRange(_ServiceWorkload):
    """Fig. 5 shape: 3-attribute RANGE queries at mean span 0.25."""

    name = "paper-range"
    attributes = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.ops_per_round = 10 if smoke else 30

    def round(self, index: int, tally: Tally, rec) -> None:
        queries = self._queries(index, QueryKind.RANGE, self.attributes, self.ops_per_round)
        brute = self.workload.matching_providers_bruteforce
        expected = [brute(q) for q in queries]
        for lane in self.lanes:
            self._run_queries(lane, queries, expected, tally, rec, "range")

    def extras(self, probe: HostProbe) -> dict[str, float]:
        return self._setup_layer_extras()


class ChurnMixed(_ServiceWorkload):
    """Fig. 6 shape with writes beside reads (see the README)."""

    name = "churn-mixed"
    queries_per_block = 14
    writes_per_block = 2  # routed registers, and as many deregisters
    stabilize_every = 5

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.blocks_per_round = 5 if smoke else 10

    def setup(self, phases: dict | None = None) -> None:
        super().setup(phases)
        #: The oracle: live infos as ``{attribute: {provider: value}}``.
        self.model = {
            name: {info.provider: info.value for info in self.workload.infos_for_attribute(name)}
            for name in self.workload.schema.names
        }
        self._rng = np.random.default_rng([self.seed, 6])
        self._extra = 0

    def drop(self) -> None:
        super().drop()
        del self.model

    def install(self, rec) -> None:
        # The owner-oracle helpers run ~22k times per stabilize(): spans
        # around them would cost more than the sweep they sit in.
        super().install(rec, oracle_helpers=False)

    def _model_match(self, query) -> frozenset:
        result = None
        for constraint in query.constraints:
            hits = {
                provider
                for provider, value in self.model[constraint.attribute].items()
                if constraint.matches(value)
            }
            result = hits if result is None else result & hits
        return frozenset(result)

    def _mixed_queries(self, index: int, count: int) -> list:
        """``count`` one-attribute queries, alternating point and range."""
        half = count // 2
        points = self._queries(index, QueryKind.POINT, 1, half)
        ranges = self._queries(index, QueryKind.RANGE, 1, half)
        return [query for pair in zip(points, ranges) for query in pair]

    def _draw_block(self, queries: list):
        """Writes of one block, and the model's answers to its queries
        *before* those writes (queries come first in a block)."""
        rng = self._rng
        names = self.workload.schema.names
        expected = [self._model_match(q) for q in queries]
        registers = []
        for _ in range(self.writes_per_block):
            attribute = names[int(rng.integers(len(names)))]
            donor = int(rng.integers(self.workload.num_providers))
            info = ResourceInfo(
                attribute,
                self.workload.provider_value(attribute, donor),
                f"bench-node-{self._extra:06d}",
            )
            self._extra += 1
            registers.append(info)
            self.model[attribute][info.provider] = info.value
        deregisters = []
        for _ in range(self.writes_per_block):
            attribute = names[int(rng.integers(len(names)))]
            live = self.model[attribute]
            provider = list(live)[int(rng.integers(len(live)))]
            deregisters.append(ResourceInfo(attribute, live.pop(provider), provider))
        return queries, expected, registers, deregisters

    def round(self, index: int, tally: Tally, rec) -> None:
        per_block = self.queries_per_block
        queries = self._mixed_queries(index, per_block * self.blocks_per_round)
        blocks = [
            self._draw_block(queries[i : i + per_block])
            for i in range(0, len(queries), per_block)
        ]
        for lane in self.lanes:
            with tally.region(lane) as region:
                outcomes = [
                    self._run_block(lane, number, block, region, rec.begin_op)
                    for number, block in enumerate(blocks)
                ]
            for (_, expected, _, _), (results, removed, moved) in zip(blocks, outcomes):
                self._verify_queries(results, expected, tally)
                for copies in removed:
                    tally.check(copies >= 1)
                for happened in moved:
                    tally.check(happened)

    def _run_block(self, lane: str, number: int, block, region, begin):
        """One block on one system, timed: queries, writes, then a leave,
        a join and (after every ``stabilize_every``-th block) stabilize()."""
        service = self.services[lane]
        queries, _, registers, deregisters = block
        results = []
        keep = results.append
        t0 = perf_counter()
        for i, query in enumerate(queries):
            begin(lane, "point" if i % 2 == 0 else "range")
            keep(service.multi_query(query))
        for info in registers:
            begin(lane, "register")
            service.register(info)
        removed = []
        for info in deregisters:
            begin(lane, "deregister")
            removed.append(service.deregister(info))
        t1 = perf_counter()
        begin(lane, "leave")
        left = service.churn_leave()
        begin(lane, "join")
        joined = service.churn_join()
        ops = len(queries) + len(registers) + len(deregisters) + 2
        if number % self.stabilize_every == self.stabilize_every - 1:
            begin(lane, "stabilize")
            service.stabilize()
            ops += 1
        t2 = perf_counter()
        region.add(ops, t2 - t0)
        region.churned(2, t2 - t1)
        return results, removed, (left, joined)

    def after_traced_rounds(self, rec) -> None:
        """The same queries twice per system after the
        last round's closing stabilize(), the second pass tagged ``steady``
        — the warm-cache reference of ``overlay.cold_lookup_ratio``.  (After
        the traced rounds, so that the entry-node draws it consumes do not
        change the rounds whose simulated statistics are reported.)"""
        queries = self._mixed_queries(-1, 5 * self.queries_per_block)
        for lane in self.lanes:
            for kind in ("steady-warmup", "steady"):
                _time_ops(self.services[lane].multi_query, queries, rec.begin_op, lane, kind)


class DegradedTail(_ServiceWorkload):
    """``repro tail`` headline cell: gray failures under the hedged policy."""

    name = "degraded-tail"
    lanes = ("lorm", "sword")
    throughput_lanes = ("lorm", "sword")
    attributes = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        #: Also the warm-up: the first (unmeasured) round is the
        #: ``tail_warmup`` queries the RTT estimators learn on.
        self.ops_per_round = self.config.tail_warmup

    def setup(self, phases: dict | None = None) -> None:
        super().setup(phases)
        config = self.config
        self.models = {}
        for lane in self.lanes:
            service = self.services[lane]
            overlay = overlay_of(service)
            lane_seed = self.seed * 2 + self.lanes.index(lane)
            model = LognormalLatency(
                median=overlay.network.hop_latency, sigma=config.tail_sigma, seed=lane_seed
            )
            injector = FaultInjector(FaultPlan(seed=lane_seed))
            for victim in slow_victims(overlay, 0.1):
                injector.mark_slow(
                    victim, config.tail_slow_multiplier, config.tail_intermittency
                )
            service.configure_faults(injector, HEDGED_POLICY)
            service.configure_latency(model)
            self.models[lane] = model
        self._batches: list = []
        self._stats_before: dict = {}
        self.message_delta: dict = {}
        self.plain_seconds = dict.fromkeys(self.lanes, 0.0)
        self.faulty_seconds = dict.fromkeys(self.lanes, 0.0)

    def drop(self) -> None:
        super().drop()
        del self.models, self._batches

    def install(self, rec) -> None:
        super().install(rec)
        for lane in self.lanes:
            rec.wrap(self.models[lane], "sample", "sim.latency_sample")

    def round(self, index: int, tally: Tally, rec) -> None:
        queries = self._queries(index, QueryKind.RANGE, self.attributes, self.ops_per_round)
        brute = self.workload.matching_providers_bruteforce
        expected = [brute(q) for q in queries]
        for lane in self.lanes:
            service = self.services[lane]
            stats = overlay_of(service).network.stats
            if index == 1 and tally.sim_open:
                self._stats_before[lane] = stats.snapshot()
            rec.begin_op(lane, "predraw")
            pairs = [(q, service.random_node()) for q in queries]
            with tally.region(lane) as region:
                results, seconds = _time_ops(
                    lambda pair: service.multi_query(*pair), pairs, rec.begin_op, lane, "range"
                )
                region.add(len(pairs), seconds)
            for result, want in zip(results, expected):
                tally.check(result.complete and result.providers == want)
                tally.simulated(result.total_hops, result.total_visited, result.latency)
            if index == SIM_ROUNDS and tally.sim_open:
                self.message_delta[lane] = stats.delta_since(self._stats_before[lane])
            if index >= 1:
                self._batches.append((lane, pairs, results, seconds, rec.tracing))

    def finish(self, tally: Tally) -> None:
        """Replay every measured op fault-free: the hedged answer must be
        the fault-free answer, sub-query by sub-query."""
        for lane in self.lanes:
            service = self.services[lane]
            service.configure_latency(None)
            service.configure_faults(None, DEFAULT_POLICY)
        null = NullRecorder().begin_op
        for lane, pairs, results, seconds, traced in self._batches:
            service = self.services[lane]
            plain, plain_seconds = _time_ops(
                lambda pair: service.multi_query(*pair), pairs, null, lane, "range"
            )
            if not traced:
                self.plain_seconds[lane] += plain_seconds
                self.faulty_seconds[lane] += seconds
            for got, want in zip(results, plain):
                tally.check(
                    got.providers == want.providers
                    and all(
                        set(a.matches) == set(b.matches)
                        for a, b in zip(got.sub_results, want.sub_results)
                    )
                )

    def extras(self, probe: HostProbe) -> dict[str, float]:
        out = {}
        sim_ops = SIM_ROUNDS * self.ops_per_round * len(self.lanes)
        totals = {
            field: sum(getattr(delta, field) for delta in self.message_delta.values())
            for field in ("messages", "timeouts", "retries", "hedges", "hedges_won")
        }
        out["sim.faults.deliveries_per_op"] = totals["messages"] / sim_ops
        out["sim.faults.timeouts_per_op"] = totals["timeouts"] / sim_ops
        out["sim.faults.retries_per_op"] = totals["retries"] / sim_ops
        out["sim.faults.hedges_per_op"] = totals["hedges"] / sim_ops
        if totals["hedges"]:
            out["sim.faults.hedge_win_ratio"] = totals["hedges_won"] / totals["hedges"]
        for lane in self.lanes:
            if self.plain_seconds[lane]:
                out[f"sim.faults.fault_path_ratio.{lane}"] = (
                    self.faulty_seconds[lane] / self.plain_seconds[lane]
                )
        return out


# ----------------------------------------------------------------------
# The struct-of-arrays core at 10^5..10^6 scale
# ----------------------------------------------------------------------
class CompactScale(Workload):
    """``CompactChordRing`` at 500k nodes: lookups, then membership edits."""

    name = "compact-scale"
    lanes = ("lookup", "churn")
    throughput_lanes = ("lookup",)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.nodes = 20_000 if smoke else 500_000
        self.lookups_per_round = 1000 if smoke else 8000
        self.pairs_per_round = 4 if smoke else 10

    def setup(self, phases: dict | None = None) -> None:
        t0 = perf_counter()
        self.ring = CompactChordRing.sampled(self.nodes, seed=self.seed)
        t1 = perf_counter()
        self.ring.build_fingers()
        if phases is not None:
            phases["arraystore.sample_s"] = t1 - t0
            phases["arraystore.build_fingers_s"] = perf_counter() - t1

    def drop(self) -> None:
        del self.ring

    def install(self, rec) -> None:
        ring = self.ring
        rec.wrap(ring, "lookup", "arraystore.lookup", lambda r, a: r[1])
        rec.wrap(ring, "join", "arraystore.join")
        rec.wrap(ring, "leave", "arraystore.leave")
        rec.wrap(ring, "stabilize_all", "arraystore.stabilize_all")
        rec.wrap(ring, "build_fingers", "arraystore.build_fingers")

    def round(self, index: int, tally: Tally, rec) -> None:
        ring = self.ring
        rng = np.random.default_rng([self.seed, index])
        count = self.lookups_per_round
        starts = rng.integers(ring.num_nodes, size=count).tolist()
        keys = rng.integers(ring.size, size=count, dtype=np.int64)
        pairs = list(zip(starts, keys.tolist()))
        with tally.region("lookup") as region:
            results, seconds = _time_ops(
                lambda pair: ring.lookup(*pair), pairs, rec.begin_op, "lookup", "lookup"
            )
            region.add(count, seconds)
        owners = ring.owner_indices(keys).tolist()
        for (owner, hops), want in zip(results, owners):
            tally.check(owner == want and hops <= ring.bits)
            tally.simulated(hops)

        joiners = []
        while len(joiners) < self.pairs_per_round:
            candidate = int(rng.integers(ring.size))
            if int(ring.ids[ring.owner_index(candidate)]) != candidate and candidate not in joiners:
                joiners.append(candidate)
        leavers = [
            int(v) for v in rng.choice(ring.ids, size=self.pairs_per_round, replace=False)
        ]
        before = ring.num_nodes
        begin = rec.begin_op
        # Membership edits and the finger rebuild are numpy passes over the
        # whole ring: memory-bound, not interpreter-bound.
        with tally.region("churn", interpreter_bound=False) as region:
            t0 = perf_counter()
            for joiner, leaver in zip(joiners, leavers):
                begin("churn", "join")
                ring.join(joiner)
                begin("churn", "leave")
                ring.leave(leaver)
            begin("churn", "stabilize")
            ring.stabilize_all()
            seconds = perf_counter() - t0
            region.add(2 * self.pairs_per_round, seconds)
            region.churned(2 * self.pairs_per_round, seconds)
        ids = ring.ids
        tally.check(ring.num_nodes == before and bool(np.all(ids[1:] > ids[:-1])))
        for joiner in joiners:
            tally.check(int(ids[ring.owner_index(joiner)]) == joiner)
        for leaver in leavers:
            tally.check(int(ids[ring.owner_index(leaver)]) != leaver)

    def extras(self, probe: HostProbe) -> dict[str, float]:
        return {"arraystore.state_mb": self.ring.state_bytes() / 2**20}


WORKLOADS = {
    cls.name: cls for cls in (PaperPoint, PaperRange, ChurnMixed, DegradedTail, CompactScale)
}


def make_workload(name: str, seed: int, smoke: bool = False):
    return WORKLOADS[name](seed, smoke)
