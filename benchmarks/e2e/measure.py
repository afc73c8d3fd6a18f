"""The two measurement modes of one workload: untraced and traced."""

from __future__ import annotations

import gc
import resource
import statistics
from pathlib import Path
from time import perf_counter

from hostprobe import HostProbe
from layers import layer_budget, layer_metrics
from tracing import NullRecorder, SpanRecorder, SpanTable
from workloads import SIM_ROUNDS, TIMED_KINDS, Tally

__all__ = ["run_traced", "run_untraced"]

#: Builds timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, tally, rec, first: int, at_least: int, seconds: float) -> int:
    """Run rounds ``first, first + 1, ...``: at least ``at_least`` of them,
    then more until ``seconds`` have passed.  Returns the next index."""
    index = first
    start = perf_counter()
    while index - first < at_least or perf_counter() - start < seconds:
        workload.round(index, tally, rec)
        index += 1
        if index > SIM_ROUNDS:
            tally.sim_open = False
    return index


def warm_up(workload, tally, rec) -> None:
    """Round 0: caches fill, lazy set-up finishes, nothing is reported
    but the verification outcomes."""
    workload.round(0, tally, rec)
    tally.reset_measurements()


def run_untraced(workload, seconds: float) -> tuple[Tally, dict[str, float]]:
    probe = HostProbe()
    probe.watch_collector()
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.drop()
            gc.collect()
        before = probe.measure()
        t0 = perf_counter()
        workload.setup()
        elapsed = perf_counter() - t0
        setups.append(elapsed * probe.scale(before, probe.measure()))
    tally = Tally(workload.lanes, probe)
    rec = NullRecorder()
    warm_up(workload, tally, rec)
    run_rounds(workload, tally, rec, 1, SIM_ROUNDS, seconds)
    workload.finish(tally)
    metrics = {
        # S / sum(1 / rate_s): how fast a figure advances that replays the
        # same ops on every one of the S systems.
        "throughput_ops_s": statistics.harmonic_mean(
            [tally.rate(lane) for lane in workload.throughput_lanes]
        ),
        "geomean_ops_s": statistics.geometric_mean(
            [tally.rate(lane) for lane in workload.lanes]
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(),
        "sim_hops_per_op": tally.sim_hops / tally.sim_ops,
    }
    return tally, metrics


def run_traced(workload, seconds: float, seed: int, out_dir: Path) -> tuple[Tally, dict[str, float], list[str]]:
    """The traced run: the first ``SIM_ROUNDS`` measured rounds under the
    span recorder (a fixed amount of work, so counts repeat exactly), then
    untraced rounds for the rates and for ``trace.overhead_ratio``."""
    metrics: dict[str, float] = {}
    workload.setup(metrics)
    tally = Tally(workload.lanes, HostProbe())
    tally.probe.watch_collector()
    warm_up(workload, tally, NullRecorder())

    rec = SpanRecorder()
    rec.calibrate()
    workload.install(rec)
    next_round = run_rounds(workload, tally, rec, 1, SIM_ROUNDS, 0.0)
    workload.after_traced_rounds(rec)
    rec.unwrap_all()
    traced_seconds = tally.measured_seconds()
    traced_wall = tally.wall_seconds
    metrics["sim.hops_per_op"] = tally.sim_hops / tally.sim_ops
    if tally.sim_visited:
        metrics["sim.visited_per_op"] = tally.sim_visited / tally.sim_ops
    if tally.sim_latencies:
        ordered = sorted(tally.sim_latencies)
        metrics["sim.p99_response_s"] = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    table = SpanTable(rec)
    metrics.update(layer_metrics(table, workload.lanes))
    metrics["trace.coverage"] = table.root_ns(TIMED_KINDS) / 1e9 / traced_wall

    # The same four rounds again, untraced: what the spans themselves cost.
    tally.reset_measurements()
    untraced = NullRecorder()
    start = perf_counter()
    run_rounds(workload, tally, untraced, 1, SIM_ROUNDS, 0.0)
    metrics["trace.overhead_ratio"] = traced_seconds / tally.measured_seconds()
    run_rounds(workload, tally, untraced, next_round, 0, seconds / 2 - (perf_counter() - start))
    workload.finish(tally)
    for lane in workload.throughput_lanes:
        metrics[f"rate.{lane}_ops_s"] = tally.rate(lane)
    if tally.event_seconds:
        metrics["rate.churn_events_s"] = tally.events / tally.event_seconds
    metrics.update(workload.extras(tally.probe))
    metrics["host.probe_ms"] = statistics.median(tally.probe.samples) * 1e3
    metrics["host.full_gc_share"] = tally.full_gc_seconds / tally.measured_seconds()

    rec.dump(
        out_dir / f"trace-{workload.name}.json",
        workload=workload.name, seed=seed, traced_rounds=SIM_ROUNDS,
    )
    notes = ["layer budget (share of traced self time):", *layer_budget(table, workload.lanes)]
    if rec.absent:
        notes.append("absent wrap targets: " + ", ".join(sorted(rec.absent)))
    return tally, metrics, notes
