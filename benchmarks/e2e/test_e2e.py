"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — not part of
the tier-1 ``testpaths``.  Everything runs at ``--smoke`` scale.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import gc
import json
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as runner  # noqa: E402
from hostprobe import HostProbe  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import NullRecorder, SpanRecorder, SpanTable  # noqa: E402
from workloads import WORKLOADS, Tally, make_workload  # noqa: E402

SPEC = runner.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One smoke-scale run in its own process: (result object, stdout)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


#: The same, shared between the tests that only read the outcome.
bench = functools.lru_cache(maxsize=None)(run_once)


def values(result: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract and against the runner
# ----------------------------------------------------------------------
def test_spec_has_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("higher", "lower")
        names.append(entry["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * 30 <= 3420, "a run may take 30 s including set-up"


WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


def test_spec_names_exactly_the_runner_workloads():
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    result, stdout = bench(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$", stdout, re.M), name
    if trace == 0:
        assert all(value > 0 for value in values(result).values())


def test_every_per_layer_metric_applies_to_some_workload():
    measured = set()
    for workload in WORKLOAD_NAMES:
        measured |= {name for name, value in values(bench(workload, 1, 1)[0]).items() if value}
    # No full collection needs to land in a smoke-scale run.
    assert measured | {"host.full_gc_share"} == {entry["name"] for entry in SPEC["per_layer"]}


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_simulated_statistics_repeat_exactly_and_follow_the_seed(workload):
    first = values(bench(workload, 1, 0)[0])
    again = values(run_once(workload, 1, 0)[0])
    assert first["sim_hops_per_op"] == again["sim_hops_per_op"]
    other = values(run_once(workload, 2, 0)[0])
    assert other["sim_hops_per_op"] != first["sim_hops_per_op"], "seed must change the inputs"

    traced = values(bench(workload, 1, 1)[0])
    traced_again = values(run_once(workload, 1, 1)[0])
    exact = [name for name in traced if runner.is_exact(name)]
    assert exact
    assert {n: traced[n] for n in exact} == {n: traced_again[n] for n in exact}
    # The spans do not perturb the simulation: the traced rounds are the
    # rounds the untraced run reports.
    assert traced["sim.hops_per_op"] == first["sim_hops_per_op"]


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_planted_wrong_answer_is_counted_as_failed(workload):
    bench_workload = make_workload(workload, 1, smoke=True)
    bench_workload.setup()
    clean = Tally(bench_workload.lanes, HostProbe())
    bench_workload.round(0, clean, NullRecorder())
    assert clean.failed == 0 and clean.attempted > 0

    if workload == "compact-scale":
        ring = bench_workload.ring
        honest = ring.lookup
        ring.lookup = lambda start, key: (honest(start, key)[0] ^ 1, honest(start, key)[1])
    else:
        service = bench_workload.services["sword"]
        honest = service.multi_query

        def lying(query, start=None):
            result = honest(query, start)
            return dataclasses.replace(result, providers=result.providers | {"no-such-node"})

        service.multi_query = lying
    planted = Tally(bench_workload.lanes, HostProbe())
    bench_workload.round(1, planted, NullRecorder())
    assert planted.failed > 0
    assert planted.failed / planted.attempted > 0


def test_degraded_tail_compares_with_the_fault_free_answer():
    workload = make_workload("degraded-tail", 1, smoke=True)
    workload.setup()
    tally = Tally(workload.lanes, HostProbe())
    workload.round(1, tally, NullRecorder())
    lane, pairs, results, seconds, traced = workload._batches[0]
    forged = dataclasses.replace(results[0], providers=frozenset({"no-such-node"}))
    workload._batches[0] = (lane, pairs, [forged, *results[1:]], seconds, traced)
    before = tally.failed
    workload.finish(tally)
    assert tally.failed == before + 1


def test_selfcheck_flags_drift_beyond_the_bound_and_inexact_counts():
    def result(**metrics):
        return {"correct": True, "failed": 0,
                "metrics": {n: {"value": v, "unit": "x"} for n, v in metrics.items()}}

    bound = next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "throughput_ops_s")
    steady = result(throughput_ops_s=100.0, sim_hops_per_op=5.0)
    assert runner.compare(SPEC, "w", 0, steady, result(throughput_ops_s=100.0 * (1 - bound / 2), sim_hops_per_op=5.0)) == []
    assert runner.compare(SPEC, "w", 0, steady, result(throughput_ops_s=100.0 * (1 - 2 * bound), sim_hops_per_op=5.0))
    assert runner.compare(SPEC, "w", 0, steady, result(throughput_ops_s=100.0, sim_hops_per_op=5.0001))
    layers = result(**{"overlay.hops_per_lookup.lorm": 4.5, "overlay.lookup_ns_per_hop.lorm": 900.0})
    assert runner.compare(SPEC, "w", 1, layers, result(**{"overlay.hops_per_lookup.lorm": 4.5, "overlay.lookup_ns_per_hop.lorm": 1900.0})) == []
    assert runner.compare(SPEC, "w", 1, layers, result(**{"overlay.hops_per_lookup.lorm": 4.6, "overlay.lookup_ns_per_hop.lorm": 900.0}))


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_a_missing_wrap_target_is_noted_not_fatal():
    rec = SpanRecorder()
    rec.wrap(object(), "no_such_method", "gone.layer")
    assert rec.absent == {"gone.layer"}


def test_unwrap_restores_instances_classes_and_modules():
    workload = make_workload("paper-point", 1, smoke=True)
    workload.setup()
    from repro.baselines import base
    from repro.overlay.node import OverlayNode

    originals = (base.join_on_provider, OverlayNode.items_at)
    rec = SpanRecorder()
    workload.install(rec)
    assert base.join_on_provider is not originals[0]
    rec.unwrap_all()
    assert (base.join_on_provider, OverlayNode.items_at) == originals
    assert "multi_query" not in vars(workload.services["lorm"])


#: cProfile function -> the span that wraps it.
PROFILED = {
    "random_node": "service.random_node",
    "lookup": "overlay.lookup",
    "join_on_provider": "core.join",
    "record_pair": "sim.record_pair",
}


@pytest.fixture
def no_collector():
    """Two instruments are compared, not the program: a collection landing
    in one of the passes would only blur the comparison."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_span_shares_agree_with_cprofile_on_paper_point(no_collector):
    """Span honesty on ``paper-point``: the spans see exactly the calls
    cProfile sees, cover >= 90% of the timed loops, put the same three
    layers on top and give each of them the same share of the op within 15
    points of a hundred — so the two can order differently only layers
    closer than that (service and lookup are within a point of each other
    at smoke scale).  cProfile runs with ``builtins=False``: it then
    charges Python-level calls only, which leans ~10 points towards the
    call-heavy hop loop, inside the tolerance."""
    workload = make_workload("paper-point", 1, smoke=True)
    workload.ops_per_round = 1000
    workload.setup()
    workload.round(0, Tally(workload.lanes, HostProbe()), NullRecorder())

    rec = SpanRecorder()
    rec.calibrate()
    workload.install(rec)
    traced_run = Tally(workload.lanes, HostProbe())
    workload.round(1, traced_run, rec)
    rec.unwrap_all()
    table = SpanTable(rec)
    assert table.root_ns(("point",)) / 1e9 / traced_run.wall_seconds >= 0.9
    assert layer_metrics(table, workload.lanes)["overlay.hops_per_lookup.lorm"] > 1

    profile = cProfile.Profile(builtins=False)
    profile.enable()
    workload.round(1, Tally(workload.lanes, HostProbe()), NullRecorder())
    profile.disable()
    seconds = dict.fromkeys(PROFILED.values(), 0.0)
    calls = dict.fromkeys(PROFILED.values(), 0)
    whole = 0.0
    for (filename, _, name), (_, ncalls, _, cumulative, _) in pstats.Stats(profile).stats.items():
        if "/repro/" not in filename:
            continue
        if name in PROFILED:
            seconds[PROFILED[name]] += cumulative
            calls[PROFILED[name]] += ncalls
        elif name == "multi_query":
            whole += cumulative
    # Same queries, so the same number of calls at every boundary.
    assert calls == {name: table.calls(name) for name in calls}

    total = table.total_ns("service.multi_query")
    traced = {name: table.total_ns(name) / total for name in seconds}
    profiled = {name: value / whole for name, value in seconds.items()}
    traced["service"] = 1.0 - sum(traced.values())
    profiled["service"] = 1.0 - sum(profiled.values())

    def top_three(shares):
        return sorted(shares, key=shares.get, reverse=True)[:3]

    assert set(top_three(traced)) == set(top_three(profiled)), (traced, profiled)
    for name in top_three(traced):
        assert abs(traced[name] - profiled[name]) <= 0.15, (name, traced, profiled)


# ----------------------------------------------------------------------
# The contract's bare-directory run
# ----------------------------------------------------------------------
def test_exits_non_zero_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
