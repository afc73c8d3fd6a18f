#!/usr/bin/env python3
"""End-to-end benchmark runner: one workload, one process, one thread.

    python3 benchmarks/e2e/run.py --workload paper-point --seed 1 --seconds 8 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones (and writes ``out/trace-<workload>.json``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Per-layer metrics that are counts of simulated events: they must repeat
#: exactly for a fixed seed (``--selfcheck`` compares them with ``==``).
EXACT_PREFIXES = (
    "sim.hops_per_op", "sim.visited_per_op", "sim.p99_response_s", "sim.faults.",
    "overlay.lookup_calls_per_op.", "overlay.hops_per_lookup.", "overlay.visited_per_walk.",
    "service.examined_per_op.", "service.matched_per_op.", "service.match_useful_ratio.",
    "core.join_rows_per_op.", "arraystore.hops_per_lookup",
)
EXACT_EXCEPTIONS = ("sim.faults.fault_path_ratio.",)


def is_exact(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES) and not name.startswith(EXACT_EXCEPTIONS)


def load_spec() -> dict:
    with SPEC_PATH.open() as handle:
        return json.load(handle)


def report(spec: dict, section: str, tally, metrics: dict[str, float], notes=()) -> dict:
    """Print every metric of ``section`` by name with its unit; return the
    result object (metrics the workload does not have read 0)."""
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json {section}: {unknown}")
    for line in notes:
        print(line)
    out = {}
    for name, unit in declared.items():
        value = metrics.get(name)
        print(f"{name:<44}{'n/a' if value is None else f'{value:.6g}':>14} {unit}")
        out[name] = {"value": 0 if value is None else value, "unit": unit}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }


# ----------------------------------------------------------------------
# --selfcheck: two sets of runs must agree within the benchmark's bounds
# ----------------------------------------------------------------------
def _run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(spec: dict, workload: str, trace: int, first: dict, second: dict) -> list[str]:
    """What two runs of one workload disagree on: end-to-end metrics by
    more than their bound, simulated statistics and exact counts at all."""
    problems = []
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    for result in (first, second):
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} trace={trace}: {result['failed']} ops failed")
    for name, metric in first["metrics"].items():
        a, b = metric["value"], second["metrics"][name]["value"]
        if name == "sim_hops_per_op" or is_exact(name):
            if a != b:
                problems.append(f"{workload} {name}: {a!r} != {b!r} (must repeat exactly)")
        elif trace == 0:
            limit = bounds[name]["bound"]
            worse = (b - a) / a if bounds[name]["better"] == "lower" else (a - b) / a
            print(f"{workload:<14}{name:<20}{a:>12.6g}{b:>12.6g}  {worse:+.1%} (bound {limit:.0%})")
            if abs(worse) > limit:
                problems.append(f"{workload} {name}: {a} vs {b} differ by more than {limit}")
    return problems


def selfcheck(spec: dict, seed: int, seconds: float, smoke: bool) -> int:
    problems = []
    for entry in spec["workloads"]:
        for trace in (0, 1):
            first, second = (
                _run_child(entry["name"], seed, seconds, trace, smoke) for _ in range(2)
            )
            problems += compare(spec, entry["name"], trace, first, second)
    for problem in problems:
        print("selfcheck:", problem)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke scale and reduced op counts (tests)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice per mode and compare")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(spec, args.seed, args.seconds, args.smoke)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: nothing to benchmark: {ROOT / 'src' / 'repro'} is missing")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process; with the salt, set order and
        # allocation patterns (SWORD's rate by +-17%) differ run to run.
        os.execve(
            sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"}
        )
    sys.path.insert(0, str(ROOT / "src"))
    from measure import run_traced, run_untraced
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, args.smoke)
    if args.trace:
        tally, metrics, notes = run_traced(workload, args.seconds, args.seed, HERE / "out")
        result = report(spec, "per_layer", tally, metrics, notes)
    else:
        tally, metrics = run_untraced(workload, args.seconds)
        result = report(spec, "end_to_end", tally, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
