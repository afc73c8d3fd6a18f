"""Deletion audit: what no product run reaches, fills or reads.

    python tools/audit.py

Runs the product once under a ``sys.setprofile`` hook -- every command of
``tools/capture_outputs.sh``, ``benchmarks/e2e/run.py --smoke`` for each
workload of ``BENCHMARK.json`` at ``--trace 0`` and ``--trace 1``, and
``examples/*.py`` -- and prints three sections:

- **reach**: every ``src/repro`` def that no run entered and that no
  ``benchmarks/test_*.py`` names (those benches run weekly at paper
  scale), less the rows of ``EXEMPT``;
- **parameter values**: every defaulted parameter of a reached def that saw
  only one value (``None`` / numbers / strings / enum members by value,
  functions and classes by name, any other object by its type);
- **write-only**: every ``self.<name>`` a ``src/repro`` class assigns that
  no product code loads (``write_only_attributes``, which tier-1 runs).

Exits 1 when a reach or write-only line is printed; parameter values only
report.  The hook is a ``sitecustomize.py`` written to a scratch directory
put first on ``PYTHONPATH``; each process dumps its records at exit, so
the worker processes of ``all --parallel`` (which leave through
``os._exit``) add nothing: the serial ``all`` covers the same figures.
About 3 min on a 2-core box.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

# Why a def no product run enters stays.
KEEP = "keep-list: a variant the ROADMAP's standing decisions keep"
ABSTRACT = "abstract or protocol method"
REFERENCE = "reference: tests compare the product against it"
RARE = "error or growth path: no seeded run takes it"
REPR = "debugging repr"
REASONS = (KEEP, ABSTRACT, REFERENCE, RARE, REPR)

# Defs no product run enters, each with its reason.  Keys are
# ``<path under src/repro>:<qualified name>``; tests/test_audit_exempt.py
# holds every key to a def that exists and every reason to ``REASONS``.
EXEMPT: dict[str, str] = {
    # Theorem 4.10's closed form, which the theorem tests check.
    "analysis/theorems.py:thm410_visited_nodes_worst": REFERENCE,
    "baselines/base.py:DiscoveryService._placer": ABSTRACT,
    "baselines/base.py:DiscoveryService._plan": ABSTRACT,
    "baselines/base.py:DiscoveryService.max_visited_per_subquery": ABSTRACT,
    # The record/pointer ablation (benchmarks/test_ablation_pointers.py).
    "baselines/mercury_pointers.py:RecordEnvelope.value_of": KEEP,
    "baselines/mercury_pointers.py:PointerMercuryService._register_impl": KEEP,
    "baselines/mercury_pointers.py:PointerMercuryService.register_all": KEEP,
    "baselines/mercury_pointers.py:PointerMercuryService.deregister_record": KEEP,
    "baselines/mercury_pointers.py:PointerMercuryService.deregister": KEEP,
    "baselines/mercury_pointers.py:PointerMercuryService._query_impl": KEEP,
    # Multi-seed repetition and its documented input, ``run_figure``.
    "experiments/repeat.py:RepeatedFigure.mean_curve": KEEP,
    "experiments/repeat.py:RepeatedFigure.spread": KEEP,
    "experiments/repeat.py:RepeatedFigure.to_figure": KEEP,
    "experiments/repeat.py:run_repeated": KEEP,
    "experiments/runner.py:run_figure": KEEP,
    "hashing/locality.py:LocalityPreservingHash.__call__": ABSTRACT,
    # The trace oracles' event query.
    "obs/spans.py:QueryTrace.events_of": REFERENCE,
    # Past the spare rows: no seeded run joins that many nodes.
    "overlay/arraystore.py:CompactChordRing._grow": RARE,
    # O(1) liveness, the membership machine's and the tests' oracle.
    "overlay/base.py:Overlay.__contains__": REFERENCE,
    "overlay/base.py:Overlay.invalidate_routing_caches": ABSTRACT,
    # The ``msb`` routing ablation.
    "overlay/cycloid.py:CycloidOverlay._next_hop_msb": KEEP,
    # The interval and closeness rules the inlined hop loops and
    # ``closest_on_ring`` are tested against.
    "overlay/idspace.py:IdSpace.clockwise_distance": REFERENCE,
    "overlay/idspace.py:IdSpace.ring_distance": REFERENCE,
    "overlay/idspace.py:IdSpace.in_interval": REFERENCE,
    "overlay/idspace.py:IdSpace.closest": REFERENCE,
    "overlay/idspace.py:IdSpace._closeness_key": REFERENCE,
    "overlay/node.py:OverlayNode.__repr__": REPR,
    "sim/durability.py:PlacementPolicy.holders": ABSTRACT,
    "sim/durability.py:PlacementPolicy.validate": ABSTRACT,
    "sim/latency.py:LatencyModel.sample": ABSTRACT,
    "sim/latency.py:LatencyModel.route": ABSTRACT,
    "sim/latency.py:ConstantLatency.sample": ABSTRACT,
    "sim/latency.py:ConstantLatency.__repr__": REPR,
    "sim/latency.py:LognormalLatency.__repr__": REPR,
    # The estimator's smoothed state, read by ``deadlines`` directly.
    "sim/latency.py:RttEstimator.srtt": REFERENCE,
    "sim/latency.py:RttEstimator.rttvar": REFERENCE,
    "sim/latency.py:RttEstimator.samples_seen": REFERENCE,
    # The trace/metrics conservation checks.
    "sim/metrics.py:MetricsRegistry.last": REFERENCE,
    # Single-hop probes of a departed believed owner, between sweeps.
    "sim/network.py:SimulatedNetwork.count_retry": RARE,
    # A sender built while no fault is active: every route checks first.
    "sim/network.py:_first_candidate": RARE,
    "testing/differential.py:run_differential.<locals>.invariant_divergence": RARE,
    "testing/traces.py:_fail": RARE,
    # Walk spans of a checked trace: the tests' traced range queries.
    "testing/traces.py:_check_walk": REFERENCE,
    "workloads/popularity.py:PopularityModel.attribute_weights": ABSTRACT,
    "workloads/serialization.py:dump_workload": KEEP,
    "workloads/serialization.py:save_workload": KEEP,
    "workloads/serialization.py:load_workload": KEEP,
}

_HOOK = r'''
import atexit
import enum
import json
import os
import sys
import threading

_reached = set()
_values = {}
_state = {}
_SCALAR = (bool, int, float, str, bytes, enum.Enum)


def _key(value):
    if value is None or isinstance(value, _SCALAR):
        return repr(value)
    name = getattr(value, "__qualname__", None)
    return name if isinstance(name, str) else "<" + type(value).__qualname__ + ">"


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    state = _state.get(code)
    if state is None:
        if not code.co_filename.startswith(SRC):
            _state[code] = ()
            return
        where = (code.co_filename, code.co_firstlineno, code.co_name)
        _reached.add(where)
        watched = [
            (name, _values.setdefault(where + (name,), set()))
            for name in WATCH.get("%s:%d:%s" % where, ())
        ]
        # A call enters at one fixed instruction; a generator's later
        # resumptions enter past it and see rebound locals, not arguments.
        state = _state[code] = (frame.f_lasti, watched) if watched else ()
    if state and state[1] and frame.f_lasti == state[0]:
        local = frame.f_locals
        for name, seen in list(state[1]):
            seen.add(_key(local[name]))
            if len(seen) > 1:
                state[1].remove((name, seen))


@atexit.register
def _dump():
    sys.setprofile(None)
    record = {
        "reached": sorted(_reached),
        "values": [list(k) + [sorted(v)] for k, v in _values.items()],
    }
    with open(os.path.join(OUT, "%d.json" % os.getpid()), "w") as handle:
        json.dump(record, handle)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def defs_in(path: Path):
    """``(key, path, first line, node, enclosing def key or None)`` of every
    def in the ``src/repro`` file ``path``; the first line is the first
    decorator's, as in ``co_firstlineno``."""

    def walk(node, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", outer)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{path.relative_to(SRC)}:{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield key, path, first, child, outer
                yield from walk(child, f"{prefix}{child.name}.<locals>.", key)
            else:
                yield from walk(child, prefix, outer)

    yield from walk(_parse(path), "", None)


def _defaulted(node) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


def _bench_names() -> set[str]:
    names: set[str] = set()
    for path in sorted((ROOT / "benchmarks").glob("test_*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


# -- write-only state -------------------------------------------------------

# Product code: the audit itself reads AST fields, not product state.
_READERS = ("src", "benchmarks", "examples", "tools")


def _loaded_names() -> set[str]:
    names: set[str] = set()
    for top in _READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    names.add(node.args[1].value)
    return names


def _self_stores():
    """``(name, "path:line")`` of every ``self.<name> = / += / : ...`` in a
    ``src/repro`` class body."""
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for store in ast.walk(target):
                        if (
                            isinstance(store, ast.Attribute)
                            and isinstance(store.ctx, ast.Store)
                            and isinstance(store.value, ast.Name)
                            and store.value.id == "self"
                        ):
                            yield store.attr, f"{path.relative_to(ROOT)}:{node.lineno}"


def write_only_attributes() -> list[str]:
    """``"path:line: self.<name>"`` of every attribute a ``src/repro`` class
    assigns and no product code loads -- ``<anything>.<name>`` or
    ``getattr(_, "<name>")`` in ``src/``, ``benchmarks/``, ``examples/`` or
    ``tools/``.  Tests are not readers: a counter only a test reads is still
    paid for on every product run.  By name, so a field shared with
    something read elsewhere passes."""
    loaded = _loaded_names()
    return sorted(
        f"{where}: self.{name}" for name, where in _self_stores() if name not in loaded
    )


# -- the product runs --------------------------------------------------------


def _commands(scratch: Path):
    yield ["bash", "tools/capture_outputs.sh", str(scratch / "capture")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            # --seconds 0: only the fixed rounds, so what runs is seeded.
            yield [
                sys.executable, "benchmarks/e2e/run.py", "--smoke", "--seconds", "0",
                "--workload", workload, "--trace", trace,
            ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield [sys.executable, str(example.relative_to(ROOT))]


def _run_product(scratch: Path, watch: dict[str, list[str]]):
    """Run every command under the hook; return the reached
    ``(path, line, name)`` set and ``{(path, line, name, param): values}``."""
    hook, out = scratch / "hook", scratch / "records"
    hook.mkdir()
    out.mkdir()
    prelude = f"SRC = {str(SRC) + os.sep!r}\nOUT = {str(out)!r}\nWATCH = {watch!r}\n"
    (hook / "sitecustomize.py").write_text(prelude + _HOOK)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(ROOT / "src")]))
    for command in _commands(scratch):
        print("audit: running", " ".join(command), file=sys.stderr, flush=True)
        status = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, check=False).returncode
        if status:
            print(f"audit: exited {status}; what it did not reach reads as unreached",
                  file=sys.stderr, flush=True)
    reached: set[tuple] = set()
    values: dict[tuple, set[str]] = {}
    for record in sorted(out.glob("*.json")):
        data = json.loads(record.read_text())
        reached.update(map(tuple, data["reached"]))
        for *where, seen in data["values"]:
            values.setdefault(tuple(where), set()).update(seen)
    return reached, values


def main() -> int:
    # Each def as the hook sees its code object: (file, first line, name).
    defs = [(key, (str(path), first, node.name), node, outer)
            for file in sorted(SRC.rglob("*.py"))
            for key, path, first, node, outer in defs_in(file)]
    watch = {"%s:%d:%s" % where: names for _, where, node, _ in defs
             if (names := _defaulted(node))}
    with tempfile.TemporaryDirectory() as scratch:
        reached, values = _run_product(Path(scratch), watch)

    named = _bench_names()
    unreached: dict[str, int] = {}
    missing, bench, exempt = [], [], []
    for key, where, node, outer in defs:
        if where in reached or outer in unreached:
            continue
        size = unreached[key] = node.end_lineno - where[1] + 1
        if node.name in named:
            bench.append((key, size))
        elif key in EXEMPT:
            exempt.append(size)
        else:
            missing.append(f"  src/repro/{key} ({size} lines)")
    print(f"== reach: {len(unreached)} unreached defs, {sum(unreached.values())} lines ==")
    print(f"  {len(bench)} named by benchmarks/test_*.py "
          f"({sum(size for _, size in bench)} lines): "
          + ", ".join(key.split(":")[1] for key, _ in bench))
    print(f"  {len(exempt)} exempt ({sum(exempt)} lines); {len(missing)} neither:")
    print("\n".join(missing) or "  (none)")
    stale = sorted(key for key in EXEMPT if key not in unreached)
    if stale:
        print("  exempt but reached:", ", ".join(stale))

    single, total = [], 0
    for key, where, _, _ in defs:
        if where not in reached:
            continue
        for name in watch.get("%s:%d:%s" % where, ()):
            total += 1
            seen = values.get(where + (name,), ())
            if len(seen) == 1:
                single.append(f"  src/repro/{key}({name}=) only {next(iter(seen))}")
    print(f"== parameter values: {len(single)} of {total} defaulted parameters "
          "of reached defs saw one value ==")
    print("\n".join(single) or "  (none)")

    unread = write_only_attributes()
    print(f"== write-only: {len(unread)} attributes ==")
    print("\n".join(f"  {line}" for line in unread) or "  (none)")
    return 1 if missing or unread else 0


if __name__ == "__main__":
    sys.exit(main())
