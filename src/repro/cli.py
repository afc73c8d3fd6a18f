"""Command-line interface: regenerate any figure of the paper.

Examples
--------
::

    repro list
    repro run fig4a --scale smoke
    repro run fig3a fig3b --scale paper --out results/
    repro run fig6a --invariants
    repro all --scale smoke
    repro availability --scale smoke --loss 0 0.05 --replication 1 2
    repro chaos --smoke --seed 0
    repro durability --smoke --seed 0
    repro durability --policies replication:2 erasure:2+1 --systems LORM
    repro tail --smoke --seed 0
    repro hotspot --smoke --seed 0
    repro hotspot --systems SWORD --zipf-s 0 1.1 --out results/
    repro tradeoff --smoke --seed 0
    repro tradeoff --overlays singlehop record:f4 --out results/
    repro trace --system maan --overlay singlehop --format jsonl
    repro check --systems all --seed 0

Every sweep experiment is one :class:`Experiment` row in
:data:`EXPERIMENTS` — name, help, runner, its flags and its verdict
words; :func:`build_parser` generates the subcommands from the rows and
:func:`_run_experiment` is the one command loop behind all of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from collections.abc import Callable, Sequence
from functools import partial
from typing import Any

from repro.experiments.availability import run_availability
from repro.experiments.common import SYSTEM_NAMES, resolve_overlay, resolve_systems
from repro.experiments.config import PAPER_CONFIG, SMOKE_CONFIG, ExperimentConfig
from repro.experiments.durability import DEFAULT_SCENARIOS, run_durability
from repro.experiments.hotspot import run_hotspot
from repro.experiments.recovery import run_chaos_demo
from repro.experiments.runner import FIGURES, run_figures
from repro.experiments.scale import run_scale
from repro.experiments.tail import run_tail
from repro.experiments.tradeoff import run_tradeoff, select_points
from repro.obs.replay import SYSTEMS, TRACE_CONFIG, replay_queries
from repro.sim.durability import parse_policy
from repro.utils.validation import require

__all__ = ["main", "build_parser", "Experiment", "EXPERIMENTS", "Flag"]

_SCALES = {"paper": PAPER_CONFIG, "smoke": SMOKE_CONFIG}

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


class Flag:
    """One ``add_argument`` row of a subcommand.

    ``to`` names what the parsed value feeds: an :class:`ExperimentConfig`
    field (a list becomes a tuple) or, for any other name, a keyword
    argument of the experiment's runner — after ``resolve(config, value)``
    when the raw strings need validating.  ``to=None`` leaves the value on
    the namespace for the command itself.  Everything else is argparse's.
    """

    def __init__(
        self,
        *names: str,
        to: str | None = None,
        resolve: Callable[[ExperimentConfig, Any], Any] | None = None,
        **kwargs: Any,
    ) -> None:
        self.names = names
        self.to = to
        self.resolve = resolve
        self.kwargs = kwargs
        #: The namespace attribute argparse stores the value under.
        self.dest = names[0].lstrip("-").replace("-", "_")


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One sweep subcommand: what to run, with which flags, judged how."""

    name: str
    help: str
    #: ``runner(config, **kwargs)`` -> a result with ``render()`` / ``save()``.
    runner: Callable[..., Any]
    flags: tuple[Flag, ...]
    #: ``(pass, fail)`` words for a result gated on its ``.ok`` (the exit
    #: code); ``None`` for an ungated figure report.
    verdict: tuple[str, str] | None = None
    #: ``judge(result, args, elapsed) -> (ok, word)`` when the gate is not
    #: the result's own ``.ok``.
    judge: Callable[[Any, argparse.Namespace, float], tuple[bool, str]] | None = None


# ----------------------------------------------------------------------
# Shared flags
# ----------------------------------------------------------------------
_SMOKE = Flag("--smoke", action="store_true",
              help="alias for --scale smoke (deterministic CI entry point)")
_SEED = Flag("--seed", to="seed", type=int, help="override the master seed")
_COMMON = (
    Flag("--scale", choices=sorted(_SCALES), default="smoke",
         help="paper = Section V parameters (n=2048, m=200, k=500); "
         "smoke = same shape, laptop-fast (default)"),
    _SEED,
    Flag("--out", help="directory for CSV/text output"),
    Flag("--lph", to="lph_kind", choices=["cdf", "linear"],
         help="override the locality-preserving hash flavour"),
    Flag("--invariants", to="validate_invariants", action="store_true",
         help="validate overlay invariants and directory conservation after "
         "every churn event (aborts at the first violation)"),
)
_PARALLEL = Flag(
    "--parallel", nargs="?", type=int, const=0, metavar="WORKERS",
    help="fan figure runs out over worker processes (results are identical "
    "to a serial run; WORKERS defaults to the CPU count)",
)


def _workers(config: ExperimentConfig, workers: int) -> int:
    """``--parallel [WORKERS]``: 0 (the bare flag) means the CPU count."""
    require(workers >= 0, f"--parallel WORKERS must be >= 0, got {workers}")
    return workers


def _systems_flag(help_text: str) -> Flag:
    return Flag("--systems", to="systems", nargs="+", metavar="SYSTEM",
                resolve=lambda config, names: resolve_systems(names),
                help=help_text)


def _judge_scale(result, args: argparse.Namespace, elapsed: float) -> tuple[bool, str]:
    """``repro scale`` fails only when a ``--budget-*`` is exceeded."""
    violations = result.over_budget(elapsed, args.budget_seconds, args.budget_mb)
    for violation in violations:
        print(f"BUDGET EXCEEDED: {violation}", file=sys.stderr)
    return not violations, f"{len(result.points)} point(s)"


# ----------------------------------------------------------------------
# The experiment registry
# ----------------------------------------------------------------------
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "availability",
        "query completeness under message loss x replication",
        run_availability,
        _COMMON + (
            Flag("--loss", to="loss_rates", type=float, nargs="+", metavar="RATE",
                 help="message-loss rates to sweep (e.g. --loss 0 0.05 0.1)"),
            Flag("--replication", to="availability_replications", type=int,
                 nargs="+", metavar="R",
                 help="replication factors to sweep (e.g. --replication 1 2 3)"),
            Flag("--queries", to="num_availability_queries", type=int,
                 help="multi-attribute queries per (loss, replication) cell"),
        ),
    ),
    Experiment(
        "chaos",
        "seeded chaos-timeline demo: partition heal + crash burst "
        "under budgeted maintenance; exits non-zero unless every system "
        "reconverges (and the budget=0 control does NOT)",
        run_chaos_demo,
        _COMMON + (_SMOKE,),
        verdict=("RECONVERGED", "FAILED TO RECONVERGE"),
    ),
    Experiment(
        "durability",
        "redundancy-policy sweep: successor/symmetric replication and "
        "erasure coding through chaos timelines, reporting pieces lost, "
        "data time-to-recover and repair bandwidth per policy; exits "
        "non-zero unless every cell recovers its surviving data",
        run_durability,
        _COMMON + (
            _SMOKE,
            Flag("--policies", to="policies", nargs="+", metavar="SPEC",
                 resolve=lambda config, specs: tuple(parse_policy(s) for s in specs),
                 help="policy specs to sweep: replication:R | symmetric:R | "
                 "erasure:K+M, optionally @successor/@symmetric "
                 "(default: replication:2 symmetric:2 erasure:2+1)"),
            _systems_flag("systems to subject to the sweep (default: LORM Mercury)"),
            Flag("--scenarios", to="scenarios", nargs="+",
                 choices=["demo", "crash-storm"],
                 resolve=lambda config, names: tuple(
                     s for s in DEFAULT_SCENARIOS if s.name in names
                 ),
                 help="chaos timelines to run (default: both)"),
        ),
        verdict=("RECOVERED", "FAILED TO RECOVER"),
    ),
    Experiment(
        "hotspot",
        "load-balance sweep under zipf-skewed popularity: per-node "
        "serve-load imbalance (max/mean, Gini, top-5 share) per system x "
        "zipf-s x mitigation (none / salted roots / dynamic replication); "
        "exits non-zero unless the best mitigation cuts SWORD's imbalance "
        ">= 2x at the highest s with byte-identical answers and hop "
        "counts within the structural ceilings",
        run_hotspot,
        _COMMON + (
            _SMOKE,
            _systems_flag("systems to sweep (default: LORM Mercury SWORD MAAN; "
                          "mitigations apply to SWORD and MAAN)"),
            Flag("--zipf-s", to="hotspot_zipf_s", type=float, nargs="+", metavar="S",
                 help="zipf exponents to sweep (e.g. --zipf-s 0 0.8 1.1)"),
            Flag("--queries", to="hotspot_queries", type=int,
                 help="measured multi-attribute queries per cell"),
            Flag("--salts", to="hotspot_salts", type=int,
                 help="salted roots per attribute (S) for the salt mitigation"),
        ),
        verdict=("BALANCED", "GATE MISS"),
    ),
    Experiment(
        "tradeoff",
        "lookup-vs-maintenance sweep across routing tiers (chord / "
        "record:f<N> randomized-Chord / singlehop full-membership) x "
        "maintenance budget (zero/default/unlimited), common random "
        "numbers; exits non-zero unless single-hop means <= 1.05 hops at "
        "unlimited budget (trace-oracle verified) and ReCord hops are "
        "monotone in the fan-out",
        run_tradeoff,
        _COMMON + (
            _SMOKE,
            _systems_flag("systems to sweep (default: LORM Mercury SWORD MAAN)"),
            Flag("--overlays", to="overlays", nargs="+", metavar="POINT",
                 resolve=lambda config, labels: tuple(
                     point[0] for point in select_points(config, tuple(labels))
                 ),
                 help="overlay points to sweep: chord, record:f<N>, singlehop "
                 "(default: all configured points)"),
            Flag("--queries", to="tradeoff_queries", type=int,
                 help="measured point queries per overlay x budget cell"),
            Flag("--churn-events", to="tradeoff_churn_events", type=int,
                 help="churn events (leave/join alternating) per cell"),
            Flag("--fanouts", to="tradeoff_fanouts", type=int, nargs="+", metavar="H",
                 help="ReCord per-level fan-outs to sweep (e.g. --fanouts 1 4 16)"),
        ),
        verdict=("CURVE OK", "GATE MISS"),
    ),
    Experiment(
        "tail",
        "tail-latency sweep under gray failures: p50/p99/p99.9 "
        "response time vs slow-node fraction x requester policy "
        "(fixed/adaptive/hedged timeouts); exits non-zero unless the "
        "hedged policy cuts p99 >= 2x vs fixed on LORM and SWORD, meets "
        "the p99 SLO and keeps hedge overhead bounded",
        run_tail,
        _COMMON + (
            _SMOKE,
            Flag("--fractions", to="tail_slow_fractions", type=float, nargs="+",
                 metavar="F",
                 help="slow-node fractions to sweep (e.g. --fractions 0 0.05 0.1)"),
            Flag("--queries", to="tail_queries", type=int,
                 help="measured multi-attribute queries per cell"),
            Flag("--slo-p99", to="tail_slo_p99", type=float, metavar="SECONDS",
                 help="p99 response-time SLO the hedged policy must meet"),
        ),
        verdict=("SLO MET", "SLO MISSED"),
    ),
    Experiment(
        "scale",
        "n-scaling sweep on the compact array core: hops and "
        "maintenance messages at 100k-1M nodes with wall-clock and peak "
        "memory per point; exits non-zero when a --budget is exceeded",
        run_scale,
        (
            Flag("--scale", choices=sorted(_SCALES), default="paper",
                 help="paper = 100k-1M nodes (default); smoke = small, CI-fast"),
            _SMOKE,
            _SEED,
            Flag("--sizes", to="scale_sizes", type=int, nargs="+", metavar="N",
                 help="populations to sweep (e.g. --sizes 100000 1000000)"),
            Flag("--queries", to="scale_queries", type=int,
                 help="routed lookups measured per population point"),
            Flag("--churn-events", to="scale_churn_events", type=int,
                 help="churn events (join/leave/fail round-robin) measured per point"),
            Flag("--budget-seconds", type=float,
                 help="fail (exit 1) when the whole sweep takes longer than this"),
            Flag("--budget-mb", type=float,
                 help="fail (exit 1) when any point's peak traced memory exceeds "
                 "this many MB (peak RSS is reported alongside)"),
            Flag("--out", help="directory for CSV/text/JSON output"),
            Flag("--parallel", to="workers", nargs="?", type=int, const=0,
                 metavar="WORKERS", resolve=_workers,
                 help="shard population points over worker processes (results are "
                 "identical to a serial run; WORKERS defaults to the CPU count)"),
        ),
        judge=_judge_scale,
    ),
)


# ----------------------------------------------------------------------
# The other subcommands' flags
# ----------------------------------------------------------------------
_TRACE_FLAGS = (
    Flag("--system", required=True, choices=SYSTEMS,
         help="which discovery system to trace"),
    Flag("--overlay", metavar="OVERLAY",
         help="routing substrate: chord, cycloid (LORM only), singlehop, "
         "record (default: the system's native substrate)"),
    Flag("--fanout", type=int, default=2,
         help="ReCord per-level finger fan-out (--overlay record only)"),
    Flag("--seed", type=int, default=0, help="replay seed (default: 0)"),
    Flag("--queries", type=int, default=1,
         help="multi-attribute queries to replay (default: 1)"),
    Flag("--attributes", type=int, default=2,
         help="attributes per query (default: 2)"),
    Flag("--kind", choices=["point", "range", "at-least"], default="range",
         help="per-attribute constraint shape (default: range)"),
    Flag("--loss", type=float, default=0.0,
         help="seeded per-message loss rate; > 0 adds fault annotations "
         "(drop/retry/timeout/failover) to the spans"),
    Flag("--format", choices=["tree", "jsonl", "chrome"], default="tree",
         help="tree = human-readable; jsonl = one span per line; "
         "chrome = chrome://tracing / Perfetto trace_event JSON"),
    Flag("--out", help="write the trace to a file instead of stdout"),
)
_CHECK_FLAGS = (
    Flag("--systems", nargs="+", default=["all"], metavar="SYSTEM",
         help="systems to check: all (default) or any of LORM Mercury SWORD MAAN"),
    Flag("--seed", type=int, default=0, help="harness seed (default: 0)"),
    Flag("--queries", type=int, default=45,
         help="queries in the fault-free differential replay"),
    Flag("--churn-events", type=int, default=40, help="events in the guarded churn storm"),
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition, generated from the flag tables."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Shen & Xu (ICPP 2009): DHT algorithms for "
            "range-query and multi-attribute resource discovery in grids."
        ),
    )
    parser.set_defaults(smoke=False)  # for the subcommands without the alias
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, flags, handler) -> None:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(*flag.names, **flag.kwargs)
        # The subparser rides along so a handler's usage errors read
        # "repro <command>: error: ..." like argparse's own.
        p.set_defaults(handler=handler, subparser=p)

    add("list", "list available figures", (), _cmd_list)
    figures = Flag("figures", nargs="+", choices=sorted(FIGURES), metavar="FIGURE")
    add("run", "run one or more figures",
        (figures,) + _COMMON + (_PARALLEL,), _cmd_figures)
    add("all", "run every figure", _COMMON + (_PARALLEL,), _cmd_figures)
    for spec in EXPERIMENTS:
        add(spec.name, spec.help, spec.flags, partial(_run_experiment, spec=spec))
    add("trace",
        "replay a seeded multi-attribute query with hop-level span "
        "tracing on and print the trace (tree, JSONL or Chrome "
        "trace_event JSON); deterministic for a given seed",
        _TRACE_FLAGS, _cmd_trace)
    add("report", "assemble results/REPORT.md from existing artifacts",
        (Flag("--out", default="results",
              help="results directory (default: results/)"),),
        _cmd_report)
    add("check",
        "differential/invariant correctness check (oracle replay + "
        "guarded churn storm); exits non-zero on any divergence",
        _CHECK_FLAGS, _cmd_check)
    return parser


# ----------------------------------------------------------------------
# The command loop
# ----------------------------------------------------------------------
def _config_from(args: argparse.Namespace, flags: Sequence[Flag]) -> ExperimentConfig:
    """The ``--scale`` preset with every given config-field flag applied."""
    overrides = {}
    for flag in flags:
        value = getattr(args, flag.dest)
        # `is`: an unset store_true flag overrides nothing, but 0 does.
        if flag.to in _CONFIG_FIELDS and value is not None and value is not False:
            overrides[flag.to] = tuple(value) if isinstance(value, list) else value
    return _SCALES[args.scale].scaled(**overrides)


def _report_done(
    args: argparse.Namespace, config: ExperimentConfig, word: str, elapsed: float
) -> None:
    print(
        f"[{args.scale} scale, seed {config.seed}] {word} in {elapsed:.1f}s",
        file=sys.stderr,
    )
    if args.out:
        print(f"results written to {args.out}/", file=sys.stderr)


def _run_experiment(args: argparse.Namespace, spec: Experiment) -> int:
    """Config, run, render, verdict, save, exit code — for every experiment.

    A ``ValueError`` while building the config or resolving a flag is bad
    input: usage error, exit 2.  One raised by the runner is a bug and
    propagates.
    """
    try:
        config = _config_from(args, spec.flags)
        kwargs = {}
        for flag in spec.flags:
            value = getattr(args, flag.dest)
            if flag.to is None or flag.to in _CONFIG_FIELDS or value is None:
                continue
            kwargs[flag.to] = flag.resolve(config, value) if flag.resolve else value
    except ValueError as exc:
        args.subparser.error(str(exc))
    started = time.perf_counter()
    result = spec.runner(config, **kwargs)
    elapsed = time.perf_counter() - started
    print(result.render())
    ok, word = True, "done"
    if spec.judge is not None:
        ok, word = spec.judge(result, args, elapsed)
    elif spec.verdict is not None:
        ok = result.ok
        word = spec.verdict[0 if ok else 1]
    else:
        print()  # an ungated figure report ends like `repro run`'s
    if args.out:
        result.save(args.out)
    _report_done(args, config, word, elapsed)
    return 0 if ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    for figure_id in sorted(FIGURES):
        print(f"{figure_id:7s} {dict(FIGURES[figure_id].panels)[figure_id]}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    """``run FIGURE...`` and ``all``: each figure saved as it finishes."""
    try:
        config = _config_from(args, _COMMON)
        if args.parallel is not None:
            _workers(config, args.parallel)
    except ValueError as exc:
        args.subparser.error(str(exc))
    figure_ids = args.figures if args.command == "run" else sorted(FIGURES)
    started = time.perf_counter()
    results = run_figures(figure_ids, config, save_dir=args.out, workers=args.parallel)
    for figure_id in figure_ids:
        print(results[figure_id].render())
        print()
    _report_done(args, config, "done", time.perf_counter() - started)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import render_tree, traces_to_chrome, traces_to_jsonl
    from repro.workloads.generator import QueryKind

    try:
        overlay = resolve_overlay(args.overlay) if args.overlay is not None else None
        require(0.0 <= args.loss < 1.0, f"--loss must be in [0, 1), got {args.loss}")
        require(args.queries >= 1, f"--queries must be >= 1, got {args.queries}")
        schema_size = TRACE_CONFIG.num_attributes
        require(1 <= args.attributes <= schema_size,
                f"--attributes must be in [1, {schema_size}], got {args.attributes}")
        require(args.fanout >= 1, f"--fanout must be >= 1, got {args.fanout}")
    except ValueError as exc:
        args.subparser.error(str(exc))
    started = time.perf_counter()
    _, traces = replay_queries(
        args.system,
        seed=args.seed,
        num_queries=args.queries,
        num_attributes=args.attributes,
        kind=QueryKind(args.kind),
        loss=args.loss,
        overlay=overlay,
        fanout=args.fanout,
    )
    if args.format == "jsonl":
        text = traces_to_jsonl(traces)
    elif args.format == "chrome":
        text = traces_to_chrome(traces)
    else:
        text = "\n".join(render_tree(t) for t in traces)
        if text:
            text += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    elapsed = time.perf_counter() - started
    hops = sum(t.hop_count() for t in traces)
    print(
        f"[{args.system}, seed {args.seed}] {len(traces)} trace(s), "
        f"{hops} hops in {elapsed:.1f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.consolidate import write_report

    if not os.path.isdir(args.out):
        args.subparser.error(f"--out must be an existing directory, got {args.out!r}")
    path = write_report(args.out)
    print(f"wrote {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.testing.differential import run_check

    try:
        systems = (
            SYSTEM_NAMES if "all" in args.systems else resolve_systems(args.systems)
        )
        # An empty replay and storm would pass having checked nothing.
        require(args.queries >= 1, f"--queries must be >= 1, got {args.queries}")
        require(args.churn_events >= 0,
                f"--churn-events must be >= 0, got {args.churn_events}")
    except ValueError as exc:
        args.subparser.error(str(exc))
    started = time.perf_counter()
    report = run_check(
        systems=systems,
        seed=args.seed,
        num_queries=args.queries,
        churn_events=args.churn_events,
    )
    print(report.render())
    elapsed = time.perf_counter() - started
    print(f"[seed {args.seed}] checked in {elapsed:.1f}s", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.scale = "smoke"
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
