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

Every figure and sweep is one :class:`~repro.experiments.runner.Run` row
of the registry in :mod:`repro.experiments.runner`; :func:`build_parser`
generates ``run`` / ``all`` and a subcommand per named row, and
:func:`_cmd_run` is the one command loop behind all of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from collections.abc import Sequence
from functools import partial

from repro.experiments.common import SYSTEM_NAMES, resolve_overlay, resolve_systems
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import _FIGURE_FLAGS, _RUNS, _SCALES, FIGURES, Flag, Run, run_figures
from repro.obs.replay import SYSTEMS, TRACE_CONFIG, replay_queries
from repro.utils.validation import require

__all__ = ["main", "build_parser"]

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


# ----------------------------------------------------------------------
# The flags of the subcommands outside the registry
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
    add("run", "run one or more figures", (figures,) + _FIGURE_FLAGS, _cmd_run)
    add("all", "run every figure", _FIGURE_FLAGS, _cmd_run)
    for row in _RUNS:
        if row.name:
            add(row.name, row.help, row.flags, partial(_cmd_run, row=row))
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
def _cmd_run(args: argparse.Namespace, row: Run | None = None) -> int:
    """Config, resolve, run, render, verdict word, save, exit code.

    ``row`` is a sweep subcommand's registry row, or ``None`` for ``run`` /
    ``all``, whose figures :func:`run_figures` saves as each row finishes.
    A ``ValueError`` while building the config or resolving a flag is bad
    input: usage error, exit 2.  One raised by a runner is a bug and
    propagates.
    """
    flags = _FIGURE_FLAGS if row is None else row.flags
    overrides, fed = {}, []
    for flag in flags:
        value = getattr(args, flag.dest)
        if flag.to in _CONFIG_FIELDS:
            # `is`: an unset store_true flag overrides nothing, but 0 does.
            if value is not None and value is not False:
                overrides[flag.to] = tuple(value) if isinstance(value, list) else value
        elif flag.to is not None and value is not None:
            fed.append((flag, value))
    try:
        config = _SCALES[args.scale].scaled(**overrides)
        kwargs = {f.to: f.resolve(config, v) if f.resolve else v for f, v in fed}
    except ValueError as exc:
        args.subparser.error(str(exc))
    started = time.perf_counter()
    if row is None:
        figure_ids = args.figures if args.command == "run" else sorted(FIGURES)
        done = run_figures(figure_ids, config, save_dir=args.out, **kwargs)
        results = [done[figure_id] for figure_id in figure_ids]
    else:
        results = [row.runner(config, **kwargs)]
    elapsed = time.perf_counter() - started
    gated = row is not None and (row.judge or row.verdict)
    for result in results:
        print(result.render())
        if not gated:
            print()  # an ungated report ends with a blank line
    ok, word = True, "done"
    if gated and row.judge:  # a sweep: `result` is its one result
        ok, word = row.judge(result, args, elapsed)
    elif gated:
        ok = result.ok
        word = row.verdict[0 if ok else 1]
    if row is not None and args.out:
        result.save(args.out)
    print(f"[{args.scale} scale, seed {config.seed}] {word} in {elapsed:.1f}s",
          file=sys.stderr)
    if args.out:
        print(f"results written to {args.out}/", file=sys.stderr)
    return 0 if ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    for figure_id in sorted(FIGURES):
        print(f"{figure_id:7s} {dict(FIGURES[figure_id].panels)[figure_id]}")
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
