"""The experiment registry: every figure and sweep, one row each.

``run_figure("fig4a", config)`` returns the figure's result object
(:class:`~repro.experiments.report.FigureResult` or
:class:`~repro.experiments.report.DistributionResult`);
``run_figures(ids, config)`` runs several.  A :class:`Run` row also
carries what a sweep's own subcommand needs — name, help, :class:`Flag`
rows, verdict — so the CLI's ``run`` / ``all`` / sweep subcommands and
``repro report`` all read the one table here, and the inventory lives in
exactly one place.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.experiments import figure3, figure4, figure5, figure6
from repro.experiments.availability import run_availability
from repro.experiments.common import resolve_systems
from repro.experiments.config import PAPER_CONFIG, SMOKE_CONFIG, ExperimentConfig
from repro.experiments.durability import DEFAULT_SCENARIOS, run_durability
from repro.experiments.hotspot import run_hotspot
from repro.experiments.latency import run_latency
from repro.experiments.maintenance import run_maintenance
from repro.experiments.recovery import run_chaos_demo, run_recovery
from repro.experiments.scale import run_scale
from repro.experiments.staleness import run_staleness
from repro.experiments.tail import run_tail
from repro.experiments.theorem_table import run_theorem_table
from repro.experiments.tradeoff import run_tradeoff, select_points
from repro.sim.durability import parse_policy
from repro.utils.validation import require, require_positive

__all__ = ["FIGURES", "Flag", "Run", "run_figure", "run_figures", "run_points_parallel"]

#: ``--scale`` preset name → config.
_SCALES = {"paper": PAPER_CONFIG, "smoke": SMOKE_CONFIG}


class Flag:
    """One ``add_argument`` row of a subcommand.

    ``to`` names what the parsed value feeds: an :class:`ExperimentConfig`
    field (a list becomes a tuple) or, for any other name, a keyword
    argument of the experiment's runner — after ``resolve(config, value)``
    when the raw strings need validating.  ``to=None`` leaves the value on
    the namespace for the command itself (a ``resolve`` then only validates
    it).  Everything else is argparse's.
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


@dataclass(frozen=True)
class Run:
    """One registry row: a runner, the panels its one execution yields,
    and — for a sweep with a subcommand of its own — that command.

    ``runner(config, **kwargs)`` returns a result object with ``render()``
    and ``save(directory)`` — one for a single-panel run, a tuple in
    ``panels`` order for a sweep that feeds several panels.
    :func:`run_figures` passes the config alone; the subcommand adds the
    keywords its flags feed.
    """

    runner: Callable[..., Any]
    #: ``(figure id, one-line description)`` per panel (``repro list`` /
    #: ``run`` / ``all``); empty for a sweep that is only a subcommand.
    panels: tuple[tuple[str, str], ...] = ()
    #: ``repro <name>``; ``None`` for a row reached only as figures.
    name: str | None = None
    help: str = ""
    flags: tuple[Flag, ...] = ()
    #: ``(pass, fail)`` words for a result gated on its ``.ok`` (the exit
    #: code); ``None`` for an ungated report.
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


def _workers(config: ExperimentConfig, workers: int) -> int:
    """``--parallel [WORKERS]``: 0 (the bare flag) means the CPU count."""
    require(workers >= 0, f"--parallel WORKERS must be >= 0, got {workers}")
    return workers


#: The flags of ``repro run`` / ``repro all``.  Their ``--parallel`` feeds
#: :func:`run_figures`' ``workers`` and fans rows out; ``repro scale``'s
#: feeds :func:`~repro.experiments.scale.run_scale`'s and shards points.
_FIGURE_FLAGS = _COMMON + (
    Flag("--parallel", to="workers", nargs="?", type=int, const=0,
         metavar="WORKERS", resolve=_workers,
         help="fan figure runs out over worker processes (results are identical "
         "to a serial run; WORKERS defaults to the CPU count)"),
)


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


#: The inventory, figures in execution order.  A figure is registered by
#: the *run* that produces it, so panels cut from one sweep share a row
#: and that sweep executes once however many of them are asked for.  Rows
#: with a ``name`` are also subcommands, in table order.
_RUNS: tuple[Run, ...] = (
    Run(figure3.run_fig3a, (
        ("fig3a", "Outlinks per node vs network size (Figure 3(a))."),
    )),
    Run(figure3.run_fig3bcd, (
        ("fig3b", "Directory sizes: MAAN vs LORM (Figure 3(b))."),
        ("fig3c", "Directory sizes: SWORD vs LORM (Figure 3(c))."),
        ("fig3d", "Directory sizes: Mercury vs LORM (Figure 3(d))."),
    )),
    Run(figure4.run_fig4, (
        ("fig4a", "Figure 4(a): average hops per query vs attributes per query."),
        ("fig4b", "Figure 4(b): total hops vs attributes per query."),
    )),
    Run(figure5.run_fig5, (
        ("fig5a", "Figure 5(a): system-wide range discovery (MAAN / Mercury)."),
        ("fig5b", "Figure 5(b): SWORD and LORM."),
    )),
    Run(run_theorem_table, (
        ("theorems", "Measure every theorem's constant on one loaded bundle."),
    )),
    # Extension figures (see each module's docstring).
    Run(run_latency, (
        ("latency", "Mean simulated response latency of range queries vs attribute count."),
    )),
    Run(run_staleness, (
        ("staleness", "Stale-answer fraction vs lease TTL, with the no-expiry baseline."),
    )),
    Run(run_maintenance, (
        ("maintenance", "Maintenance messages/second vs churn rate R (log-scale y)."),
    )),
    Run(
        run_availability,
        (("availability",
          "Query completeness vs. message-loss rate, per approach × replication."),),
        name="availability",
        help="query completeness under message loss x replication",
        flags=_COMMON + (
            Flag("--loss", to="loss_rates", type=float, nargs="+", metavar="RATE",
                 help="message-loss rates to sweep (e.g. --loss 0 0.05 0.1)"),
            Flag("--replication", to="availability_replications", type=int,
                 nargs="+", metavar="R",
                 help="replication factors to sweep (e.g. --replication 1 2 3)"),
            Flag("--queries", to="num_availability_queries", type=int,
                 help="multi-attribute queries per (loss, replication) cell"),
        ),
    ),
    Run(run_recovery, (
        ("recovery", "Time-to-reconverge vs. maintenance interval, per approach × churn R."),
    )),
    Run(figure6.run_fig6, (
        ("fig6a", "Figure 6(a): hops under churn."),
        ("fig6b", "Figure 6(b): visited nodes under churn."),
    )),
    # Gated sweeps: subcommands only, each exit code a verdict.
    Run(
        run_chaos_demo,
        name="chaos",
        help="seeded chaos-timeline demo: partition heal + crash burst "
        "under budgeted maintenance; exits non-zero unless every system "
        "reconverges (and the budget=0 control does NOT)",
        flags=_COMMON + (_SMOKE,),
        verdict=("RECONVERGED", "FAILED TO RECONVERGE"),
    ),
    Run(
        run_durability,
        name="durability",
        help="redundancy-policy sweep: successor/symmetric replication and "
        "erasure coding through chaos timelines, reporting pieces lost, "
        "data time-to-recover and repair bandwidth per policy; exits "
        "non-zero unless every cell recovers its surviving data",
        flags=_COMMON + (
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
    Run(
        run_hotspot,
        name="hotspot",
        help="load-balance sweep under zipf-skewed popularity: per-node "
        "serve-load imbalance (max/mean, Gini, top-5 share) per system x "
        "zipf-s x mitigation (none / salted roots / dynamic replication); "
        "exits non-zero unless the best mitigation cuts SWORD's imbalance "
        ">= 2x at the highest s with byte-identical answers and hop "
        "counts within the structural ceilings",
        flags=_COMMON + (
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
    Run(
        run_tradeoff,
        name="tradeoff",
        help="lookup-vs-maintenance sweep across routing tiers (chord / "
        "record:f<N> randomized-Chord / singlehop full-membership) x "
        "maintenance budget (zero/default/unlimited), common random "
        "numbers; exits non-zero unless single-hop means <= 1.05 hops at "
        "unlimited budget (trace-oracle verified) and ReCord hops are "
        "monotone in the fan-out",
        flags=_COMMON + (
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
    Run(
        run_tail,
        name="tail",
        help="tail-latency sweep under gray failures: p50/p99/p99.9 "
        "response time vs slow-node fraction x requester policy "
        "(fixed/adaptive/hedged timeouts); exits non-zero unless the "
        "hedged policy cuts p99 >= 2x vs fixed on LORM and SWORD, meets "
        "the p99 SLO and keeps hedge overhead bounded",
        flags=_COMMON + (
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
    Run(
        run_scale,
        (("scale", "Hops and maintenance cost vs population n on the compact core."),),
        name="scale",
        help="n-scaling sweep on the compact array core: hops and "
        "maintenance messages at 100k-1M nodes with wall-clock and peak "
        "memory per point; exits non-zero when a --budget is exceeded",
        flags=(
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
                 resolve=lambda config, seconds: require_positive(seconds, "--budget-seconds"),
                 help="fail (exit 1) when the whole sweep takes longer than this"),
            Flag("--budget-mb", type=float,
                 resolve=lambda config, mb: require_positive(mb, "--budget-mb"),
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

#: Figure ID → the row that produces it, in execution order.
FIGURES: dict[str, Run] = {
    figure_id: run for run in _RUNS for figure_id, _ in run.panels
}


def _run_row(
    config: ExperimentConfig, job: tuple[tuple[str, ...], str | Path | None]
) -> dict[str, object]:
    """Execute one row for the panels asked of it, saving each at once.

    Module-level and keyed by figure id (not by the runner callable) so it
    pickles as a :func:`run_points_parallel` job.
    """
    figure_ids, save_dir = job
    run = FIGURES[figure_ids[0]]
    results = run.runner(config)
    if not isinstance(results, tuple):
        results = (results,)
    wanted: dict[str, object] = {}
    for (figure_id, _), result in zip(run.panels, results):
        if figure_id in figure_ids:
            if save_dir is not None:
                result.save(save_dir)
            wanted[figure_id] = result
    return wanted


def run_figures(
    figure_ids: Sequence[str],
    config: ExperimentConfig,
    *,
    save_dir: str | Path | None = None,
    workers: int | None = None,
) -> dict[str, object]:
    """Run the requested figures: the one loop behind ``run`` and ``all``.

    Every registry row that produces a requested id executes exactly once,
    on state it builds itself from ``config.seed`` — so a figure's output
    depends on ``(figure, config)`` alone, never on which other figures
    ran or on the entry point.  Rows run serially in table order, or, with
    ``workers`` set (the CLI's ``--parallel``; 0 = the CPU count), fanned
    out over worker processes.  Each requested panel is persisted under
    ``save_dir`` the moment its row finishes, so an interrupted paper-scale
    run keeps every finished figure on disk.

    With ``config.validate_invariants`` set (the CLI's ``--invariants``
    flag), every churn event in a figure's simulation is validated by a
    :class:`~repro.sim.invariants.ChurnGuard` — a violation aborts the
    run at the offending event instead of skewing the figure.
    """
    wanted = set(figure_ids)
    unknown = sorted(wanted - set(FIGURES))
    if unknown:
        raise KeyError(f"unknown figures {unknown}; available: {sorted(FIGURES)}")
    jobs = [
        (ids, save_dir)
        for run in _RUNS
        if (ids := tuple(i for i, _ in run.panels if i in wanted))
    ]
    if workers is None:
        batches = [_run_row(config, job) for job in jobs]
    else:
        batches = run_points_parallel(_run_row, jobs, config, max_workers=workers or None)
    return {figure_id: result for batch in batches for figure_id, result in batch.items()}


def run_figure(
    figure_id: str,
    config: ExperimentConfig,
    *,
    save_dir: str | Path | None = None,
):
    """Run one figure; optionally persist CSV/text under ``save_dir``."""
    return run_figures([figure_id], config, save_dir=save_dir)[figure_id]


def run_points_parallel(
    job: Callable,
    points: Sequence,
    config: ExperimentConfig,
    *,
    max_workers: int | None = None,
) -> list:
    """Shard independent sweep *points* of one experiment across processes.

    ``job(config, point)`` per point — the points *inside* one sweep, or
    whole registry rows for :func:`run_figures` — where ``job`` is a
    module-level callable (it must pickle) that derives all randomness
    from ``(config.seed, point)``.  Results come back in ``points`` order,
    identical to a serial ``[job(config, p) for p in points]`` loop.
    """
    results: list = [None] * len(points)
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {
            pool.submit(job, config, point): index
            for index, point in enumerate(points)
        }
        for future in as_completed(futures):
            results[futures[future]] = future.result()
    return results
