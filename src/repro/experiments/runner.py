"""Programmatic entry point: run any figure by ID.

``run_figure("fig4a", config)`` returns the figure's result object
(:class:`~repro.experiments.report.FigureResult` or
:class:`~repro.experiments.report.DistributionResult`);
``run_figures(ids, config)`` runs several.  The CLI's ``run`` / ``all``
and ``repro report`` all read the one registry here, so the figure
inventory lives in exactly one place.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from repro.experiments import figure3, figure4, figure5, figure6
from repro.experiments.availability import run_availability
from repro.experiments.config import ExperimentConfig
from repro.experiments.latency import run_latency
from repro.experiments.maintenance import run_maintenance
from repro.experiments.recovery import run_recovery
from repro.experiments.scale import run_scale
from repro.experiments.staleness import run_staleness
from repro.experiments.theorem_table import run_theorem_table

__all__ = ["FIGURES", "FigureRun", "run_figure", "run_figures", "run_points_parallel"]


@dataclass
class FigureRun:
    """One registry row: a runner and the panels its one execution yields.

    ``runner(config)`` returns a result object with ``render()`` and
    ``save(directory)`` — one for a single-panel run, a tuple in
    ``panels`` order for a sweep that feeds several panels.
    """

    runner: Callable
    #: ``(figure id, one-line description)`` per panel (``repro list``).
    panels: tuple[tuple[str, str], ...]


#: The figure inventory, in execution order.  A figure is registered by
#: the *run* that produces it, so panels cut from one sweep share a row
#: and that sweep executes once however many of them are asked for.
_RUNS: tuple[FigureRun, ...] = (
    FigureRun(figure3.run_fig3a, (
        ("fig3a", "Outlinks per node vs network size (Figure 3(a))."),
    )),
    FigureRun(figure3.run_fig3bcd, (
        ("fig3b", "Directory sizes: MAAN vs LORM (Figure 3(b))."),
        ("fig3c", "Directory sizes: SWORD vs LORM (Figure 3(c))."),
        ("fig3d", "Directory sizes: Mercury vs LORM (Figure 3(d))."),
    )),
    FigureRun(figure4.run_fig4, (
        ("fig4a", "Figure 4(a): average hops per query vs attributes per query."),
        ("fig4b", "Figure 4(b): total hops vs attributes per query."),
    )),
    FigureRun(figure5.run_fig5, (
        ("fig5a", "Figure 5(a): system-wide range discovery (MAAN / Mercury)."),
        ("fig5b", "Figure 5(b): SWORD and LORM."),
    )),
    FigureRun(run_theorem_table, (
        ("theorems", "Measure every theorem's constant on one loaded bundle."),
    )),
    # Extension figures (see each module's docstring).
    FigureRun(run_latency, (
        ("latency", "Mean simulated response latency of range queries vs attribute count."),
    )),
    FigureRun(run_staleness, (
        ("staleness", "Stale-answer fraction vs lease TTL, with the no-expiry baseline."),
    )),
    FigureRun(run_maintenance, (
        ("maintenance", "Maintenance messages/second vs churn rate R (log-scale y)."),
    )),
    FigureRun(run_availability, (
        ("availability",
         "Query completeness vs. message-loss rate, per approach × replication."),
    )),
    FigureRun(run_recovery, (
        ("recovery", "Time-to-reconverge vs. maintenance interval, per approach × churn R."),
    )),
    FigureRun(figure6.run_fig6, (
        ("fig6a", "Figure 6(a): hops under churn."),
        ("fig6b", "Figure 6(b): visited nodes under churn."),
    )),
    FigureRun(run_scale, (
        ("scale", "Hops and maintenance cost vs population n on the compact core."),
    )),
)

#: Figure ID → the row that produces it, in execution order.
FIGURES: dict[str, FigureRun] = {
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
