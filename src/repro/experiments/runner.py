"""Programmatic entry point: run any figure by ID.

``run_figure("fig4a", config)`` returns the figure's result object
(:class:`~repro.experiments.report.FigureResult` or
:class:`~repro.experiments.report.DistributionResult`); the CLI and the
benchmark suite both go through this registry, so the figure inventory
lives in exactly one place.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

from repro.experiments import figure3, figure4, figure5, figure6
from repro.experiments.availability import run_availability
from repro.experiments.common import build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.latency import run_latency
from repro.experiments.maintenance import run_maintenance
from repro.experiments.recovery import run_recovery
from repro.experiments.scale import run_scale
from repro.experiments.staleness import run_staleness
from repro.experiments.theorem_table import run_theorem_table

__all__ = [
    "FIGURES",
    "run_figure",
    "run_all_figures",
    "run_figures_parallel",
    "run_points_parallel",
]

#: Figure ID → runner.  Each runner takes a config and returns a result
#: object with ``render()`` and ``save(directory)``.
FIGURES: dict[str, Callable] = {
    "fig3a": figure3.run_fig3a,
    "fig3b": figure3.run_fig3b,
    "fig3c": figure3.run_fig3c,
    "fig3d": figure3.run_fig3d,
    "fig4a": figure4.run_fig4a,
    "fig4b": figure4.run_fig4b,
    "fig5a": figure5.run_fig5a,
    "fig5b": figure5.run_fig5b,
    "fig6a": figure6.run_fig6a,
    "fig6b": figure6.run_fig6b,
    "theorems": run_theorem_table,
    "latency": run_latency,  # extension figure, see module docstring
    "staleness": run_staleness,  # extension figure: provider churn x leases
    "maintenance": run_maintenance,  # extension figure: repair traffic vs R
    "availability": run_availability,  # extension: completeness vs loss x r
    "recovery": run_recovery,  # extension: time-to-reconverge vs interval
    "scale": run_scale,  # extension: 100k-1M-node hops/maintenance sweep
}


def run_figure(
    figure_id: str,
    config: ExperimentConfig,
    *,
    save_dir: str | Path | None = None,
):
    """Run one figure; optionally persist CSV/text under ``save_dir``.

    With ``config.validate_invariants`` set (the CLI's ``--invariants``
    flag), every churn event in the figure's simulation is validated by
    a :class:`~repro.sim.invariants.ChurnGuard` — a violation aborts the
    run at the offending event instead of skewing the figure.
    """
    try:
        runner = FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None
    result = runner(config)
    if save_dir is not None:
        result.save(save_dir)
    return result


def run_all_figures(
    config: ExperimentConfig,
    *,
    save_dir: str | Path | None = None,
) -> dict[str, object]:
    """Run every figure, sharing expensive state where possible.

    The directory-size panels (3b/3c/3d) share one loaded service bundle;
    figures 4 and 5 each produce both panels from a single sweep; figure 6
    produces both panels from one churn sweep.  Each result is persisted
    the moment it is computed, so an interrupted multi-hour paper-scale
    run keeps every finished figure on disk.
    """
    results: dict[str, object] = {}

    def emit(figure_id: str, result: object) -> None:
        results[figure_id] = result
        if save_dir is not None:
            result.save(save_dir)  # type: ignore[attr-defined]

    emit("fig3a", figure3.run_fig3a(config))

    bundle = build_services(config)
    emit("fig3b", figure3.run_fig3b(config, bundle))
    emit("fig3c", figure3.run_fig3c(config, bundle))
    emit("fig3d", figure3.run_fig3d(config, bundle))

    fig4a, fig4b = figure4.run_fig4(config, bundle)
    emit("fig4a", fig4a)
    emit("fig4b", fig4b)
    fig5a, fig5b = figure5.run_fig5(config, bundle)
    emit("fig5a", fig5a)
    emit("fig5b", fig5b)
    emit("theorems", run_theorem_table(config, bundle))
    emit("latency", run_latency(config, bundle))
    emit("staleness", run_staleness(config))
    emit("maintenance", run_maintenance(config))
    emit("availability", run_availability(config))
    emit("recovery", run_recovery(config))
    fig6a, fig6b = figure6.run_fig6(config)
    emit("fig6a", fig6a)
    emit("fig6b", fig6b)
    emit("scale", run_scale(config))
    return results


def _parallel_job(
    figure_id: str, config: ExperimentConfig, save_dir: str | None
) -> tuple[str, object]:
    """Worker entry point (module-level so it pickles)."""
    return figure_id, run_figure(figure_id, config, save_dir=save_dir)


def run_figures_parallel(
    figure_ids: Sequence[str],
    config: ExperimentConfig,
    *,
    save_dir: str | Path | None = None,
    max_workers: int | None = None,
) -> dict[str, object]:
    """Fan independent figure runs out over worker processes.

    Opt-in (the CLI's ``--parallel``): each figure rebuilds its own
    service bundle instead of sharing one, trading total CPU for
    wall-clock.  Workers save their own results as they finish, so an
    interrupted run keeps every completed figure.  Results are identical
    to serial ``run_figure`` calls — each worker derives all randomness
    from ``config.seed``.
    """
    unknown = sorted(set(figure_ids) - set(FIGURES))
    if unknown:
        raise KeyError(f"unknown figures {unknown}; available: {sorted(FIGURES)}")
    save_arg = None if save_dir is None else str(save_dir)
    results: dict[str, object] = {}
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(_parallel_job, figure_id, config, save_arg)
            for figure_id in figure_ids
        ]
        for future in as_completed(futures):
            figure_id, result = future.result()
            results[figure_id] = result
    return results


def run_points_parallel(
    job: Callable,
    points: Sequence,
    config: ExperimentConfig,
    *,
    max_workers: int | None = None,
) -> list:
    """Shard independent sweep *points* of one experiment across processes.

    ``run_figures_parallel`` parallelises whole figures; this fans out the
    points *inside* one sweep — ``job(config, point)`` per point, where
    ``job`` is a module-level callable (it must pickle) that derives all
    randomness from ``(config.seed, point)``.  Results come back in
    ``points`` order, identical to a serial ``[job(config, p) for p in
    points]`` loop.
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
