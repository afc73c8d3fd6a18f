"""Tests for the figure registry and the one figure loop."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro import cli
from repro.experiments import common, figure4, latency, runner
from repro.experiments.runner import FIGURES, run_figure, run_figures
from tests.experiments.conftest import _run


def _rendered(figure_id: str, result) -> str:
    # The scale figure's notes carry wall-clock and memory readings.
    return result.to_csv() if figure_id == "scale" else result.render()


class TestRegistry:
    def test_every_paper_figure_registered(self):
        assert set(FIGURES) == {
            "fig3a", "fig3b", "fig3c", "fig3d",
            "fig4a", "fig4b", "fig5a", "fig5b",
            "fig6a", "fig6b", "theorems", "latency", "staleness", "maintenance",
            "availability", "recovery", "scale",
        }

    def test_unknown_figure_rejected(self, tiny_config):
        with pytest.raises(KeyError, match="unknown figure"):
            run_figure("fig99", tiny_config)


def _flag_fed_parameters(row: runner.Run) -> list[str]:
    """The runner keyword arguments ``row``'s flags feed (non-config ``to=``)."""
    return [
        flag.to
        for flag in row.flags
        if flag.to is not None and flag.to not in cli._CONFIG_FIELDS
    ]


class TestRunnerSignatures:
    """A registered runner is a function of its config: every other
    parameter it has is one a CLI flag feeds.  ``run_figures`` calls
    ``runner(config)``, so a figure-only row's runner takes nothing else."""

    @pytest.mark.parametrize(
        "row", runner._RUNS, ids=lambda row: row.name or row.panels[0][0]
    )
    def test_experiment_runner_takes_config_and_its_flags(self, row):
        config, *rest = inspect.signature(row.runner).parameters
        assert sorted(rest) == sorted(_flag_fed_parameters(row))

    @pytest.mark.parametrize(
        "figure_id", [run.panels[0][0] for run in runner._RUNS if run.panels]
    )
    def test_figure_runner_takes_config_and_nothing_else(self, figure_id):
        """``run_figures`` calls ``runner(config)``.  ``scale`` is also a
        subcommand, whose ``--parallel`` feeds ``workers`` (test above)."""
        config, *rest = inspect.signature(FIGURES[figure_id].runner).parameters
        assert rest == (["workers"] if figure_id == "scale" else [])


class TestRunFigure:
    def test_runs_and_saves(self, tiny_config, tmp_path):
        result = run_figure("fig3a", tiny_config, save_dir=tmp_path)
        assert result.figure_id == "fig3a"
        assert (tmp_path / "fig3a.csv").exists()
        assert (tmp_path / "fig3a.txt").exists()

    def test_distribution_figure_saves_too(self, tiny_config, tmp_path):
        run_figure("fig3c", tiny_config, save_dir=tmp_path)
        assert (tmp_path / "fig3c.csv").exists()
        # Only the panel asked for is persisted, not its run's siblings.
        assert not (tmp_path / "fig3b.csv").exists()


class TestRunAll:
    def test_all_figures_produced_and_saved(self, smoke_all):
        assert set(smoke_all.result) == set(FIGURES)
        for figure_id in FIGURES:
            assert (smoke_all.tree / f"{figure_id}.csv").exists(), figure_id


class TestEntryPointIdentity:
    """A figure has one output per (config, seed), whatever produced it:
    ``repro all`` (serial), the figure loop fanned out, or one figure."""

    def test_parallel_renders_what_serial_renders(self, smoke_all, tiny_config):
        serial = smoke_all.result
        parallel = run_figures(sorted(FIGURES), tiny_config, workers=2)
        assert set(parallel) == set(FIGURES)
        for figure_id in FIGURES:
            assert _rendered(figure_id, parallel[figure_id]) == _rendered(
                figure_id, serial[figure_id]
            ), figure_id

    # theorems / latency once rode a bundle that fig4 and fig5 had already
    # queried inside `all`; fig5b / fig6b are second panels of a sweep.
    @pytest.mark.parametrize("figure_id", ["theorems", "latency", "fig5b", "fig6b"])
    def test_one_figure_renders_what_all_renders(self, figure_id, smoke_all, tiny_config):
        assert run_figure(figure_id, tiny_config).render() == smoke_all.result[figure_id].render()


def _assert_run_writes_what_all_wrote(figure_ids, smoke_all, smoke, tree) -> None:
    """``repro run FIGURE_IDS --scale smoke`` writes, for each id, the
    bytes the session ``repro all`` tree holds."""
    run = _run(["run", *figure_ids, "--scale", "smoke"], tree, smoke, "run")
    for figure_id in figure_ids:
        for suffix in (".csv", ".txt"):
            name = f"{figure_id}{suffix}"
            assert (run.tree / name).read_bytes() == (smoke_all.tree / name).read_bytes(), name


class TestOneOutputPerSeed:
    """Each row builds its own service bundle.  ``all`` once threaded one
    bundle from row to row, so ``theorems`` and ``latency`` had one output
    inside ``all`` and another alone (the render-level check of one figure
    alone is ``test_one_figure_renders_what_all_renders``)."""

    def test_a_run_writes_what_all_wrote(self, smoke_all, tiny_config, tmp_path):
        _assert_run_writes_what_all_wrote(["fig4a", "latency"], smoke_all, tiny_config, tmp_path)

    def test_a_bundle_shared_by_two_rows_is_caught(
        self, smoke_all, tiny_config, tmp_path, plant
    ):
        # The planted bug: rows that ask for the same bundle get one object,
        # so ``latency`` routes on the bundle ``fig4a`` already queried.
        bundles = {}

        def shared(config, **kwargs):
            key = (config, tuple(sorted(kwargs.items())))
            if key not in bundles:
                bundles[key] = common.build_services(config, **kwargs)
            return bundles[key]

        for module in (figure4, latency):
            plant(module, "build_services", shared)
        with pytest.raises(AssertionError, match="latency"):
            _assert_run_writes_what_all_wrote(
                ["fig4a", "latency"], smoke_all, tiny_config, tmp_path
            )


class TestRunOnce:
    @pytest.mark.parametrize("workers", [None, 1])
    @pytest.mark.parametrize(
        "figure_ids", [("fig6a", "fig6b"), ("fig3b", "fig3c", "fig3d")]
    )
    def test_panels_of_one_run_share_its_execution(
        self, figure_ids, workers, tiny_config, tmp_path, monkeypatch
    ):
        run = FIGURES[figure_ids[0]]
        calls = tmp_path / "calls"  # a file: the worker is another process

        def counting(config):
            with calls.open("a") as fh:
                fh.write("call\n")
            return tuple(f"result of {figure_id}" for figure_id, _ in run.panels)

        counted = dataclasses.replace(run, runner=counting)
        for figure_id, _ in run.panels:
            monkeypatch.setitem(FIGURES, figure_id, counted)
        results = run_figures(figure_ids, tiny_config, workers=workers)
        assert results == {i: f"result of {i}" for i in figure_ids}
        assert calls.read_text() == "call\n"

    def test_all_fans_out_one_job_per_run(self, tiny_config, monkeypatch):
        submitted = []

        def record(job, points, config, *, max_workers=None):
            submitted.extend(points)
            return [{} for _ in points]

        monkeypatch.setattr(runner, "run_points_parallel", record)
        run_figures(sorted(FIGURES), tiny_config, workers=2)
        assert len(submitted) == 12  # not one per panel (17)
        assert sorted(i for ids, _ in submitted for i in ids) == sorted(FIGURES)
