"""Incremental saving and the opt-in parallel fan-out of ``run_figures``."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import FIGURES, run_figure, run_figures


class TestIncrementalSave:
    def test_finished_figures_survive_a_crash(self, tiny_config, tmp_path, monkeypatch):
        """A failure mid-run must not discard already-computed figures."""

        def explode(*args, **kwargs):
            raise RuntimeError("simulated mid-run crash")

        monkeypatch.setitem(
            FIGURES, "fig4a", dataclasses.replace(FIGURES["fig4a"], runner=explode)
        )
        cfg = tiny_config.scaled(fig3a_dimensions=(3, 4))
        with pytest.raises(RuntimeError, match="simulated mid-run crash"):
            run_figures(sorted(FIGURES), cfg, save_dir=tmp_path)
        # Everything computed before the crash is already on disk.
        for figure_id in ("fig3a", "fig3b", "fig3c", "fig3d"):
            assert (tmp_path / f"{figure_id}.csv").exists(), figure_id
        assert not (tmp_path / "fig4a.csv").exists()


class TestParallelRunner:
    def test_results_identical_to_serial(self, tiny_config, tmp_path):
        serial = run_figure("fig4a", tiny_config)
        parallel = run_figures(["fig4a"], tiny_config, save_dir=tmp_path, workers=1)
        assert set(parallel) == {"fig4a"}
        assert parallel["fig4a"].render() == serial.render()
        # Workers persist their own results as they finish.
        assert (tmp_path / "fig4a.csv").exists()

    def test_multiple_figures_fan_out(self, tiny_config):
        results = run_figures(["fig4a", "fig5a"], tiny_config, workers=2)
        assert set(results) == {"fig4a", "fig5a"}
        assert results["fig5a"].render() == run_figure("fig5a", tiny_config).render()

    def test_unknown_figure_rejected_before_spawning(self, tiny_config):
        with pytest.raises(KeyError, match="unknown figures"):
            run_figures(["fig99"], tiny_config, workers=2)
