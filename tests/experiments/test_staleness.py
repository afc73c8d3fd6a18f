"""Tests for the staleness extension experiment."""

from __future__ import annotations

import pytest

from repro.experiments.staleness import run_staleness, staleness_trial


@pytest.fixture(scope="module")
def small_config(tiny_config):
    return tiny_config.scaled(num_attributes=6, infos_per_attribute=15, dimension=4)


class TestStalenessTrial:
    def test_no_expiry_accumulates_staleness(self, small_config):
        trial = staleness_trial(small_config, None)
        assert trial["departed_share"] > 0.3
        assert trial["stale_fraction"] > 0.1
        assert trial["expirations"] == 0

    def test_short_ttl_bounds_staleness(self, small_config):
        with_lease = staleness_trial(small_config, 7.5)
        baseline = staleness_trial(small_config, None)
        assert with_lease["stale_fraction"] < baseline["stale_fraction"] / 3
        assert with_lease["expirations"] > 0

    def test_renewals_counted(self, small_config):
        trial = staleness_trial(small_config, 15.0)
        assert trial["renewals"] > 0


class TestStalenessFigure:
    @pytest.fixture(scope="class")
    def figure(self, small_config):
        return run_staleness(small_config)

    def test_curves_present(self, figure):
        assert figure.curve_names == ["with expiry", "no expiry (baseline)"]

    def test_expiry_always_beats_baseline(self, figure):
        leased = figure.curve("with expiry").y
        baseline = figure.curve("no expiry (baseline)").y
        assert all(a < b for a, b in zip(leased, baseline))

    def test_baseline_flat(self, figure):
        assert len(set(figure.curve("no expiry (baseline)").y)) == 1

    def test_renders_and_saves(self, figure, tmp_path):
        figure.save(tmp_path)
        assert (tmp_path / "staleness.csv").exists()
