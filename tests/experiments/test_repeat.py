"""Tests for multi-seed figure repetition."""

from __future__ import annotations

from functools import partial

import pytest

from repro.experiments.repeat import run_repeated
from repro.experiments.runner import run_figure

fig4a_runner = partial(run_figure, "fig4a")


@pytest.fixture(scope="module")
def repeated(tiny_config):
    cfg = tiny_config.scaled(max_query_attributes=2, num_requesters=4)
    return run_repeated(fig4a_runner, cfg, repeats=3)


class TestRunRepeated:
    def test_seeds_distinct(self, repeated, tiny_config):
        assert len(set(repeated.seeds)) == 3
        assert repeated.seeds[0] == tiny_config.seed

    def test_all_series_aggregated(self, repeated):
        assert "LORM" in repeated.envelopes
        assert "MAAN" in repeated.envelopes

    def test_envelope_ordering(self, repeated):
        for name in repeated.envelopes:
            x, mean, lo, hi = repeated.envelopes[name]
            for m, a, b in zip(mean, lo, hi):
                assert a <= m <= b

    def test_mean_curve_matches_envelope(self, repeated):
        curve = repeated.mean_curve("LORM")
        assert curve.y == repeated.envelopes["LORM"][1]

    def test_spread_is_modest_for_hop_means(self, repeated):
        """Across seeds the average-hops curves should agree within ~35%."""
        assert repeated.spread("LORM") < 0.35
        assert repeated.spread("MAAN") < 0.35

    def test_to_figure_renders(self, repeated, tmp_path):
        figure = repeated.to_figure()
        assert figure.figure_id == "fig4a-mean"
        figure.save(tmp_path)
        assert (tmp_path / "fig4a-mean.csv").exists()

    def test_single_repeat_identity(self, tiny_config):
        cfg = tiny_config.scaled(max_query_attributes=1, num_requesters=3)
        single = run_repeated(fig4a_runner, cfg, repeats=1)
        direct = fig4a_runner(cfg)
        assert single.mean_curve("LORM").y == direct.curve("LORM").y

    def test_invalid_repeats(self, tiny_config):
        with pytest.raises(ValueError):
            run_repeated(fig4a_runner, tiny_config, repeats=0)
