"""Tests for the experiment configuration."""

from __future__ import annotations

import math

import pytest

from repro.experiments.config import PAPER_CONFIG, SMOKE_CONFIG, ExperimentConfig


class TestPaperConfig:
    def test_section_v_constants(self):
        """The defaults are exactly the paper's Section V setup."""
        assert PAPER_CONFIG.dimension == 8
        assert PAPER_CONFIG.chord_bits == 11
        assert PAPER_CONFIG.num_attributes == 200
        assert PAPER_CONFIG.infos_per_attribute == 500
        assert PAPER_CONFIG.num_range_queries == 1000
        assert PAPER_CONFIG.num_churn_requests == 10000
        assert PAPER_CONFIG.churn_rates == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_derived_populations(self):
        assert PAPER_CONFIG.population == 2048
        assert math.log2(PAPER_CONFIG.population) == PAPER_CONFIG.chord_bits

    def test_fig4_query_volume(self):
        assert PAPER_CONFIG.num_requesters * PAPER_CONFIG.queries_per_requester == 1000


class TestValidation:
    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dimension=1)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(seed=-1)

    def test_query_attributes_bounded_by_schema(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_attributes=5, max_query_attributes=6)


class TestScaled:
    def test_scaled_overrides(self):
        cfg = PAPER_CONFIG.scaled(dimension=5, seed=1)
        assert cfg.dimension == 5
        assert cfg.seed == 1
        assert cfg.num_attributes == PAPER_CONFIG.num_attributes

    def test_scaled_does_not_mutate_original(self):
        PAPER_CONFIG.scaled(dimension=5)
        assert PAPER_CONFIG.dimension == 8


class TestSchema:
    def test_schema_size_matches(self):
        assert len(SMOKE_CONFIG.schema()) == SMOKE_CONFIG.num_attributes

    def test_smoke_is_smaller_but_same_shape(self):
        assert SMOKE_CONFIG.population < PAPER_CONFIG.population
        assert SMOKE_CONFIG.population <= (1 << SMOKE_CONFIG.chord_bits)
