"""Tests for the tail-latency experiment (gray failures × policies)."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.tail import (
    HEADLINE_SYSTEMS,
    MAX_HEDGE_OVERHEAD,
    POLICIES,
    TailCell,
    TailResult,
    run_tail,
)


def _cell(system, fraction, policy, p99, hedges=0, messages=1000):
    return TailCell(
        system=system, slow_fraction=fraction, policy=policy,
        p50=p99 / 4, p99=p99, p999=p99 * 1.2, mean=p99 / 3,
        queries=100, messages=messages, timeouts=5, retries=5,
        hedges=hedges, hedges_won=hedges // 2,
    )


def _result(fixed_p99=4.0, hedged_p99=1.0, hedges=100, slo=1.5):
    config = ExperimentConfig(tail_slo_p99=slo)
    result = TailResult(config=config)
    for system in ("LORM", "Mercury", "SWORD", "MAAN"):
        for fraction in (0.0, 0.1):
            result.cells.append(_cell(system, fraction, "fixed", fixed_p99))
            result.cells.append(_cell(system, fraction, "adaptive", fixed_p99 / 2))
            result.cells.append(
                _cell(system, fraction, "hedged", hedged_p99, hedges=hedges)
            )
    return result


class TestTailVerdict:
    def test_headline_met(self):
        assert _result().ok

    def test_speedup_computation(self):
        assert _result(fixed_p99=4.0, hedged_p99=1.0).speedup("LORM") == 4.0

    def test_insufficient_speedup_fails(self):
        assert not _result(fixed_p99=2.0, hedged_p99=1.2).ok

    def test_slo_miss_fails(self):
        assert not _result(fixed_p99=8.0, hedged_p99=2.0, slo=1.5).ok

    def test_hedge_overhead_bound(self):
        result = _result(hedges=400)  # 40% of 1000 messages
        assert any(
            c.hedge_overhead > MAX_HEDGE_OVERHEAD
            for c in result.cells if c.policy == "hedged"
        )
        assert not result.ok

    def test_missing_cells_fail(self):
        assert not TailResult(config=ExperimentConfig()).ok

    def test_headline_fraction_is_the_worst_swept(self):
        result = TailResult(
            config=ExperimentConfig(tail_slow_fractions=(0.0, 0.05, 0.2))
        )
        assert result.headline_fraction == 0.2

    def test_render_names_the_headline_systems(self):
        text = _result().render()
        for system in HEADLINE_SYSTEMS:
            assert f"{system} @ 10% slow" in text
        assert "verdict: ok" in text


@pytest.fixture(scope="module")
def tail_result(tiny_config):
    config = tiny_config.scaled(
        tail_queries=40, tail_warmup=12, tail_slow_fractions=(0.0, 0.1)
    )
    return run_tail(config)


class TestRunTail:
    def test_sweep_shape(self, tail_result):
        assert len(tail_result.cells) == 4 * 2 * 3
        names = {c.system for c in tail_result.cells}
        assert names == {"LORM", "Mercury", "SWORD", "MAAN"}

    def test_healthy_baseline_is_policy_invariant(self, tail_result):
        # At 0% slow nodes the defenses never engage: all three policies
        # replay identical work under identical latency draws.
        for system in ("LORM", "Mercury", "SWORD", "MAAN"):
            cells = {
                name: tail_result.cell(system, 0.0, name)
                for name, _ in POLICIES
            }
            assert cells["fixed"].p99 == cells["adaptive"].p99 == cells["hedged"].p99
            assert cells["fixed"].messages == cells["hedged"].messages
            assert cells["hedged"].hedges == 0

    def test_defenses_engage_under_gray_failure(self, tail_result):
        for system in HEADLINE_SYSTEMS:
            hedged = tail_result.cell(system, 0.1, "hedged")
            fixed = tail_result.cell(system, 0.1, "fixed")
            assert hedged.hedges > 0
            assert fixed.hedges == 0
            assert hedged.hedge_overhead <= MAX_HEDGE_OVERHEAD
            # Tiny-scale cells are too noisy to pin the full 2x headline
            # (the CLI smoke gate asserts that); directionally the hedged
            # tail must not be worse than fixed.
            assert hedged.p99 <= fixed.p99

    def test_gray_failure_inflates_the_fixed_tail(self, tail_result):
        for system in HEADLINE_SYSTEMS:
            assert (
                tail_result.cell(system, 0.1, "fixed").p99
                > tail_result.cell(system, 0.0, "fixed").p99
            )

    def test_unknown_cell_raises(self, tail_result):
        with pytest.raises(KeyError):
            tail_result.cell("LORM", 0.42, "fixed")
