"""Tests for the hotspot experiment (skewed load × mitigation)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments import hotspot
from repro.experiments.config import ExperimentConfig, SMOKE_CONFIG
from repro.experiments.hotspot import (
    HEADLINE_SYSTEM,
    MITIGATIONS,
    REQUIRED_CUT,
    HotspotCell,
    HotspotResult,
    run_hotspot,
)

TINY = SMOKE_CONFIG.scaled(
    num_attributes=8,
    infos_per_attribute=16,
    hotspot_queries=180,
    hotspot_zipf_s=(1.3,),
    hotspot_salts=3,
)


def _cell(system, s, mitigation, imbalance, transparent=True, max_hops=5, bound=60):
    return HotspotCell(
        system=system,
        zipf_s=s,
        mitigation=mitigation,
        imbalance=imbalance,
        gini=0.5,
        top5_share=0.5,
        route_imbalance=2.0,
        mean_subquery_hops=3.0,
        max_subquery_hops=max_hops,
        hop_bound=bound,
        queries=100,
        transparent=transparent,
        replica_copies=0,
        replicas_created=0,
    )


def _result(base=40.0, salt=10.0, dynamic=12.0, **cell_kwargs):
    result = HotspotResult(config=ExperimentConfig(hotspot_zipf_s=(0.0, 1.1)))
    result.cells.append(_cell("SWORD", 1.1, "none", base))
    result.cells.append(_cell("SWORD", 1.1, "salt", salt, **cell_kwargs))
    result.cells.append(_cell("SWORD", 1.1, "dynamic", dynamic, **cell_kwargs))
    return result


class TestVerdict:
    def test_sufficient_cut_passes(self):
        result = _result(base=40.0, salt=10.0)
        assert result.cut("SWORD") == pytest.approx(4.0)
        assert result.ok

    def test_best_mitigation_wins(self):
        assert _result(base=40.0, salt=30.0, dynamic=10.0).cut("SWORD") == pytest.approx(4.0)

    def test_insufficient_cut_fails(self):
        assert not _result(base=40.0, salt=25.0, dynamic=25.0).ok

    def test_nontransparent_answers_fail(self):
        assert not _result(transparent=False).ok

    def test_hop_ceiling_violation_fails(self):
        assert not _result(max_hops=100, bound=60).ok

    def test_missing_headline_cells_fail(self):
        result = HotspotResult(config=ExperimentConfig(hotspot_zipf_s=(0.0, 1.1)))
        assert not result.ok

    def test_no_mitigated_cells_means_cut_of_one(self):
        result = HotspotResult(config=ExperimentConfig(hotspot_zipf_s=(1.1,)))
        result.cells.append(_cell("SWORD", 1.1, "none", 40.0))
        assert result.cut("SWORD") == 1.0
        assert not result.ok

    def test_headline_s_is_highest_swept(self):
        assert _result().headline_s == 1.1

    def test_render_mentions_verdict(self):
        assert "verdict: ok" in _result().render()
        assert "GATE MISS" in _result(salt=39.0, dynamic=39.0).render()


def _run_tiny(systems):
    """``run_hotspot`` on TINY over three load windows instead of four."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hotspot, "HOTSPOT_WINDOWS", 3)
        return run_hotspot(TINY, systems=systems)


@pytest.fixture(scope="module")
def tiny_result():
    return _run_tiny(["SWORD"])


class TestRunHotspot:
    def test_one_cell_per_mitigation(self, tiny_result):
        assert len(tiny_result.cells) == len(MITIGATIONS)
        assert {c.mitigation for c in tiny_result.cells} == set(MITIGATIONS)

    def test_all_cells_transparent(self, tiny_result):
        assert all(c.transparent for c in tiny_result.cells)

    def test_hops_within_ceilings(self, tiny_result):
        assert all(c.max_subquery_hops <= c.hop_bound for c in tiny_result.cells)

    def test_mitigations_cut_imbalance(self, tiny_result):
        assert tiny_result.cut(HEADLINE_SYSTEM) >= REQUIRED_CUT
        assert tiny_result.ok

    def test_dynamic_cell_paid_maintenance(self, tiny_result):
        dynamic = tiny_result.cell("SWORD", 1.3, "dynamic")
        assert dynamic.replica_copies > 0
        assert dynamic.replicas_created > 0

    def test_deterministic_across_runs(self, tiny_result):
        again = _run_tiny(["SWORD"])
        assert again.cells == tiny_result.cells

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError):
            _run_tiny(["Pastry"])


class TestHotspotCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["hotspot"])
        assert args.command == "hotspot"
        assert not args.smoke
        assert args.systems is None
        assert args.zipf_s is None

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["hotspot", "--smoke", "--seed", "3", "--systems", "SWORD",
             "--zipf-s", "0", "1.1", "--queries", "200", "--salts", "2"]
        )
        assert args.smoke and args.seed == 3
        assert args.systems == ["SWORD"]
        assert args.zipf_s == [0.0, 1.1]
        assert args.queries == 200
        assert args.salts == 2

    def test_unknown_system_exits_2_listing_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hotspot", "--systems", "Pastry"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Pastry" in err
        assert "LORM, Mercury, SWORD, MAAN" in err

    def test_main_smoke_single_system(self, capsys, tmp_path):
        code = main(
            ["hotspot", "--smoke", "--seed", "0", "--systems", "SWORD",
             "--queries", "180", "--zipf-s", "1.3", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "max/mean" in out
        assert (tmp_path / "hotspot.csv").exists()
        assert (tmp_path / "hotspot.txt").exists()
