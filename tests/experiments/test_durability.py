"""Tests for the durability experiment (policy × chaos-scenario sweep)."""

from __future__ import annotations

import math

import pytest

from repro.cli import build_parser, main
from repro.experiments import recovery
from repro.experiments.config import SMOKE_CONFIG
from repro.experiments.durability import (
    DEFAULT_SYSTEMS,
    DurabilityResult,
    run_durability,
)
from repro.sim.chaos import DEMO_SCENARIO
from repro.sim.durability import DEFAULT_POLICY_SPECS, parse_policy

#: Reduced load: same population and scenario shape as smoke, lighter
#: probing — mirrors the recovery experiment's TINY configuration.
TINY = SMOKE_CONFIG.scaled(
    infos_per_attribute=25,
    num_recovery_queries=6,
    maintenance_intervals=(2.0,),
    recovery_churn_rates=(0.0,),
)


@pytest.fixture(scope="module", autouse=True)
def _sparse_sampling():
    """Lighter probing still: a health sample every 4 s, not every 2 s."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "SAMPLE_INTERVAL", 4.0)
        yield


@pytest.fixture(scope="module")
def sweep() -> DurabilityResult:
    return run_durability(TINY, scenarios=(DEMO_SCENARIO,))


class TestRunDurability:
    def test_every_cell_recovers(self, sweep):
        assert sweep.ok
        for cell in sweep.cells:
            assert cell.recovered, (cell.system, cell.policy)
            assert math.isfinite(cell.ttr), (cell.system, cell.policy)

    def test_one_cell_per_system_policy_scenario(self, sweep):
        expected = {
            (system, spec, DEMO_SCENARIO.name)
            for system in DEFAULT_SYSTEMS
            for spec in DEFAULT_POLICY_SPECS
        }
        assert {
            (c.system, c.policy, c.scenario) for c in sweep.cells
        } == expected

    def test_metrics_are_sane(self, sweep):
        for cell in sweep.cells:
            assert cell.pieces_before > 0
            assert 0 <= cell.pieces_lost <= cell.pieces_before
            assert 0.0 <= cell.min_availability <= cell.final_availability <= 1.0
            assert cell.repair_copies >= 0
            assert cell.repair_bandwidth <= cell.repair_copies
            assert cell.storage_overhead >= 1.0

    def test_erasure_bandwidth_is_fragment_weighted(self, sweep):
        erasure = [c for c in sweep.cells if c.policy.startswith("erasure")]
        assert erasure
        for cell in erasure:
            assert cell.repair_bandwidth == pytest.approx(cell.repair_copies / 2)
            assert cell.storage_overhead == pytest.approx(1.5)

    def test_table_lists_every_policy(self, sweep):
        table = sweep.table()
        for spec in DEFAULT_POLICY_SPECS:
            assert spec in table
        for column in ("TTR", "repair BW", "lost", "overhead"):
            assert column in table


class TestDurabilityCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["durability"])
        assert args.command == "durability"
        assert not args.smoke
        assert args.policies is None
        assert args.systems is None
        assert args.scenarios is None

    def test_parser_flags(self):
        args = build_parser().parse_args([
            "durability", "--smoke", "--seed", "3",
            "--policies", "replication:2", "erasure:3+2",
            "--systems", "LORM", "--scenarios", "demo",
        ])
        assert args.smoke and args.seed == 3
        assert args.policies == ["replication:2", "erasure:3+2"]
        assert args.systems == ["LORM"]
        assert args.scenarios == ["demo"]

    def test_parser_rejects_unknown_system(self, capsys):
        # Unknown systems exit 2 via the registry in main(), with the
        # valid choices spelled out (not an argparse choices= list).
        with pytest.raises(SystemExit) as exc:
            main(["durability", "--systems", "Pastry"])
        assert exc.value.code == 2
        assert "LORM, Mercury, SWORD, MAAN" in capsys.readouterr().err

    def test_main_smoke_single_cell(self, capsys, tmp_path):
        code = main([
            "durability", "--smoke", "--seed", "0",
            "--policies", "replication:2", "--systems", "LORM",
            "--scenarios", "demo", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "replication:2" in out
        assert (tmp_path / "durability.csv").exists()

    def test_main_rejects_bad_policy_spec(self, capsys):
        # A bad spec used to escape as a ValueError traceback; it is now
        # a clean usage error (exit 2) naming the offending spec.
        with pytest.raises(SystemExit) as exc:
            main(["durability", "--policies", "bogus:9"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err


class TestPolicyParsingForCli:
    @pytest.mark.parametrize("spec", DEFAULT_POLICY_SPECS)
    def test_default_specs_parse(self, spec):
        assert parse_policy(spec).name == spec
