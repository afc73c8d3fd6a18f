"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments.config import SMOKE_CONFIG, ExperimentConfig


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_figures(self):
        args = build_parser().parse_args(["run", "fig4a", "fig4b"])
        assert args.figures == ["fig4a", "fig4b"]
        assert args.scale == "smoke"

    def test_run_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_scale_and_seed_flags(self):
        args = build_parser().parse_args(["run", "fig3a", "--scale", "paper", "--seed", "7"])
        assert args.scale == "paper"
        assert args.seed == 7

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_availability_command_flags(self):
        args = build_parser().parse_args(
            ["availability", "--loss", "0", "0.05", "--replication", "1", "2",
             "--queries", "30"]
        )
        assert args.command == "availability"
        assert args.loss == [0.0, 0.05]
        assert args.replication == [1, 2]
        assert args.queries == 30

    def test_invariants_flag(self):
        args = build_parser().parse_args(["run", "fig6a", "--invariants"])
        assert args.invariants
        assert not build_parser().parse_args(["run", "fig6a"]).invariants

    def test_check_command_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.command == "check"
        assert args.systems == ["all"]
        assert args.seed == 0

    def test_check_command_flags(self):
        args = build_parser().parse_args(
            ["check", "--systems", "LORM", "MAAN", "--seed", "5",
             "--queries", "12", "--churn-events", "8"]
        )
        assert args.systems == ["LORM", "MAAN"]
        assert args.seed == 5
        assert args.queries == 12
        assert args.churn_events == 8

    def test_check_rejects_unknown_system(self, capsys):
        # Validation happens against the system registry in main() so the
        # error can name the valid choices (argparse choices= could not).
        with pytest.raises(SystemExit) as exc:
            main(["check", "--systems", "Pastry"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Pastry" in err
        assert "LORM, Mercury, SWORD, MAAN" in err

    def test_chaos_command_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert not args.smoke
        assert args.scale == "smoke"

    def test_chaos_smoke_flag(self):
        args = build_parser().parse_args(["chaos", "--smoke", "--seed", "3"])
        assert args.smoke
        assert args.seed == 3

    def test_trace_command_defaults(self):
        args = build_parser().parse_args(["trace", "--system", "lorm"])
        assert args.system == "lorm"
        assert args.seed == 0
        assert args.queries == 1
        assert args.attributes == 2
        assert args.kind == "range"
        assert args.loss == 0.0
        assert args.format == "tree"
        assert args.out is None

    def test_trace_requires_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--system", "kademlia"])


class TestMain:
    def test_list_prints_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig3a", "fig4a", "fig5b", "fig6b"):
            assert fig in out

    def test_run_single_figure(self, fig3a_run):
        assert fig3a_run.code == 0
        assert "Outlinks per node" in fig3a_run.stdout
        assert (fig3a_run.tree / "fig3a.csv").exists()

    @staticmethod
    def _config_of(argv, fig3a_run, monkeypatch) -> ExperimentConfig:
        """The config ``repro ARGV`` hands the figure loop (which answers
        with the session run's results instead of running)."""
        configs = []

        def record(figure_ids, config, **kwargs):
            configs.append(config)
            return fig3a_run.result

        monkeypatch.setattr(cli, "run_figures", record)
        assert main(argv) == 0
        return configs[0]

    def test_seed_override_changes_config(self, fig3a_run, monkeypatch):
        config = self._config_of(["run", "fig3a", "--seed", "123"], fig3a_run, monkeypatch)
        assert config.seed == 123
        assert config == SMOKE_CONFIG.scaled(seed=123)

    def test_lph_override(self, fig3a_run, monkeypatch):
        config = self._config_of(["run", "fig3a", "--lph", "linear"], fig3a_run, monkeypatch)
        assert config.lph_kind == "linear"
        assert config == SMOKE_CONFIG.scaled(lph_kind="linear")

    def test_run_multiple_figures(self, fig3a_run):
        assert set(fig3a_run.result) == {"fig3a", "theorems"}
        assert "Outlinks per node" in fig3a_run.stdout
        assert "Theorems 4.1-4.10" in fig3a_run.stdout
        assert {p.name for p in fig3a_run.tree.glob("*.csv")} == {"fig3a.csv", "theorems.csv"}

    def test_availability_command(self, capsys, tmp_path, monkeypatch):
        import repro.cli as cli

        small = cli._SCALES["smoke"].scaled(
            num_attributes=6, infos_per_attribute=20,
        )
        monkeypatch.setitem(cli._SCALES, "smoke", small)
        code = main(
            ["availability", "--scale", "smoke", "--loss", "0", "0.05",
             "--replication", "1", "--queries", "10", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Query completeness" in out
        assert (tmp_path / "availability.csv").exists()

    def test_availability_subcommand_writes_what_run_writes(
        self, capsys, tmp_path, monkeypatch
    ):
        """Both routes to the one ``availability`` row: same stdout, same files."""
        import repro.cli as cli

        small = cli._SCALES["smoke"].scaled(
            num_attributes=6, infos_per_attribute=20, loss_rates=(0.0, 0.05),
            availability_replications=(1,), num_availability_queries=10,
        )
        monkeypatch.setitem(cli._SCALES, "smoke", small)
        written = []
        for argv in (["availability"], ["run", "availability"]):
            out = tmp_path / argv[0]
            assert main([*argv, "--scale", "smoke", "--out", str(out)]) == 0
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            written.append((capsys.readouterr().out, files))
        assert written[0] == written[1]
        assert set(written[0][1]) == {"availability.csv", "availability.txt"}

    def test_check_exits_zero_on_clean_run(self, capsys):
        code = main(
            ["check", "--systems", "all", "--seed", "0",
             "--queries", "12", "--churn-events", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "result: OK" in out

    def test_check_without_churn_runs_no_churn_op(self, capsys):
        assert main(["check", "--systems", "SWORD", "--churn-events", "0", "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count(", 0 churn ops,") == out.count("differential replay:")

    def test_check_single_system(self, capsys):
        code = main(
            ["check", "--systems", "SWORD", "--seed", "1",
             "--queries", "6", "--churn-events", "6"]
        )
        assert code == 0

    def test_check_exits_nonzero_on_divergence(self, capsys, monkeypatch):
        from repro.baselines.maan import MaanService

        # A broken hop bound must turn into a non-zero exit code.
        monkeypatch.setattr(MaanService, "structural_hop_bound", lambda self: 0)
        monkeypatch.setattr(
            MaanService, "max_visited_per_subquery", lambda self: 0
        )
        code = main(
            ["check", "--systems", "MAAN", "--seed", "0",
             "--queries", "12", "--churn-events", "6"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out or "hop-bound" in out

    def test_chaos_command_exits_zero_and_saves(self, chaos_run):
        assert chaos_run.code == 0
        assert "recovery SLOs" in chaos_run.stdout
        assert (chaos_run.tree / "chaos_slo.txt").exists()

    def test_run_with_invariants_flag(self, capsys, tiny_config, monkeypatch):
        import repro.cli as cli

        monkeypatch.setitem(cli._SCALES, "smoke", tiny_config)
        assert main(["run", "fig6a", "--invariants"]) == 0
        assert "fig6a" in capsys.readouterr().out

    def test_all_command(self, smoke_all):
        assert smoke_all.code == 0
        produced = {p.name for p in smoke_all.tree.glob("*.csv")}
        assert "fig6b.csv" in produced and "theorems.csv" in produced
        # Every figure rendered, in id order, each ended by a blank line.
        assert smoke_all.stdout == "".join(
            f"{smoke_all.result[figure_id].render()}\n\n" for figure_id in sorted(smoke_all.result)
        )

    def test_trace_tree_output(self, capsys):
        assert main(["trace", "--system", "lorm", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("query LORM.multi_query")
        assert "hop hop" in out and "choice=" in out

    def test_trace_jsonl_deterministic(self, capsys):
        assert main(["trace", "--system", "sword", "--format", "jsonl"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "--system", "sword", "--format", "jsonl"]) == 0
        assert capsys.readouterr().out == first

    def test_trace_chrome_to_file(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        code = main([
            "trace", "--system", "maan", "--format", "chrome",
            "--out", str(out_file),
        ])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        assert capsys.readouterr().out == ""  # everything went to the file

    def test_trace_with_loss_annotates_faults(self, capsys):
        code = main([
            "trace", "--system", "mercury", "--seed", "3",
            "--queries", "2", "--loss", "0.3",
        ])
        assert code == 0
        assert "! " in capsys.readouterr().out  # at least one fault event


class TestOverlayFlags:
    def test_trace_overlay_defaults_to_native(self):
        args = build_parser().parse_args(["trace", "--system", "lorm"])
        assert args.overlay is None
        assert args.fanout == 2

    def test_tradeoff_command_defaults(self):
        args = build_parser().parse_args(["tradeoff"])
        assert args.command == "tradeoff"
        assert not args.smoke
        assert args.systems is None  # resolved to all systems in main()
        assert args.overlays is None

    def test_trace_rejects_unknown_overlay(self, capsys):
        # Overlay validation happens in main() against the overlay registry
        # so the message can name the valid substrates.
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--system", "lorm", "--overlay", "pastry"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "pastry" in err
        for name in ("chord", "cycloid", "singlehop", "record"):
            assert name in err

    def test_tradeoff_rejects_unknown_overlay_point(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tradeoff", "--smoke", "--overlays", "kademlia"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "kademlia" in err
        assert "singlehop" in err

    def test_trace_on_singlehop_substrate(self, capsys):
        code = main([
            "trace", "--system", "maan", "--overlay", "singlehop",
            "--kind", "point",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert 'choice="membership"' in out


# ----------------------------------------------------------------------
# Contract tests over the experiment registry
# ----------------------------------------------------------------------
# (option strings, dest, type name, nargs, default, choices) per flag, in
# declaration order — captured from build_parser() at commit 619b75e, the
# last hand-written parser.  A generator that drops, renames or retypes a
# flag fails here.
_SCALE_CHOICES = ("paper", "smoke")
_COMMON = [
    (("--scale",), "scale", None, None, "smoke", _SCALE_CHOICES),
    (("--seed",), "seed", "int", None, None, None),
    (("--out",), "out", None, None, None, None),
    (("--lph",), "lph", None, None, None, ("cdf", "linear")),
    (("--invariants",), "invariants", None, 0, False, None),
]
_SMOKE = (("--smoke",), "smoke", None, 0, False, None)
_PARALLEL = (("--parallel",), "parallel", "int", "?", None, None)
_SYSTEMS = (("--systems",), "systems", None, "+", None, None)
_QUERIES = (("--queries",), "queries", "int", None, None, None)
_CHURN_EVENTS = (("--churn-events",), "churn_events", "int", None, None, None)
_FIGURE_IDS = (
    "availability", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b",
    "fig5a", "fig5b", "fig6a", "fig6b", "latency", "maintenance", "recovery",
    "scale", "staleness", "theorems",
)
PARENT_FLAGS = {
    "list": [],
    "run": [((), "figures", None, "+", None, _FIGURE_IDS), *_COMMON, _PARALLEL],
    "all": [*_COMMON, _PARALLEL],
    "availability": [
        *_COMMON,
        (("--loss",), "loss", "float", "+", None, None),
        (("--replication",), "replication", "int", "+", None, None),
        _QUERIES,
    ],
    "chaos": [*_COMMON, _SMOKE],
    "durability": [
        *_COMMON,
        _SMOKE,
        (("--policies",), "policies", None, "+", None, None),
        _SYSTEMS,
        (("--scenarios",), "scenarios", None, "+", None, ("demo", "crash-storm")),
    ],
    "hotspot": [
        *_COMMON,
        _SMOKE,
        _SYSTEMS,
        (("--zipf-s",), "zipf_s", "float", "+", None, None),
        _QUERIES,
        (("--salts",), "salts", "int", None, None, None),
    ],
    "tradeoff": [
        *_COMMON,
        _SMOKE,
        _SYSTEMS,
        (("--overlays",), "overlays", None, "+", None, None),
        _QUERIES,
        _CHURN_EVENTS,
        (("--fanouts",), "fanouts", "int", "+", None, None),
    ],
    "tail": [
        *_COMMON,
        _SMOKE,
        (("--fractions",), "fractions", "float", "+", None, None),
        _QUERIES,
        (("--slo-p99",), "slo_p99", "float", None, None, None),
    ],
    "scale": [
        (("--scale",), "scale", None, None, "paper", _SCALE_CHOICES),
        _SMOKE,
        (("--seed",), "seed", "int", None, None, None),
        (("--sizes",), "sizes", "int", "+", None, None),
        _QUERIES,
        _CHURN_EVENTS,
        (("--budget-seconds",), "budget_seconds", "float", None, None, None),
        (("--budget-mb",), "budget_mb", "float", None, None, None),
        (("--out",), "out", None, None, None, None),
        _PARALLEL,
    ],
    "trace": [
        (("--system",), "system", None, None, None,
         ("lorm", "mercury", "sword", "maan")),
        (("--overlay",), "overlay", None, None, None, None),
        (("--fanout",), "fanout", "int", None, 2, None),
        (("--seed",), "seed", "int", None, 0, None),
        (("--queries",), "queries", "int", None, 1, None),
        (("--attributes",), "attributes", "int", None, 2, None),
        (("--kind",), "kind", None, None, "range", ("point", "range", "at-least")),
        (("--loss",), "loss", "float", None, 0.0, None),
        (("--format",), "format", None, None, "tree", ("tree", "jsonl", "chrome")),
        (("--out",), "out", None, None, None, None),
    ],
    "report": [(("--out",), "out", None, None, "results", None)],
    "check": [
        (("--systems",), "systems", None, "+", ["all"], None),
        (("--seed",), "seed", "int", None, 0, None),
        (("--queries",), "queries", "int", None, 45, None),
        (("--churn-events",), "churn_events", "int", None, 40, None),
    ],
}

#: (pass, fail) words each gated experiment prints; None = never fails on .ok.
VERDICT_WORDS = {
    "availability": None,
    "chaos": ("RECONVERGED", "FAILED TO RECONVERGE"),
    "durability": ("RECOVERED", "FAILED TO RECOVER"),
    "hotspot": ("BALANCED", "GATE MISS"),
    "tradeoff": ("CURVE OK", "GATE MISS"),
    "tail": ("SLO MET", "SLO MISSED"),
    "scale": None,
}


def _subparsers(parser, prefix=""):
    """``{command path: subparser}`` for every (nested) subcommand."""
    import argparse

    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[prefix + name] = sub
                found.update(_subparsers(sub, prefix + name + " "))
    return found


def _flag_rows(subparser):
    import argparse

    return [
        (
            tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None),
            a.nargs, a.default, None if a.choices is None else tuple(a.choices),
        )
        for a in subparser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


class _StubResult:
    """What ``_cmd_run`` needs of a sweep's result, and nothing else."""

    points = ()  # scale's verdict line counts them

    def __init__(self, ok):
        self.ok = ok
        self.saved_to = []

    def over_budget(self, elapsed, budget_seconds, budget_mb):
        return ["too slow"] if budget_seconds is not None and elapsed > budget_seconds else []

    def render(self):
        return "stub report"

    def save(self, directory):
        self.saved_to.append(directory)


@pytest.fixture
def stubbed(monkeypatch):
    """Swap every registry runner for a stub; returns its call log, which
    also sets the next result's ``.ok`` or the error the runner raises."""
    import dataclasses

    import repro.cli as cli

    log = {"calls": [], "ok": True, "error": None, "results": []}

    def runner(config, **kwargs):
        log["calls"].append((config, kwargs))
        if log["error"] is not None:
            raise log["error"]
        log["results"].append(_StubResult(log["ok"]))
        return log["results"][-1]

    monkeypatch.setattr(
        cli, "_RUNS", tuple(dataclasses.replace(row, runner=runner) for row in cli._RUNS)
    )
    return log


class TestFlagInventory:
    def test_same_subcommands_as_the_handwritten_parser(self):
        assert list(_subparsers(build_parser())) == list(PARENT_FLAGS)

    @pytest.mark.parametrize("command", list(PARENT_FLAGS))
    def test_flags_match_the_handwritten_parser(self, command):
        assert _flag_rows(_subparsers(build_parser())[command]) == PARENT_FLAGS[command]

    def test_registry_adds_no_experiment_and_no_config_field(self):
        import dataclasses

        import repro.cli as cli
        from repro.experiments.config import ExperimentConfig

        assert [row.name for row in cli._RUNS if row.name] == list(VERDICT_WORDS)
        # A positive list: a knob that comes back, or a new one, fails here
        # by name.  Single-valued knobs live beside their one reader as
        # module constants (``tail.MAX_HEDGE_OVERHEAD`` style).
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "dimension", "chord_bits", "num_attributes", "infos_per_attribute",
            "max_query_attributes", "num_requesters", "queries_per_requester",
            "num_range_queries", "num_churn_requests", "churn_rates",
            "mean_span_fraction", "lph_kind", "pareto_shape", "seed",
            "loss_rates", "availability_replications",
            "num_availability_queries", "maintenance_intervals",
            "recovery_churn_rates",
            "num_recovery_queries", "scale_sizes", "scale_queries",
            "scale_churn_events", "tail_slow_fractions", "tail_queries",
            "tail_warmup", "tail_slow_multiplier", "tail_intermittency",
            "tail_sigma", "tail_slo_p99", "hotspot_zipf_s", "hotspot_queries",
            "hotspot_salts", "tradeoff_queries",
            "tradeoff_churn_events", "tradeoff_fanouts",
            "validate_invariants",
        ]  # 37


@pytest.mark.parametrize("name", list(VERDICT_WORDS))
class TestExperimentLoop:
    @pytest.mark.parametrize("ok", [True, False])
    def test_exit_code_verdict_and_save(self, name, ok, stubbed, capsys, tmp_path):
        stubbed["ok"] = ok
        code = main([name, "--scale", "smoke", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        words = VERDICT_WORDS[name]
        assert code == (0 if ok or words is None else 1)
        assert captured.out.startswith("stub report\n")
        assert stubbed["results"][0].saved_to == [str(tmp_path)]
        assert f"results written to {tmp_path}/" in captured.err
        if words is not None:
            assert f"] {words[0 if ok else 1]} in " in captured.err

    def test_without_out_nothing_is_saved(self, name, stubbed, capsys):
        assert main([name, "--scale", "smoke"]) == 0
        assert stubbed["results"][0].saved_to == []
        assert "results written" not in capsys.readouterr().err

    def test_runner_errors_are_not_usage_errors(self, name, stubbed):
        stubbed["error"] = ValueError("a bug inside the sweep")
        with pytest.raises(ValueError, match="inside the sweep"):
            main([name, "--scale", "smoke"])


class TestFlagRouting:
    @pytest.mark.parametrize(
        "name", [n for n in VERDICT_WORDS if _SMOKE in PARENT_FLAGS[n]]
    )
    def test_smoke_is_scale_smoke(self, name, stubbed, capsys):
        import repro.cli as cli

        main([name, "--smoke", "--seed", "3"])
        main([name, "--scale", "smoke", "--seed", "3"])
        (aliased, _), (spelled, _) = stubbed["calls"]
        assert aliased == spelled == cli._SCALES["smoke"].scaled(seed=3)

    def test_config_flags_become_overrides(self, stubbed, capsys):
        main(["hotspot", "--smoke", "--zipf-s", "0", "0.8", "--queries", "8",
              "--salts", "2", "--lph", "linear", "--invariants"])
        (config, kwargs), = stubbed["calls"]
        assert config.hotspot_zipf_s == (0.0, 0.8)
        assert (config.hotspot_queries, config.hotspot_salts) == (8, 2)
        assert config.lph_kind == "linear" and config.validate_invariants
        assert kwargs == {}

    def test_runner_flags_are_resolved_kwargs(self, stubbed, capsys):
        main(["durability", "--smoke", "--policies", "erasure:2+1",
              "--systems", "lorm", "--scenarios", "demo"])
        main(["tradeoff", "--smoke", "--fanouts", "2", "--overlays", "record:f2"])
        main(["scale", "--smoke", "--parallel"])
        main(["scale", "--smoke", "--parallel", "3"])
        durability, tradeoff, scale_auto, scale_three = (k for _, k in stubbed["calls"])
        assert [p.name for p in durability["policies"]] == ["erasure:2+1"]
        assert durability["systems"] == ("LORM",)
        assert [s.name for s in durability["scenarios"]] == ["demo"]
        assert tradeoff == {"overlays": ("record:f2",)}
        assert (scale_auto, scale_three) == ({"workers": 0}, {"workers": 3})

    def test_scale_budget_gates_the_exit_code(self, stubbed, capsys):
        assert main(["scale", "--smoke", "--budget-seconds", "1000"]) == 0
        assert main(["scale", "--smoke", "--budget-seconds", "1e-9"]) == 1
        assert "BUDGET EXCEEDED" in capsys.readouterr().err


class TestBadInput:
    """Out-of-range values are usage errors (exit 2, one line), raised
    before any sweep starts — not tracebacks from deep inside one."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["tail", "--smoke", "--queries", "0"], "tail_queries"),
            (["scale", "--smoke", "--sizes", "2"], "scale_sizes"),
            (["scale", "--smoke", "--sizes", "8"], "scale_sizes"),
            (["scale", "--smoke", "--queries", "0"], "scale_queries"),
            (["hotspot", "--smoke", "--queries", "0"], "hotspot_queries"),
            (["tradeoff", "--smoke", "--queries", "0"], "tradeoff_queries"),
            (["availability", "--loss", "1.5"], "loss_rates"),
            (["availability", "--replication", "0"], "availability_replications"),
            (["tail", "--smoke", "--fractions", "1.5"], "tail_slow_fractions"),
            (["hotspot", "--smoke", "--salts", "0"], "hotspot_salts"),
            (["trace", "--system", "lorm", "--loss", "1.5"], "--loss"),
            (["trace", "--system", "lorm", "--queries", "0"], "--queries"),
            (["trace", "--system", "lorm", "--attributes", "0"], "--attributes"),
            (["trace", "--system", "lorm", "--attributes", "99"], "--attributes"),
            (["trace", "--system", "sword", "--overlay", "record", "--fanout", "0"],
             "--fanout"),
            (["check", "--queries", "0", "--churn-events", "0"], "--queries"),
            (["check", "--churn-events", "-5"], "--churn-events"),
            (["run", "fig4a", "--parallel", "-1"], "--parallel"),
            (["all", "--parallel", "-1"], "--parallel"),
            (["scale", "--smoke", "--parallel", "-1"], "--parallel"),
            (["report", "--out", "no/such/directory"], "--out"),
            # numpy's seeded generators reject negative seeds.
            (["chaos", "--smoke", "--seed", "-1"], "--seed"),
            (["durability", "--smoke", "--seed", "-1"], "--seed"),
            (["check", "--seed", "-1"], "--seed"),
            (["run", "recovery", "--scale", "smoke", "--seed", "-1"], "--seed"),
            (["all", "--seed", "-1"], "--seed"),
            (["trace", "--system", "lorm", "--seed", "-1", "--loss", "0.1"], "--seed"),
            (["trace", "--system", "mercury", "--overlay", "cycloid"], "--overlay"),
            (["trace", "--system", "maan", "--overlay", "Cycloid"], "--overlay"),
            (["tail", "--smoke", "--fractions", "0"], "tail_slow_fractions"),
        ],
    )
    def test_exits_2_with_a_message(self, argv, needle, stubbed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: " in err and needle in err
        assert stubbed["calls"] == []

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["chaos", "--smoke"], "file"),
            (["availability", "--scale", "smoke"], "file"),
            (["scale", "--smoke"], "file/sub"),
            (["run", "fig4a", "--scale", "smoke"], "file"),
            (["all", "--scale", "smoke"], "file/sub"),
            (["trace", "--system", "lorm"], "dir"),
            (["trace", "--system", "lorm"], "missing/x.jsonl"),
        ],
    )
    def test_out_of_the_wrong_shape_exits_2_before_any_work(
        self, argv, out, tmp_path, stubbed, monkeypatch, capsys
    ):
        import repro.cli as cli

        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        monkeypatch.setattr(cli, "run_figures", lambda *a, **k: stubbed["calls"].append(a))
        monkeypatch.setattr(cli, "replay_queries", lambda *a, **k: stubbed["calls"].append(a))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: --out" in err
        assert stubbed["calls"] == []

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["hotspot", "--smoke", "--zipf-s", "-1"], "hotspot_zipf_s"),
            (["tradeoff", "--smoke", "--fanouts", "0"], "tradeoff_fanouts"),
            (["availability", "--scale", "smoke", "--queries", "0"],
             "num_availability_queries"),
            (["tradeoff", "--smoke", "--churn-events", "-1"], "tradeoff_churn_events"),
            (["tail", "--smoke", "--slo-p99", "0"], "tail_slo_p99"),
            (["tail", "--smoke", "--slo-p99", "-1"], "tail_slo_p99"),
            (["scale", "--smoke", "--budget-seconds", "-1"], "--budget-seconds"),
            (["scale", "--smoke", "--budget-mb", "0"], "--budget-mb"),
            (["scale", "--smoke", "--churn-events", "-1"], "scale_churn_events"),
        ],
    )
    def test_sweep_inputs_are_usage_errors(self, argv, needle, capsys):
        """Inputs that used to crash inside a runner or print numbers over
        nothing: each is refused before the sweep starts, without a
        traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: " in err and needle in err
        assert "Traceback" not in err
