"""End-to-end CLI runs shared by the experiment tests.

Each is one ``cli.main`` call, made once per session: every test that
needs its exit code, its stdout, its ``--out`` tree or the result object
behind them reads that one run.  (That two runs of a seeded command write
the same bytes is CI's double capture, ``tools/capture_outputs.sh``.)
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from pathlib import Path
from typing import Any, NamedTuple

import pytest

from repro import cli
from repro.experiments import recovery
from repro.experiments.config import SMOKE_CONFIG, ExperimentConfig
from repro.experiments.runner import run_figures

#: The chaos demo and the durability sweep at reduced load: same population
#: and scenario shape as smoke (so the crash burst still hits data
#: holders), lighter probing.
TINY = SMOKE_CONFIG.scaled(
    infos_per_attribute=25,
    num_recovery_queries=6,
    maintenance_intervals=(2.0,),
    recovery_churn_rates=(0.0,),
)


class CliRun(NamedTuple):
    """One ``repro`` command: exit code, stdout, ``--out`` tree, and what
    its runner returned."""

    code: int
    stdout: str
    tree: Path
    result: Any


def _recording(function, returned: list):
    def record(*args, **kwargs):
        returned.append(function(*args, **kwargs))
        return returned[-1]

    return record


def _run(argv: list[str], tree: Path, smoke: ExperimentConfig, command: str) -> CliRun:
    """``repro ARGV --out TREE`` at ``--scale smoke`` = ``smoke``, recording
    what ``command`` computed: the figure loop's results for ``run`` and
    ``all``, else the return value of that subcommand's registry row."""
    returned: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(cli._SCALES, "smoke", smoke)
        if command in ("run", "all"):
            mp.setattr(cli, "run_figures", _recording(run_figures, returned))
        else:
            mp.setattr(cli, "_RUNS", tuple(
                dataclasses.replace(row, runner=_recording(row.runner, returned))
                if row.name == command else row
                for row in cli._RUNS
            ))
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main([*argv, "--out", str(tree)])
    return CliRun(code, stdout.getvalue(), tree, returned[0])


@pytest.fixture(scope="session")
def smoke_all(tiny_config, tmp_path_factory) -> CliRun:
    """``repro all --scale smoke`` at the tiny config; ``result`` maps each
    figure id to its result."""
    return _run(["all", "--scale", "smoke"], tmp_path_factory.mktemp("all"), tiny_config, "all")


@pytest.fixture(scope="session")
def fig3a_run(tmp_path_factory) -> CliRun:
    """``repro run fig3a theorems --scale smoke``; ``result`` maps both
    figure ids to their results."""
    argv = ["run", "fig3a", "theorems", "--scale", "smoke"]
    return _run(argv, tmp_path_factory.mktemp("run"), SMOKE_CONFIG, "run")


@pytest.fixture(scope="session")
def chaos_run(tmp_path_factory) -> CliRun:
    """``repro chaos --smoke`` at ``TINY``, with a health sample every 4 s
    instead of every 2 s; ``result`` is the demo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "SAMPLE_INTERVAL", 4.0)
        return _run(["chaos", "--smoke"], tmp_path_factory.mktemp("chaos"), TINY, "chaos")
