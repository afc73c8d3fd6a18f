"""Paper-scale benches: the paper's shapes, asserted on the artifacts' own runs.

``python -m pytest benchmarks --ignore=benchmarks/e2e`` asserts the
paper's shapes at paper scale (Section V: n = 2048, m = 200, k = 500),
checks ``results/`` is current, and writes the nine ablation tables.

Every registered figure comes from the one :func:`figures` fixture —
``run_figures`` on ``PAPER_CONFIG``, the rows and the config behind
``repro run <id> --scale paper --out results/`` — so a bench asserts on
exactly what ``results/<id>.*`` holds and never writes it;
``test_results_current.py`` compares the two byte for byte.  The tables
that are not registered figures (``ablation_*.txt``,
``failure_injection.txt``, ``registration_cost.txt``,
``availability_loss.txt``) are written by their bench, their one producer.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.config import PAPER_CONFIG, ExperimentConfig
from repro.experiments.runner import FIGURES, run_figures

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The registered figures ``results/`` holds: all but ``recovery`` (never
#: committed) and ``scale`` (its notes are wall-clock and memory readings).
COMMITTED_FIGURES = tuple(i for i in FIGURES if i not in ("recovery", "scale"))


@pytest.fixture(scope="session")
def paper_config() -> ExperimentConfig:
    """The paper's exact Section V parameters."""
    return PAPER_CONFIG


@pytest.fixture(scope="session")
def figures(paper_config) -> dict:
    """Every committed figure, each registry row executed once (~5 min)."""
    return run_figures(COMMITTED_FIGURES, paper_config)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Where the bench-owned tables land."""
    return RESULTS_DIR
