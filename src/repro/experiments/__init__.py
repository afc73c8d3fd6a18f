"""Experiment harness — regenerates every figure of the paper.

One module per figure family, one sweep per multi-panel figure:

* :mod:`~repro.experiments.figure3` — maintenance overhead: outlinks vs
  network size (3a) and directory-size distributions (3b/3c/3d, one
  loaded bundle);
* :mod:`~repro.experiments.figure4` — non-range multi-attribute lookup
  hops, average (4a) and total (4b), from ``run_fig4``;
* :mod:`~repro.experiments.figure5` — range-query visited nodes,
  system-wide approaches (5a) and SWORD/LORM (5b), from ``run_fig5``;
* :mod:`~repro.experiments.figure6` — churn: hops (6a) and visited nodes
  (6b) vs the Poisson rate R, from ``run_fig6``.

:mod:`~repro.experiments.config` holds the paper's parameters;
:mod:`~repro.experiments.report` renders each figure as CSV + text table +
ASCII chart; :mod:`~repro.experiments.runner` registers every figure by
the run that produces it and is the programmatic entry point
(``run_figure`` / ``run_figures``) behind the CLI's ``run`` and ``all``.
"""

from repro.experiments.config import ExperimentConfig, PAPER_CONFIG, SMOKE_CONFIG
from repro.experiments.report import FigureResult


def __getattr__(name: str):
    # The registry imports every experiment module, so it loads on first
    # use rather than with the package (which ``import repro`` imports).
    if name in ("FIGURES", "run_figure", "run_figures"):
        from repro.experiments import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "FigureResult",
    "PAPER_CONFIG",
    "SMOKE_CONFIG",
    "run_figure",
    "run_figures",
]
