"""Figure 6 bench — efficiency under churn at paper scale.

Sweeps R = 0.1 … 0.5 with event-driven churn, stabilization and 10000
alternating point/range requests per rate, and asserts the paper's
Section V-C findings: zero failures, flat curves in R, and agreement with
the static analysis lines of Theorems 4.7–4.9.

Note on scale: the request count per rate is the paper's 10000.  The
dominant cost is the system-wide range walks of Mercury/MAAN (~512 visited
nodes per query), exactly as it dominates the paper's own simulation.
"""

from __future__ import annotations

import pytest


def test_fig6a(figures):
    panel = figures["fig6a"]

    # "There were no failures in all test cases."
    assert any("no failures" in note for note in panel.notes), panel.notes

    for name, analysis_name, slack in (
        ("MAAN", "Analysis-MAAN", 0.35),
        ("LORM", "Analysis-LORM", 0.35),
        ("Mercury", "Analysis-SWORD/Mercury", 0.35),
    ):
        measured = panel.curve(name).y
        level = panel.curve(analysis_name).y[0]
        for value in measured:
            assert value == pytest.approx(level, rel=slack)
        # Flat in R: the paper's "does not change with the rate R".
        assert max(measured) - min(measured) < 0.2 * max(measured)

    # Ordering preserved under churn.
    for mercury, lorm, maan in zip(
        panel.curve("Mercury").y, panel.curve("LORM").y, panel.curve("MAAN").y
    ):
        assert mercury < lorm < maan


def test_fig6b(paper_config, figures):
    panel = figures["fig6b"]

    n, d = paper_config.population, paper_config.dimension
    mercury_level = 1 + n / 4
    for name in ("Mercury", "MAAN"):
        for value in panel.curve(name).y:
            assert value == pytest.approx(mercury_level, rel=0.12)
    for value in panel.curve("LORM").y:
        assert value == pytest.approx(1 + d / 4, rel=0.35)
    for value in panel.curve("SWORD").y:
        assert value == pytest.approx(1.0, abs=0.01)

    # Mercury/MAAN overlap, as in the paper ("differ no more than 30").
    for a, b in zip(panel.curve("MAAN").y, panel.curve("Mercury").y):
        assert abs(a - b) < 30
