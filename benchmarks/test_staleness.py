"""Staleness extension figure at paper scale.

Provider churn makes unexpired directory entries lie; lease TTLs bound the
lie.
"""

from __future__ import annotations


def test_staleness_figure(figures):
    figure = figures["staleness"]

    leased = figure.curve("with expiry").y
    baseline = figure.curve("no expiry (baseline)").y[0]
    # Without expiry a large share of answers cites departed providers.
    assert baseline > 0.15
    # Every tested TTL stays below the baseline, and the short TTLs (well
    # under the run duration) cut staleness by at least 3x.
    assert all(v < baseline for v in leased)
    assert all(v < baseline / 3 for v in leased[:2])
    # Staleness grows (weakly) with the TTL.
    assert leased[0] <= leased[-1] + 0.02
