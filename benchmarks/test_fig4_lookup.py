"""Figure 4 bench — non-range lookup hops at paper scale.

1000 point queries per attribute count (1..10), all four approaches;
asserts Theorems 4.7/4.8: Mercury == SWORD == MAAN/2, and LORM ≈
MAAN / (log2(n)/d) sitting strictly between Mercury and MAAN.
"""

from __future__ import annotations

import pytest


def test_fig4a(figures):
    avg = figures["fig4a"]

    n_attrs = avg.curve("MAAN").x
    maan, lorm = avg.curve("MAAN").y, avg.curve("LORM").y
    mercury, sword = avg.curve("Mercury").y, avg.curve("SWORD").y
    analysis_lorm = avg.curve("Analysis-LORM").y
    analysis_ms = avg.curve("Analysis-SWORD/Mercury").y

    for i in range(len(n_attrs)):
        # Ordering: Mercury/SWORD < LORM < MAAN (the paper's Figure 4).
        assert mercury[i] < lorm[i] < maan[i]
        # Theorem 4.8: Mercury and SWORD overlap and equal MAAN / 2.
        assert mercury[i] == pytest.approx(sword[i], rel=0.06)
        assert mercury[i] == pytest.approx(analysis_ms[i], rel=0.06)
        # Theorem 4.7: LORM within ~15% of MAAN / (11/8), "very close".
        assert lorm[i] == pytest.approx(analysis_lorm[i], rel=0.18)
        # Hops grow linearly with the attribute count.
    assert maan[-1] == pytest.approx(maan[0] * n_attrs[-1], rel=0.05)


def test_fig4b(paper_config, figures):
    total = figures["fig4b"]

    num_queries = paper_config.num_requesters * paper_config.queries_per_requester
    avg_first = total.curve("MAAN").y[0] / num_queries
    # Per-attribute MAAN hops = 2 Chord lookups ~ log2(n) (+2 final hops).
    assert 10.0 < avg_first < 14.5
