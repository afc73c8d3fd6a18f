"""``results/`` holds what ``repro run <id> --scale paper --out results/``
writes — checked here, byte for byte, against the very runs the shape
benches assert on.  A failure means a committed artifact is stale (or was
edited by hand): regenerate it with that command and re-quote
EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import COMMITTED_FIGURES, RESULTS_DIR


@pytest.mark.parametrize("figure_id", COMMITTED_FIGURES)
def test_committed_artifact_is_current(figure_id, figures):
    result = figures[figure_id]
    # Bytes, not text: the CSVs carry the csv module's CRLF line ends.
    assert (RESULTS_DIR / f"{figure_id}.csv").read_bytes() == result.to_csv().encode()
    assert (RESULTS_DIR / f"{figure_id}.txt").read_bytes() == (
        result.render() + "\n"
    ).encode()
