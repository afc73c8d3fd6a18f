"""Latency extension figure at paper scale.

Parallel sub-query resolution means response time is set by the slowest
sub-query; the sequential range walks of the system-wide approaches then
dominate end-to-end latency by orders of magnitude — Theorem 4.9 in time
units.
"""

from __future__ import annotations


def test_latency_figure(figures):
    figure = figures["latency"]

    lorm = figure.curve("LORM").y
    mercury = figure.curve("Mercury").y
    sword = figure.curve("SWORD").y
    maan = figure.curve("MAAN").y
    for i in range(len(lorm)):
        # System-wide range walks dominate latency by >20x over LORM.
        assert mercury[i] > 20 * lorm[i]
        assert maan[i] >= mercury[i] * 0.95
        assert sword[i] <= lorm[i]
    # Parallelism: tripling the attribute count far less than triples
    # latency for every approach.
    for name in ("LORM", "Mercury", "SWORD", "MAAN"):
        ys = figure.curve(name).y
        assert ys[2] < 2.0 * ys[0]
