"""Maintenance-traffic extension figure at paper scale.

Mercury's repair traffic is m=200 × a single ring's; the single-DHT
approaches (and LORM's constant-degree Cycloid) stay within a small factor
of each other — Theorem 4.1's practical consequence in message units.
"""

from __future__ import annotations


def test_maintenance_figure(figures):
    figure = figures["maintenance"]

    mercury = figure.curve("Mercury").y
    sword = figure.curve("SWORD").y
    lorm = figure.curve("LORM").y
    for i in range(len(mercury)):
        # Mercury pays roughly m x the single-ring price.
        assert mercury[i] > 50 * sword[i]
        # LORM stays within a small constant of the single-ring approaches.
        assert lorm[i] < 6 * sword[i]
    # Traffic scales with churn.
    assert mercury[-1] > mercury[0]
    assert lorm[-1] > lorm[0]
