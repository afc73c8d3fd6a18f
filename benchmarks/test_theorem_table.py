"""Theorem-table bench — every Section IV constant validated at paper scale.

This is the reproduction's tightest summary: each theorem's closed-form
constant (8.78, 1.28, 11/8, 2, 513m, …) against its direct measurement at
n=2048, m=200, k=500, d=8.
"""

from __future__ import annotations


def test_theorem_table(paper_config, figures):
    table = figures["theorems"]

    # Exact identities.
    assert table.row("4.2").measured == 2.0
    sword49 = next(r for r in table.rows if "SWORD visited" in r.quantity)
    assert sword49.measured == 1.0
    worst_mercury = next(r for r in table.rows if "Mercury worst" in r.quantity)
    assert worst_mercury.measured == paper_config.population

    # Theorem 4.1 is a lower bound: the measured saving must be at least
    # m*log(n)/d (LORM's constant-degree table makes it bigger in practice).
    row41 = table.row("4.1")
    assert row41.measured >= row41.predicted

    # Ratio theorems within tight tolerances at paper scale.
    tolerances = {"4.3": 0.20, "4.4": 0.20, "4.5": 0.10,
                  "4.7": 0.10, "4.8": 0.05}
    for theorem, tolerance in tolerances.items():
        row = table.row(theorem)
        assert row.relative_error < tolerance, (
            f"Theorem {theorem}: predicted {row.predicted:.3f}, "
            f"measured {row.measured:.3f}"
        )

    # Theorem 4.9 per-approach averages within 10%.
    for row in table.rows:
        if row.theorem == "4.9":
            assert row.relative_error < 0.10, row.quantity
