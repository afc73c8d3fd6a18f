"""Registration (information-maintenance) cost across the four approaches.

Not a figure in the paper, but implied by its overhead analysis: MAAN pays
two routed insertions per info piece (Theorem 4.2's doubling shows up in
write traffic too), Mercury/SWORD one Chord insertion, LORM one Cycloid
insertion.  This bench measures routed-insert hop costs at paper scale and
checks those relationships.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import theorems
from repro.experiments.common import build_services
from repro.utils.formatting import render_table


def _measure(config):
    bundle = build_services(config, register=False)
    wl = bundle.workload
    infos = [
        info
        for attr in wl.schema.names[:20]
        for info in wl.infos_for_attribute(attr)[:50]
    ]
    means = {}
    for service in bundle.all():
        hops = [service.register(info, routed=True) for info in infos]
        means[service.name] = float(np.mean(hops))
    return means


def test_registration_cost(paper_config, results_dir):
    means = _measure(paper_config)

    table = render_table(
        ["approach", "avg hops per routed insert"],
        [[name, value] for name, value in means.items()],
        title="Registration cost at paper scale (1000 inserts/approach)",
    )
    (results_dir / "registration_cost.txt").write_text(table + "\n")

    n, d = paper_config.population, paper_config.dimension
    # MAAN registers twice: exactly double Mercury's insert cost.
    assert means["MAAN"] == pytest.approx(2 * means["Mercury"], rel=0.08)
    # SWORD and Mercury both pay one Chord lookup.
    assert means["SWORD"] == pytest.approx(means["Mercury"], rel=0.08)
    # LORM pays one Cycloid lookup: costlier than one Chord lookup,
    # cheaper than MAAN's two.
    assert means["Mercury"] < means["LORM"] < means["MAAN"]
    # And the MAAN/LORM ratio tracks Theorem 4.7's log(n)/d.
    assert means["MAAN"] / means["LORM"] == pytest.approx(
        theorems.thm47_contacted_reduction_vs_maan(n, d), rel=0.15
    )
