"""Maintenance traffic under churn (extension figure).

Figure 3(a) shows the *state* each node maintains; this experiment shows
the *traffic* that state costs: overlay maintenance messages (join/leave
repairs plus periodic stabilization) per simulated second, as the churn
rate R sweeps the paper's 0.1 … 0.5.

Mercury pays the per-ring price once per hub — every node maintains a
routing table in all m DHTs, so its structural traffic is m × a single
ring's (exactly how Theorem 4.1 accounts it).  LORM's constant-degree
Cycloid keeps both the per-event repair cost and the stabilization cost
low, which is the paper's "single DHT with constant maintenance overhead"
claim in message units.
"""

from __future__ import annotations

from repro.analysis.models import AnalysisCurve
from repro.experiments.common import build_services
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.sim.churn import ChurnProcess
from repro.sim.engine import Simulator
from repro.sim.invariants import overlay_of
from repro.utils.seeding import SeedFactory

__all__ = ["maintenance_trial", "run_maintenance"]

#: Simulated seconds per trial and between stabilization rounds.
_DURATION = 120.0
_STABILIZE_PERIOD = 30.0


def maintenance_trial(config: ExperimentConfig, rate: float) -> dict[str, float]:
    """Maintenance messages per second per approach at churn rate ``rate``.

    Mercury's count is scaled by its hub multiplicity (see module
    docstring); SWORD/MAAN run one ring, LORM one Cycloid.
    """
    bundle = build_services(config, register=False, seed_offset=int(rate * 977))
    seeds = SeedFactory(config.seed).fork(f"maintenance:{rate}")
    out: dict[str, float] = {}
    for service in bundle.all():
        network = overlay_of(service).network
        before = network.stats.maintenance_messages
        sim = Simulator()
        churn = ChurnProcess(rate=rate, rng=seeds.numpy(f"churn:{service.name}"))
        churn.install(
            sim, _DURATION, on_join=service.churn_join, on_leave=service.churn_leave
        )
        t = _STABILIZE_PERIOD
        while t < _DURATION:
            sim.schedule_at(t, service.stabilize, name="stabilize")
            t += _STABILIZE_PERIOD
        sim.run()
        messages = network.stats.maintenance_messages - before
        out[service.name] = service.maintenance_scale() * messages / _DURATION
    return out


def run_maintenance(config: ExperimentConfig) -> FigureResult:
    """Maintenance messages/second vs churn rate R (log-scale y)."""
    rates = tuple(float(r) for r in config.churn_rates)
    trials = {rate: maintenance_trial(config, rate) for rate in rates}

    result = FigureResult(
        figure_id="maintenance",
        title="Structure-maintenance traffic under churn",
        x_label="churn rate R (events/s)",
        y_label="maintenance messages / s",
        log_y=True,
    )
    for name in ("Mercury", "MAAN", "SWORD", "LORM"):
        result.add(
            AnalysisCurve(name, rates, tuple(trials[r][name] for r in rates))
        )
    result.notes.append(
        f"Mercury scaled by its m={config.num_attributes} hubs (Theorem 4.1's "
        f"accounting); stabilization every {_STABILIZE_PERIOD:.0f}s"
    )
    return result
