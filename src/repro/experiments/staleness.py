"""Directory staleness under provider churn (extension experiment).

Section III has providers report availability *periodically*; Section V-C
churns the network.  The missing corner is what churn does to the
*information*: when providers depart, their last reports linger in the
directories until they age out, and queries hand requesters machines that
no longer exist.

This experiment runs a LORM grid in which providers renew their reports on
a fixed period while alive, depart as a Poisson process, and leases expire
with TTL ``ttl``.  It measures the **stale-answer fraction** — the share
of returned providers that have already departed — as a function of the
TTL, against the no-expiry baseline (reports never withdrawn).  Shorter
TTLs bound staleness at the price of more renewal traffic, which is also
reported.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.models import AnalysisCurve
from repro.core.lorm import LormService
from repro.core.refresh import RefreshManager
from repro.core.resource import ResourceInfo
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.sim.engine import Simulator
from repro.utils.seeding import SeedFactory
from repro.workloads.generator import GridWorkload, QueryKind

__all__ = ["run_staleness", "staleness_trial"]

#: Simulated seconds between a live provider's renewals.
_REPORT_PERIOD = 5.0
#: Queries per simulated second.
_QUERY_RATE = 5.0
#: Simulated duration per trial.
_DURATION = 200.0
#: Expiry sweep period.
_EXPIRY_PERIOD = 1.0
#: Lease TTLs swept (simulated seconds).
_TTLS = (7.5, 15.0, 30.0, 60.0)
#: Share of the providers that departs over a run, whatever the scale —
#: so the baseline staleness is scale-independent.
_DEPARTED_SHARE = 0.4


def staleness_trial(
    config: ExperimentConfig,
    ttl: float | None,
    *,
    departure_rate: float = 0.05,
) -> dict[str, float]:
    """One TTL setting; ``ttl=None`` disables expiry (the baseline).

    Returns the mean stale-answer fraction, the final departed share and
    the renewal-message count.
    """
    seeds = SeedFactory(config.seed).fork(f"staleness:{ttl}")
    schema = config.schema()
    service = LormService.build_full(config.dimension, schema, seed=config.seed)
    workload = GridWorkload(
        schema,
        infos_per_attribute=config.infos_per_attribute,
        seed=config.seed,
        mean_span_fraction=config.mean_span_fraction,
    )
    manager = RefreshManager(service, ttl=ttl if ttl is not None else 1e12)

    sim = Simulator()
    alive: set[str] = set()
    departed: set[str] = set()

    # Initial reports at t=0 and periodic renewals while alive.
    def _renew(provider_index: int) -> None:
        provider = workload.provider_name(provider_index)
        if provider not in alive:
            return
        for spec in schema:
            manager.report(
                ResourceInfo(
                    spec.name,
                    workload.provider_value(spec.name, provider_index),
                    provider,
                ),
                now=sim.now,
            )

    for p in range(workload.num_providers):
        alive.add(workload.provider_name(p))
        t = 0.0
        while t < _DURATION:
            sim.schedule_at(t, lambda p=p: _renew(p), name="renew")
            t += _REPORT_PERIOD

    # Provider departures: Poisson with the given rate.
    rng = seeds.numpy("departures")
    t = float(rng.exponential(1.0 / departure_rate))
    departure_times: list[float] = []
    while t < _DURATION:
        departure_times.append(t)
        t += float(rng.exponential(1.0 / departure_rate))

    def depart() -> None:
        if not alive:
            return
        candidates = sorted(alive)
        victim = candidates[int(rng.integers(len(candidates)))]
        alive.discard(victim)
        departed.add(victim)

    for dt in departure_times:
        sim.schedule_at(dt, depart, name="depart")

    if ttl is not None:
        manager.install_periodic_expiry(sim, _EXPIRY_PERIOD, _DURATION)

    # Queries sample the stale fraction of their answers.
    stale_fractions: list[float] = []
    queries = iter(
        workload.query_stream(
            int(_DURATION * _QUERY_RATE) + 1, 1, QueryKind.RANGE, label="staleness"
        )
    )

    def fire_query() -> None:
        query = next(queries)
        answer = service.multi_query(query).providers
        if answer:
            stale = len(answer & departed) / len(answer)
            stale_fractions.append(stale)

    qt = 1.0 / _QUERY_RATE
    while qt < _DURATION:
        sim.schedule_at(qt, fire_query, name="query")
        qt += 1.0 / _QUERY_RATE

    sim.run()
    return {
        "stale_fraction": float(np.mean(stale_fractions)) if stale_fractions else 0.0,
        "departed_share": len(departed) / workload.num_providers,
        "renewals": float(manager.renewals),
        "expirations": float(manager.expirations),
    }


def run_staleness(config: ExperimentConfig) -> FigureResult:
    """Stale-answer fraction vs lease TTL, with the no-expiry baseline."""
    departure_rate = _DEPARTED_SHARE * config.infos_per_attribute / _DURATION
    trials = {
        ttl: staleness_trial(config, ttl, departure_rate=departure_rate)
        for ttl in _TTLS
    }
    baseline = staleness_trial(config, None, departure_rate=departure_rate)

    result = FigureResult(
        figure_id="staleness",
        title="Stale answers vs lease TTL (provider churn, LORM)",
        x_label="lease TTL (s)",
        y_label="mean stale-answer fraction",
    )
    result.add(
        AnalysisCurve(
            "with expiry", _TTLS, tuple(trials[t]["stale_fraction"] for t in _TTLS)
        )
    )
    result.add(
        AnalysisCurve(
            "no expiry (baseline)",
            _TTLS,
            tuple(baseline["stale_fraction"] for _ in _TTLS),
        )
    )
    result.notes.append(
        f"departed share by end of run: {baseline['departed_share']:.0%}; "
        f"renewal messages per trial ~{trials[_TTLS[0]]['renewals']:.0f}"
    )
    return result
