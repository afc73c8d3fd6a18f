"""Availability under message loss × replication, across all four systems.

The companion of ``test_failure_injection.py`` on the *message* axis: after
an identical crash storm, every approach answers the same multi-attribute
workload while the fault injector drops messages.  Two policies are
measured at 5% loss:

* the default lookup policy (retries + successor-list failover +
  alternate-finger fallback), which should mask the loss entirely —
  with r >= 2 completeness stays >= 0.99;
* retries and failover disabled (``NO_RETRY_POLICY``), where every hop
  gambles on delivery and completeness measurably collapses.

The bench also checks the accounting: at positive loss the injector
must actually drop messages and the retry counters must move, and every
failed query must come back flagged ``complete=False`` — never as an
exception, never silently wrong.

That sweep runs at smoke scale and this bench is the one producer of its
table, ``availability_loss.txt``; the registered ``availability`` figure
(``results/availability.*``, paper scale) is asserted to the same shape.
"""

from __future__ import annotations

from repro.experiments.availability import _crash_storm, run_availability
from repro.experiments.common import SYSTEM_NAMES, build_services, query_cases
from repro.experiments.config import SMOKE_CONFIG
from repro.sim.faults import NO_RETRY_POLICY, FaultInjector, FaultPlan
from repro.sim.invariants import overlay_of
from repro.utils.formatting import render_table

LOSS = 0.05
CONFIG = SMOKE_CONFIG.scaled(
    loss_rates=(0.0, LOSS),
    availability_replications=(1, 2, 3),
    num_availability_queries=120,
)


def _sweep():
    figure = run_availability(CONFIG)

    # The extra cell: r=1, 5% loss, retries/failover disabled.  Rebuilt the
    # same way run_availability builds its r=1 bundle (same seed offset),
    # so the only difference from the "LORM r=1" curve is the policy.
    bundle = build_services(CONFIG, register=True, seed_offset=1)
    _crash_storm(bundle, CONFIG)
    cases = query_cases(bundle, CONFIG.num_availability_queries, "availability")
    no_retry = {}
    dropped = {}
    flagged_ok = {}
    conserved = {}
    for service in bundle.all():
        network = overlay_of(service).network
        before = network.stats.snapshot()
        injector = FaultInjector(FaultPlan(loss_rate=LOSS, seed=7_000 + len(no_retry)))
        service.configure_faults(injector, NO_RETRY_POLICY)
        try:
            exact = 0
            honest = True
            for query, truth in cases:
                result = service.multi_query(query)
                if result.providers == truth:
                    exact += 1
                elif not result.providers <= truth:
                    # Degraded answers must under-approximate: missing
                    # providers are honest, spurious providers are a lie.
                    honest = False
        finally:
            service.configure_faults(None)
        delta = network.stats.delta_since(before)
        no_retry[service.name] = exact / len(cases)
        dropped[service.name] = delta.dropped
        flagged_ok[service.name] = honest
        conserved[service.name] = (
            delta.messages,
            delta.routing_hops + delta.maintenance_messages + delta.dropped,
        )
    return figure, no_retry, dropped, flagged_ok, conserved


def _completeness(figure, name: str, r: int, loss: float) -> float:
    curve = figure.curve(f"{name} r={r}")
    return dict(zip(curve.x, curve.y))[loss]


def _assert_loss_is_masked(figure, loss_rates) -> None:
    """The figure's shape, at whatever scale it was swept."""
    for name in SYSTEM_NAMES:
        # With retries + failover + replication, 5% loss is fully masked.
        for r in (2, 3):
            assert _completeness(figure, name, r, LOSS) >= 0.99, (name, r)
        # Completeness is monotone in the replication factor at every loss.
        for loss in loss_rates:
            by_r = [_completeness(figure, name, r, loss) for r in (1, 2, 3)]
            assert by_r == sorted(by_r), (name, loss, by_r)
    # With the default retry/failover policy, 5% loss costs (almost) no
    # completeness relative to the lossless network at the same replication.
    for curve in figure.curves:
        cells = dict(zip(curve.x, curve.y))
        assert cells[LOSS] >= cells[0.0] - 0.02, (curve.name, cells)


def test_availability_figure(paper_config, figures):
    _assert_loss_is_masked(figures["availability"], paper_config.loss_rates)


def test_availability_loss(results_dir):
    figure, no_retry, dropped, flagged_ok, conserved = _sweep()
    rows = [
        [
            name,
            _completeness(figure, name, 1, 0.0),
            _completeness(figure, name, 1, LOSS),
            no_retry[name],
            _completeness(figure, name, 2, LOSS),
            _completeness(figure, name, 3, LOSS),
            dropped[name],
        ]
        for name in SYSTEM_NAMES
    ]
    table = render_table(
        [
            "approach",
            "r=1 loss=0",
            "r=1 5% loss",
            "r=1 5% no-retry",
            "r=2 5% loss",
            "r=3 5% loss",
            "msgs dropped",
        ],
        rows,
        title=f"Availability: crash storm + {LOSS:.0%} message loss",
    )
    (results_dir / "availability_loss.txt").write_text(table + "\n")

    _assert_loss_is_masked(figure, CONFIG.loss_rates)
    for name in SYSTEM_NAMES:
        # Stripping retries and failover measurably degrades r=1: at least
        # ten points of completeness lost versus the default policy.
        assert no_retry[name] <= _completeness(figure, name, 1, LOSS) - 0.10, (
            name,
            no_retry[name],
        )
        # The injector really ran: messages were dropped in the no-retry
        # cell, and every miss was an honest under-approximation.
        assert dropped[name] > 0, name
        assert flagged_ok[name], name
        # Message conservation: every sent message is a routing hop, a
        # maintenance message, or a drop — nothing uncounted.
        messages, accounted = conserved[name]
        assert messages == accounted, (name, messages, accounted)
