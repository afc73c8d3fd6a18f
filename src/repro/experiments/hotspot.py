"""Hotspot experiment: Zipf-skewed popularity × mitigation strategies.

The paper's workload samples query attributes uniformly (Section V), so
the per-node serve load of every system looks balanced by construction.
This sweep replays the same multi-attribute range queries under seeded
Zipf attribute popularity and measures who actually does the work —
per-node serve-load imbalance (max/mean over the whole population, Gini,
top-5 share from :mod:`repro.sim.loadstats`) — for each system and each
mitigation:

* **none** — the seed behaviour (also the result-transparency oracle);
* **salt** — ``S`` salted attribute roots, registrations written to all,
  each query reading its requester's stable root (a ``salts=S`` service);
* **dynamic** — load-driven hot keys for the root, directory copies
  charged to the maintenance budget where queries read the root
  (:class:`~repro.core.hotspot.DynamicReplicator`).

Mitigations apply to the attribute-rooted systems (SWORD, MAAN); LORM
and Mercury spread load by *value* hashing already and are swept
unmitigated for comparison.  All cells of one ``(system, s)`` pair run
under common random numbers — identical overlay membership, query stream
and entry nodes — so imbalance differences are pure mitigation effect.

The verdict (CI gate): at the highest swept Zipf exponent the best
mitigation must cut SWORD's serve-load max/mean ratio by at least
``REQUIRED_CUT``× versus unmitigated, every mitigated cell's answers
must be byte-identical to the unmitigated cell's (result transparency),
and no sub-query may exceed its system's structural hop ceiling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.hotspot import DynamicReplicator
from repro.experiments.common import SYSTEM_NAMES, build_service, resolve_systems
from repro.experiments.config import HOTSPOT_WINDOWS, ExperimentConfig
from repro.experiments.report import CellTable
from repro.sim.invariants import overlay_of
from repro.sim.loadstats import LoadStats, LoadWindow, max_mean_ratio
from repro.sim.maintenance import MaintenanceBudget
from repro.utils.seeding import SeedFactory
from repro.workloads.generator import GridWorkload, QueryKind
from repro.workloads.popularity import ZipfPopularity

__all__ = [
    "HotspotCell",
    "HotspotResult",
    "run_hotspot",
    "MITIGATIONS",
    "MITIGATED_SYSTEMS",
    "REQUIRED_CUT",
]

#: Mitigation strategies in report order.
MITIGATIONS = ("none", "salt", "dynamic")

#: Systems with a single attribute-rooted directory to mitigate.
MITIGATED_SYSTEMS = ("SWORD", "MAAN")

#: The system the CI gate is asserted on (the melt-down victim).
HEADLINE_SYSTEM = "SWORD"

#: Required imbalance cut of the best mitigation at the headline s.
REQUIRED_CUT = 2.0

#: Attributes per measured query.
QUERY_ATTRIBUTES = 2


@dataclass(frozen=True)
class HotspotCell:
    """One (system, zipf-s, mitigation) measurement."""

    system: str
    zipf_s: float
    mitigation: str
    #: Serve-load max/mean ratio over the merged measured windows.
    imbalance: float
    gini: float
    top5_share: float
    #: Routing-load (intermediate hops) max/mean ratio.
    route_imbalance: float
    mean_subquery_hops: float
    max_subquery_hops: int
    hop_bound: int
    queries: int
    #: Answers byte-identical to the unmitigated cell of the same
    #: (system, s)?  True by construction for the "none" cells.
    transparent: bool
    #: Directory copies charged to maintenance (dynamic cells).
    replica_copies: int
    replicas_created: int


@dataclass
class HotspotResult(CellTable):
    """The full system × zipf-s × mitigation sweep plus the gate verdict."""

    name = "hotspot"
    title = (
        "hotspot: serve-load imbalance under zipf popularity "
        "x mitigation (common random numbers)"
    )
    cell_type = HotspotCell
    key_fields = ("system", "zipf_s", "mitigation")
    columns = (
        ("system", lambda c: c.system),
        ("zipf s", lambda c: f"{c.zipf_s:g}"),
        ("mitigation", lambda c: c.mitigation),
        ("max/mean", lambda c: f"{c.imbalance:.1f}"),
        ("gini", lambda c: f"{c.gini:.3f}"),
        ("top-5", lambda c: f"{c.top5_share:.1%}"),
        ("route max/mean", lambda c: f"{c.route_imbalance:.1f}"),
        ("hops", lambda c: f"{c.mean_subquery_hops:.1f}"),
        ("max/bound", lambda c: f"{c.max_subquery_hops}/{c.hop_bound}"),
        ("transparent", lambda c: "yes" if c.transparent else "NO"),
        ("copies", lambda c: str(c.replica_copies)),
    )

    @property
    def headline_s(self) -> float:
        """The Zipf exponent the verdict is computed at (highest swept)."""
        return max(self.config.hotspot_zipf_s)

    def cut(self, system: str) -> float:
        """Unmitigated / best-mitigated imbalance at the headline s."""
        base = self.cell(system, self.headline_s, "none").imbalance
        mitigated = [
            c.imbalance
            for c in self.cells
            if c.system == system
            and c.zipf_s == self.headline_s
            and c.mitigation != "none"
        ]
        if not mitigated:
            return 1.0
        best = min(mitigated)
        if best <= 0.0:
            return float("inf") if base > 0.0 else 1.0
        return base / best

    @property
    def ok(self) -> bool:
        """The CI gate: ≥``REQUIRED_CUT``× imbalance cut on SWORD at the
        headline Zipf exponent, all answers transparent, all sub-query
        hop counts within the structural ceilings."""
        if not self.cells or self.headline_s <= 0.0:
            return False
        try:
            cut = self.cut(HEADLINE_SYSTEM)
        except KeyError:
            return False
        if cut < REQUIRED_CUT:
            return False
        if any(not c.transparent for c in self.cells):
            return False
        if any(c.max_subquery_hops > c.hop_bound for c in self.cells):
            return False
        return True

    def verdict_lines(self) -> list[str]:
        s = self.headline_s
        if s <= 0.0:
            return []
        lines = []
        for system in MITIGATED_SYSTEMS:
            try:
                base = self.cell(system, s, "none")
                cut = self.cut(system)
            except KeyError:
                continue
            need = REQUIRED_CUT if system == HEADLINE_SYSTEM else 1.0
            verdict = "ok" if cut >= need else "MISS"
            gate = ""
            if system == HEADLINE_SYSTEM:
                gate = f" (gate >= {REQUIRED_CUT:g}x: {verdict})"
            lines.append(
                f"{system} @ s={s:g}: max/mean {base.imbalance:.1f} "
                f"(none) -> best mitigated {base.imbalance / cut:.1f}, "
                f"{cut:.1f}x cut{gate}"
            )
        lines.append(f"verdict: {'ok' if self.ok else 'GATE MISS'}")
        return lines


def _skewed_workload(config: ExperimentConfig, s: float) -> GridWorkload:
    """The configured workload under Zipf(s) popularity.

    Provider values are drawn before popularity applies, so every ``s``
    (and the unskewed registration workload) sees identical directories.
    """
    return GridWorkload(
        schema=config.schema(),
        infos_per_attribute=config.infos_per_attribute,
        seed=config.seed,
        mean_span_fraction=config.mean_span_fraction,
        popularity=ZipfPopularity(s=s, seed=config.seed),
    )


def _entry_indices(config: ExperimentConfig, name: str, count: int, population: int):
    """``count`` seeded entry-node indices — a pure function of
    (seed, system), shared by every mitigation variant of one system."""
    rng = SeedFactory(config.seed).numpy(f"hotspot-entries:{name}")
    return [int(i) for i in rng.integers(0, population, size=count)]


def _entry_nodes(service, indices) -> list:
    """The entry nodes of ``service``'s *own* overlay at ``indices``.

    Variants of one system share membership (same build seed) but not
    node objects; resolving per service keeps lookups — and directory
    reads — inside the right overlay.
    """
    overlay = overlay_of(service)
    ids = overlay.node_ids
    return [overlay.node(ids[i]) for i in indices]


def _measure_cell(
    service,
    mitigation: str,
    zipf_s: float,
    queries,
    starts,
    config: ExperimentConfig,
    replicator: DynamicReplicator | None = None,
):
    """Run one cell; returns ``(cell_without_transparency, answers)``.

    The caller fills in ``transparent`` by comparing ``answers`` against
    the unmitigated cell's.  The first window is warm-up for every
    mitigation alike (dynamic replication cannot act before it has
    observed one window; the others just discard it) so imbalance
    numbers are computed over identical query ranges.
    """
    stats = LoadStats()
    service.attach_load_stats(stats)
    budget = MaintenanceBudget(
        stabilize_nodes=0,
        refresh_nodes=0,
        repair_keys=config.infos_per_attribute * DynamicReplicator.MAX_REPLICAS,
    )
    population = service.num_nodes()
    per_window = len(queries) // HOTSPOT_WINDOWS
    answers = []
    measured = LoadWindow()
    copies_before = replicator.copies_sent if replicator is not None else 0
    created_before = replicator.replicas_created if replicator is not None else 0
    max_hops = 0
    total_hops = 0
    sub_count = 0
    try:
        for w in range(HOTSPOT_WINDOWS):
            chunk = queries[w * per_window : (w + 1) * per_window]
            for j, q in enumerate(chunk):
                result = service.multi_query(q, starts[w * per_window + j])
                answers.append(result.providers)
                for sub in result.sub_results:
                    max_hops = max(max_hops, sub.hops)
                    total_hops += sub.hops
                    sub_count += 1
            window = stats.take_window()
            if w > 0:
                measured = measured.merged(window)
            if replicator is not None:
                replicator.observe(window, population)
                replicator.tick(budget)
    finally:
        service.attach_load_stats(None)
    replica_copies = 0
    replicas_created = 0
    if replicator is not None:
        replica_copies = replicator.copies_sent - copies_before
        replicas_created = replicator.replicas_created - created_before
    cell = HotspotCell(
        system=service.name,
        zipf_s=zipf_s,
        mitigation=mitigation,
        imbalance=measured.max_mean_ratio(population),
        gini=measured.gini(population),
        top5_share=measured.top_share(5),
        route_imbalance=max_mean_ratio(measured.routes, population),
        mean_subquery_hops=total_hops / sub_count if sub_count else 0.0,
        max_subquery_hops=max_hops,
        hop_bound=service.subquery_hop_bound(),
        queries=len(answers),
        transparent=True,
        replica_copies=replica_copies,
        replicas_created=replicas_created,
    )
    return cell, answers


def run_hotspot(config: ExperimentConfig, systems=None) -> HotspotResult:
    """Sweep system × zipf-s × mitigation under common random numbers.

    Per system one base service is built (shared by the "none" and
    "dynamic" cells — the replicator is cleared between cells, restoring
    the unmitigated directories) plus one salted service for the "salt"
    cells; all variants share overlay membership, query streams and
    entry nodes, so imbalance deltas are pure mitigation effect.
    """
    names = resolve_systems(systems) if systems else SYSTEM_NAMES
    result = HotspotResult(config=config)
    total = (config.hotspot_queries // HOTSPOT_WINDOWS) * HOTSPOT_WINDOWS
    for name in names:
        base = build_service(config, name)
        indices = _entry_indices(config, name, total, base.num_nodes())
        starts = _entry_nodes(base, indices)
        salted = None
        salted_starts = None
        if name in MITIGATED_SYSTEMS:
            salted = build_service(config, name, salting=config.hotspot_salts)
            salted_starts = _entry_nodes(salted, indices)
        for s in sorted(config.hotspot_zipf_s):
            workload = _skewed_workload(config, s)
            queries = list(
                workload.query_stream(
                    total,
                    QUERY_ATTRIBUTES,
                    QueryKind.RANGE,
                    label=f"hotspot:{s:g}",
                )
            )
            cell, reference = _measure_cell(base, "none", s, queries, starts, config)
            result.cells.append(cell)
            if salted is None:
                continue
            cell, answers = _measure_cell(salted, "salt", s, queries, salted_starts, config)
            result.cells.append(_with_transparency(cell, answers == reference))
            replicator = DynamicReplicator(base)
            base.attach_hot_replicator(replicator)
            try:
                cell, answers = _measure_cell(
                    base,
                    "dynamic",
                    s,
                    queries,
                    starts,
                    config,
                    replicator=replicator,
                )
            finally:
                base.attach_hot_replicator(None)
            result.cells.append(_with_transparency(cell, answers == reference))
    result.notes.append(
        f"{total} range queries/cell over {HOTSPOT_WINDOWS} windows "
        f"(first = warm-up, excluded from imbalance); "
        f"{QUERY_ATTRIBUTES} attributes/query; "
        f"salting S={config.hotspot_salts}; dynamic trigger "
        f"{DynamicReplicator.TRIGGER_RATIO:g}x mean, {DynamicReplicator.MAX_REPLICAS} "
        f"replicas, decay after {DynamicReplicator.DECAY_WINDOWS} cold windows."
    )
    result.notes.append(
        "LORM and Mercury spread directories by value hashing and run "
        "unmitigated; mitigations target the attribute-rooted SWORD/MAAN "
        "directories."
    )
    return result


def _with_transparency(cell: HotspotCell, transparent: bool) -> HotspotCell:
    return dataclasses.replace(cell, transparent=transparent)
