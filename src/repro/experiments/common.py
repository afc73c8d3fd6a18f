"""Shared experiment plumbing: building and loading the four services.

Every figure starts from the same state — the four approaches built at the
configured scale and loaded with the identical Bounded-Pareto workload —
so construction lives here and each figure module only adds its sweep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baselines.maan import MaanService
from repro.baselines.mercury import MercuryService
from repro.baselines.sword import SwordService
from repro.core.lorm import LormService
from repro.experiments.config import ExperimentConfig
from repro.overlay.record import ReCordOverlay
from repro.overlay.singlehop import SingleHopRing
from repro.sim.invariants import install_churn_guards
from repro.workloads.generator import GridWorkload, QueryKind

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.durability import DurabilityPolicy

__all__ = [
    "OVERLAY_NAMES",
    "SYSTEM_NAMES",
    "ServiceBundle",
    "build_service",
    "build_services",
    "build_workload",
    "query_cases",
    "resolve_overlay",
    "resolve_system",
    "resolve_systems",
]

#: Canonical approach names, report order — the single system registry
#: every CLI ``--system``/``--systems`` flag validates against.
SYSTEM_NAMES = ("LORM", "Mercury", "SWORD", "MAAN")

#: Overlay substrates a service can run on.  ``cycloid`` is LORM's native
#: hierarchical overlay; the ring tiers (plain Chord, D1HT-style
#: single-hop, randomized-Chord ReCord) host any of the four systems.
OVERLAY_NAMES = ("chord", "cycloid", "singlehop", "record")

_SYSTEM_CLASSES = {
    "LORM": LormService,
    "Mercury": MercuryService,
    "SWORD": SwordService,
    "MAAN": MaanService,
}


def resolve_system(name: str) -> str:
    """The canonical registry name for ``name`` (case-insensitive).

    Raises ``ValueError`` naming the valid choices — CLI entry points
    turn that into a clean exit 2 instead of a traceback.
    """
    for known in SYSTEM_NAMES:
        if known.lower() == name.lower():
            return known
    raise ValueError(
        f"unknown system {name!r}; valid choices: {', '.join(SYSTEM_NAMES)}"
    )


def resolve_systems(names) -> tuple[str, ...]:
    """Canonical, de-duplicated system names (order of first mention)."""
    return tuple(dict.fromkeys(resolve_system(name) for name in names))


def resolve_overlay(name: str) -> str:
    """The canonical overlay name for ``name`` (case-insensitive).

    Same contract as :func:`resolve_system`: raises ``ValueError`` naming
    the valid choices so CLI flags exit 2 cleanly.
    """
    for known in OVERLAY_NAMES:
        if known.lower() == name.lower():
            return known
    raise ValueError(
        f"unknown overlay {name!r}; valid choices: {', '.join(OVERLAY_NAMES)}"
    )


def ring_factory_for(overlay: str, *, fanout: int = 2, seed: int = 0):
    """The ring constructor for a ring-tier overlay name.

    Returns ``None`` for ``chord`` (callers fall back to the default
    :class:`~repro.overlay.chord.ChordRing` path, byte-identical to not
    specifying an overlay at all); raises for ``cycloid``, which is not a
    flat ring.
    """
    overlay = resolve_overlay(overlay)
    if overlay == "chord":
        return None
    if overlay == "singlehop":
        return SingleHopRing
    if overlay == "record":
        return functools.partial(ReCordOverlay, fanout=fanout, seed=seed)
    raise ValueError("overlay 'cycloid' is not a flat ring substrate")


@dataclass
class ServiceBundle:
    """The four approaches over one configuration, plus the workload."""

    config: ExperimentConfig
    workload: GridWorkload
    lorm: LormService
    mercury: MercuryService
    sword: SwordService
    maan: MaanService

    def all(self) -> tuple:
        """The services, LORM first (report order used throughout)."""
        return (self.lorm, self.mercury, self.sword, self.maan)

    def by_name(self, name: str):
        """Service by approach name ('LORM', 'Mercury', 'SWORD', 'MAAN')."""
        for service in self.all():
            if service.name == name:
                return service
        raise KeyError(f"unknown approach {name!r}")

    def set_collect_matches(self, flag: bool) -> None:
        """Toggle match collection on every service (accounting-only runs)."""
        for service in self.all():
            service.collect_matches = flag


def build_workload(config: ExperimentConfig) -> GridWorkload:
    """The configured Bounded-Pareto workload (m attributes × k providers)."""
    return GridWorkload(
        schema=config.schema(),
        infos_per_attribute=config.infos_per_attribute,
        seed=config.seed,
        mean_span_fraction=config.mean_span_fraction,
    )


def build_service(
    config: ExperimentConfig,
    name: str,
    *,
    workload: GridWorkload | None = None,
    register: bool = True,
    salting: int | None = None,
    overlay: str | None = None,
    fanout: int = 2,
    durability: "DurabilityPolicy | None" = None,
    seed_offset: int = 0,
):
    """One service at ``config`` scale, loaded with the workload — the
    single construction path (:func:`build_services` and ``repro trace``
    call it per system).

    ``salting`` is the number ``S`` of salted roots per attribute, given
    to Chord-backed services as ``salts`` (LORM and Mercury have no
    attribute-rooted single directory, so salting either is rejected).

    ``overlay`` picks the routing substrate (see :data:`OVERLAY_NAMES`).
    ``None`` keeps each system on its native substrate (Cycloid for LORM,
    Chord for the rest); a ring-tier name runs the system on that ring
    (LORM flat, over its linearized resource IDs).  ``fanout`` is ReCord's
    per-level finger fan-out, ignored by the other overlays.

    ``durability`` is the overlay's
    :class:`~repro.sim.durability.DurabilityPolicy` (placement ×
    redundancy); ``None`` is the paper's model, one copy per key
    (``successor_replication(1)``); ``successor_replication(R)`` with
    ``R >= 2`` makes data survive crash failures.
    ``seed_offset`` de-correlates repeated builds.
    """
    name = resolve_system(name)
    cls = _SYSTEM_CLASSES[name]
    if overlay is not None:
        overlay = resolve_overlay(overlay)
    if workload is None:
        workload = build_workload(config)
    seed = config.seed + seed_offset
    kwargs = {"seed": seed, "lph_kind": config.lph_kind, "durability": durability}
    if salting is not None:
        if cls is LormService:
            raise ValueError("key salting applies to Chord-backed services only")
        kwargs["salts"] = salting
    if cls is LormService and overlay in (None, "cycloid"):
        service = cls.build_full(config.dimension, workload.schema, **kwargs)
    else:
        if overlay == "cycloid":
            raise ValueError(
                f"overlay 'cycloid' is LORM-native; {name} runs on ring "
                "substrates only (chord, singlehop, record)"
            )
        if overlay is not None:
            kwargs["ring_factory"] = ring_factory_for(overlay, fanout=fanout, seed=seed)
        # The paper runs every DHT with the same population ("each DHT had
        # 2048 nodes"): at paper scale the 11-bit ring is exactly full,
        # otherwise it is sparse with population n = d * 2**d.
        if cls is LormService:
            service = cls.build_flat(
                config.dimension, workload.schema,
                population=config.population, **kwargs,
            )
        else:
            service = cls.build(
                config.chord_bits, config.population, workload.schema, **kwargs
            )
    if register:
        service.register_all(workload.resource_infos())
    return service


def build_services(
    config: ExperimentConfig,
    *,
    register: bool = True,
    seed_offset: int = 0,
    durability: "DurabilityPolicy | None" = None,
    overlay: str | None = None,
    fanout: int = 2,
) -> ServiceBundle:
    """Build all four services at ``config`` scale and load the workload.

    Each service comes from :func:`build_service`, which documents
    ``seed_offset`` (used by the churn sweep), ``durability`` (the axis
    swept by the availability and durability experiments) and
    ``overlay`` / ``fanout``.

    Infos are placed at their roots directly (unrouted) — byte-identical
    placement without paying 400k routed inserts.  Each service is loaded
    by its own ``register_all`` over the one provider-major info sequence
    (ordering contract there): the services share no state, so loading
    them one after the other leaves what interleaving them info by info
    did.

    With ``config.validate_invariants`` set, every service's churn entry
    points (and its overlay's ``repair_replication``) are wrapped by a
    :class:`~repro.sim.invariants.ChurnGuard`, so structural invariants
    and directory conservation are validated after every churn event —
    any violation raises
    :class:`~repro.sim.invariants.InvariantViolation` at the offending
    event instead of silently skewing the figures.
    """
    workload = build_workload(config)
    bundle = ServiceBundle(
        config,
        workload,
        *(
            build_service(
                config, name, workload=workload, register=False,
                overlay=overlay, fanout=fanout, durability=durability,
                seed_offset=seed_offset,
            )
            for name in SYSTEM_NAMES
        ),
    )
    if config.validate_invariants:
        for service in bundle.all():
            install_churn_guards(service)
    if register:
        # Materialised once, so the four services store the same objects.
        infos = tuple(workload.resource_infos())
        for service in bundle.all():
            service.register_all(infos)
    return bundle


def query_cases(bundle: ServiceBundle, count: int, label: str) -> list[tuple]:
    """``(query, truth)`` pairs shared by every system and sample: half
    point, half range 2-attribute queries from the ``<label>-point`` /
    ``<label>-range`` streams, with their full-workload ground truth."""
    attrs = min(2, bundle.config.num_attributes)
    n_range = count // 2
    workload = bundle.workload
    queries = list(
        workload.query_stream(count - n_range, attrs, QueryKind.POINT, label=f"{label}-point")
    ) + list(
        workload.query_stream(n_range, attrs, QueryKind.RANGE, label=f"{label}-range")
    )
    return [(query, workload.matching_providers_bruteforce(query)) for query in queries]
