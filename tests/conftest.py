"""Shared fixtures: small overlays, schemas and workloads.

Everything here is deterministic (fixed seeds) and sized for sub-second
construction; paper-scale runs live in ``benchmarks/``.
"""

from __future__ import annotations

import inspect
import os
import random
import textwrap

import pytest
from hypothesis import HealthCheck, settings

from repro.experiments.common import ServiceBundle, build_services
from repro.experiments.config import SMOKE_CONFIG, ExperimentConfig
from repro.overlay.chord import ChordRing
from repro.overlay.cycloid import CycloidId, CycloidOverlay
from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload

# Hypothesis profiles: "dev" keeps property suites laptop-fast; "ci" runs more
# examples and longer state machines, derandomized for reproducible builds.
# Select with HYPOTHESIS_PROFILE=ci (the GitHub Actions workflow does).
settings.register_profile(
    "dev",
    deadline=None,
    max_examples=15,
    stateful_step_count=5,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    stateful_step_count=20,
    derandomize=True,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def rng() -> random.Random:
    """A deterministic stdlib RNG for ad-hoc test sampling."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def full_ring() -> ChordRing:
    """A fully populated 6-bit (64-node) Chord ring."""
    ring = ChordRing(6)
    ring.build_full()
    return ring


@pytest.fixture
def sparse_ring() -> ChordRing:
    """A 7-bit ring with 40 scattered nodes."""
    ring = ChordRing(7)
    r = random.Random(7)
    ring.build(r.sample(range(128), 40))
    return ring


@pytest.fixture
def full_overlay() -> CycloidOverlay:
    """A fully populated dimension-4 Cycloid (64 nodes)."""
    overlay = CycloidOverlay(4)
    overlay.build_full()
    return overlay


@pytest.fixture
def sparse_overlay() -> CycloidOverlay:
    """A dimension-4 Cycloid with 40 of 64 positions occupied."""
    overlay = CycloidOverlay(4)
    r = random.Random(4)
    all_ids = [CycloidId(k, a) for a in range(16) for k in range(4)]
    overlay.build(r.sample(all_ids, 40))
    return overlay


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    """Sub-second experiment configuration with the paper's shape."""
    return SMOKE_CONFIG.scaled(
        num_attributes=8,
        infos_per_attribute=30,
        max_query_attributes=3,
        num_requesters=5,
        queries_per_requester=4,
        num_range_queries=30,
        num_churn_requests=60,
        churn_rates=(0.2, 0.5),
    )


@pytest.fixture(scope="session")
def schema(tiny_config: ExperimentConfig) -> AttributeSchema:
    """The tiny config's attribute schema."""
    return tiny_config.schema()


@pytest.fixture(scope="session")
def workload(tiny_config: ExperimentConfig) -> GridWorkload:
    """The tiny config's workload."""
    return GridWorkload(
        schema=tiny_config.schema(),
        infos_per_attribute=tiny_config.infos_per_attribute,
        seed=tiny_config.seed,
        mean_span_fraction=tiny_config.mean_span_fraction,
    )


@pytest.fixture(scope="session")
def loaded_bundle(tiny_config: ExperimentConfig) -> ServiceBundle:
    """All four services built at tiny scale with the workload registered.

    Session-scoped: tests must not mutate overlay membership (churn tests
    build their own bundles).
    """
    return build_services(tiny_config)


@pytest.fixture
def assert_invariants():
    """Callable validating every service's overlay in a bundle."""
    from repro.sim.invariants import check_overlay, overlay_of

    def _check(bundle: ServiceBundle) -> None:
        for service in bundle.all():
            check_overlay(overlay_of(service))

    return _check


@pytest.fixture(scope="session")
def check_report():
    """One shared (seed-0, scaled-down) run of the ``repro check`` harness."""
    from repro.testing.differential import run_check

    return run_check(seed=0, num_queries=24, churn_events=24)


@pytest.fixture
def plant(monkeypatch):
    """``plant(cls, name, edit)`` installs a bug-zoo plant: ``edit`` is the
    replacement method, or ``(old, new)`` pairs edited into the method's
    own source (each ``old`` must occur once) and recompiled in its module."""

    def install(cls: type, name: str, edit) -> None:
        if not callable(edit):
            function = getattr(cls, name)
            source = textwrap.dedent(inspect.getsource(function))
            for old, new in edit:
                assert source.count(old) == 1, f"plant anchor {old!r} not unique in {name}"
                source = source.replace(old, new)
            scope: dict = {}
            code = compile(source, inspect.getsourcefile(function), "exec")
            exec(code, function.__globals__, scope)
            edit = scope[name]
        monkeypatch.setattr(cls, name, edit)

    return install
