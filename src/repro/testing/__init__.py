"""Correctness-harness utilities shared by the CLI, CI and the test tree.

:mod:`repro.testing.differential` replays one seeded workload through all
four discovery systems against the brute-force oracle;
:mod:`repro.sim.invariants` supplies the per-event overlay checks it (and
the experiment runner's ``--invariants`` flag) relies on.
"""

from repro.testing.differential import (
    CheckReport,
    DifferentialReport,
    Divergence,
    run_check,
    run_differential,
)
from repro.testing.traces import TraceBoundViolation, assert_trace_bounds

__all__ = [
    "CheckReport",
    "DifferentialReport",
    "Divergence",
    "TraceBoundViolation",
    "assert_trace_bounds",
    "run_check",
    "run_differential",
]
