"""n-scaling figure on the compact array core (extension figure).

The paper stops every figure at n = 2048; the single-hop literature
(Monnerat & Amorim) and ReCord argue their tradeoffs at 10^5–10^6 peers.
This experiment sweeps :class:`~repro.overlay.arraystore.CompactChordRing`
populations up to that regime and reports, per point:

* mean / p99 routed lookup hops (the stabilized-Chord ``(1/2) log2 n``
  regime Figure 4's curves are built on),
* maintenance messages per churn event (the object ring's cost model),
* construction, query and churn wall-clock and peak memory (tracemalloc
  across build + the query batch + churn, plus process peak RSS),

so the first 100k–1M-node figure of the repo is directly comparable with
the n=2048 object-overlay results and carries its own resource budget for
the CI smoke gate (``repro scale --budget-seconds/--budget-mb``).
"""

from __future__ import annotations

import json
import math
import platform
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.analysis.models import AnalysisCurve
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import FigureResult
from repro.overlay.arraystore import CompactChordRing
from repro.utils.seeding import SeedFactory

__all__ = ["ScalePoint", "ScaleResult", "run_scale", "scale_point"]


@dataclass(frozen=True)
class ScalePoint:
    """Measured scaling numbers for one population ``n``."""

    num_nodes: int
    bits: int
    mean_hops: float
    p99_hops: float
    half_log2_n: float
    maintenance_per_event: float
    build_seconds: float
    query_seconds: float
    churn_seconds: float
    state_mb: float
    peak_tracemalloc_mb: float
    rss_max_mb: float | None


def _max_rss_kb() -> int | None:
    """Peak RSS of this process in KiB (None where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    return rss // 1024 if platform.system() == "Darwin" else rss


def scale_point(config: ExperimentConfig, num_nodes: int) -> ScalePoint:
    """Build + measure one population point (module-level, so it pickles).

    All randomness derives from ``config.seed`` and ``num_nodes``, so a
    point's result is identical whether it runs serially or in a sharded
    worker process.
    """
    seeds = SeedFactory(config.seed).fork(f"scale:{num_nodes}")
    tracemalloc.start()
    try:
        started = time.perf_counter()
        ring = CompactChordRing.sampled(
            num_nodes, seed=seeds.child_seed("construct")
        )
        ring.build_fingers()
        build_seconds = time.perf_counter() - started

        started = time.perf_counter()
        hops = ring.measure_lookups(config.scale_queries, seeds.numpy("queries"))
        query_seconds = time.perf_counter() - started

        # Churn: join/leave/fail round-robin, counting the object ring's
        # maintenance-message formulas per event.
        churn_rng = seeds.numpy("churn")
        before = ring.maintenance_messages
        events = config.scale_churn_events
        started = time.perf_counter()
        for i in range(events):
            if i % 3 == 0:
                node_id = int(churn_rng.integers(ring.size))
                while node_id in ring:
                    node_id = int(churn_rng.integers(ring.size))
                ring.join(node_id)
            else:
                victim = int(ring.ids[churn_rng.integers(ring.num_nodes)])
                (ring.leave if i % 3 == 1 else ring.fail)(victim)
        churn_seconds = time.perf_counter() - started
        maintenance_per_event = (
            (ring.maintenance_messages - before) / events if events else 0.0
        )
        state_mb = ring.state_bytes() / 1e6
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    rss = _max_rss_kb()
    return ScalePoint(
        num_nodes=num_nodes,
        bits=ring.bits,
        mean_hops=float(np.mean(hops)),
        p99_hops=float(np.percentile(hops, 99)),
        half_log2_n=0.5 * math.log2(num_nodes),
        maintenance_per_event=maintenance_per_event,
        build_seconds=build_seconds,
        query_seconds=query_seconds,
        churn_seconds=churn_seconds,
        state_mb=state_mb,
        peak_tracemalloc_mb=peak / 1e6,
        rss_max_mb=None if rss is None else rss / 1024,
    )


class ScaleResult(FigureResult):
    """A :class:`FigureResult` that also persists the raw scaling table.

    :meth:`save` writes the usual ``scale.csv`` / ``scale.txt`` plus
    ``scale_table.json`` — the machine-readable artifact the CI smoke
    step uploads (strict JSON: ``allow_nan=False``).
    """

    def __init__(self, points: list[ScalePoint], **kwargs) -> None:
        super().__init__(**kwargs)
        self.points = points

    def table_json(self) -> str:
        """The per-point table as strict JSON (no NaN/Infinity tokens)."""
        rows = [asdict(p) for p in self.points]
        for row in rows:
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    row[key] = None
        return json.dumps({"points": rows}, indent=2, allow_nan=False) + "\n"

    def over_budget(
        self,
        elapsed: float,
        budget_seconds: float | None = None,
        budget_mb: float | None = None,
    ) -> list[str]:
        """One line per blown budget (``None`` = unbudgeted): the sweep's
        wall-clock ``elapsed`` and the worst point's peak traced memory."""
        violations = []
        if budget_seconds is not None and elapsed > budget_seconds:
            violations.append(
                f"sweep took {elapsed:.1f}s (budget {budget_seconds:.1f}s)"
            )
        if budget_mb is not None:
            worst = max(self.points, key=lambda p: p.peak_tracemalloc_mb)
            if worst.peak_tracemalloc_mb > budget_mb:
                violations.append(
                    f"n={worst.num_nodes} peaked at "
                    f"{worst.peak_tracemalloc_mb:.1f} MB traced "
                    f"(budget {budget_mb:.1f} MB)"
                )
        return violations

    def save(self, directory: str | Path) -> Path:
        csv_path = super().save(directory)
        (Path(directory) / f"{self.figure_id}_table.json").write_text(
            self.table_json()
        )
        return csv_path


def run_scale(config: ExperimentConfig, *, workers: int | None = None) -> ScaleResult:
    """Hops and maintenance cost vs population n on the compact core.

    ``workers`` shards the population points over processes under
    :func:`~repro.experiments.runner.run_figures`' convention: ``None``
    serial, 0 = the CPU count.
    """
    sizes = [int(n) for n in config.scale_sizes]
    if workers is None:
        points = [scale_point(config, n) for n in sizes]
    else:
        from repro.experiments.runner import run_points_parallel

        points = run_points_parallel(
            scale_point, sizes, config, max_workers=workers or None
        )

    xs = tuple(float(p.num_nodes) for p in points)
    result = ScaleResult(
        points,
        figure_id="scale",
        title="Chord routing and maintenance cost vs population n",
        x_label="nodes n",
        y_label="hops / messages",
    )
    result.add(AnalysisCurve("Chord hops", xs, tuple(p.mean_hops for p in points)))
    result.add(
        AnalysisCurve("Chord hops p99", xs, tuple(p.p99_hops for p in points))
    )
    result.add(
        AnalysisCurve(
            "Analysis 0.5*log2(n)", xs, tuple(p.half_log2_n for p in points)
        )
    )
    result.add(
        AnalysisCurve(
            "maintenance msgs/event",
            xs,
            tuple(p.maintenance_per_event for p in points),
        )
    )
    for p in points:
        rss = "n/a" if p.rss_max_mb is None else f"{p.rss_max_mb:.0f} MB RSS"
        result.notes.append(
            f"n={p.num_nodes}: built in {p.build_seconds:.2f}s, "
            f"{config.scale_queries} lookups in {p.query_seconds:.2f}s, "
            f"{config.scale_churn_events} churn events in {p.churn_seconds:.2f}s, "
            f"ring state {p.state_mb:.1f} MB, peak "
            f"{p.peak_tracemalloc_mb:.1f} MB traced, {rss}"
        )
    result.notes.append(
        "compact array core (CompactChordRing); routing is hop-for-hop "
        "identical to ChordRing's fault-free lookup on the same membership"
    )
    return result
