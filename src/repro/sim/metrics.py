"""Metric collection and the percentile summaries used in Figure 3.

The paper reports, for directory sizes, the mean together with the 1st and
99th percentiles; for hop counts it reports means.  :func:`summarize`
computes that summary from raw samples, and
:class:`MetricsRegistry` is the per-operation sample log the services
write into.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = ["SummaryStats", "summarize", "MetricsRegistry"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean / percentile summary of a sample, as plotted in Figure 3."""

    count: int
    mean: float
    std: float
    p01: float
    median: float
    p99: float
    maximum: float


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Summary statistics of ``samples`` (1st/99th percentiles included).

    Percentiles use linear interpolation, matching ``numpy`` defaults.

    Examples
    --------
    >>> summarize([1, 2, 3]).mean
    2.0
    """
    if len(samples) == 0:
        nan = float("nan")
        return SummaryStats(0, nan, nan, nan, nan, nan, nan)
    arr = np.asarray(samples, dtype=float)
    p01, median, p99 = np.percentile(arr, [1, 50, 99])
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        p01=float(p01),
        median=float(median),
        p99=float(p99),
        maximum=float(arr.max()),
    )


class MetricsRegistry:
    """Named sample series.

    Services record one sample per operation (e.g. ``query.hops``);
    experiments read them back as :class:`SummaryStats`.
    """

    def __init__(self) -> None:
        #: One flat ``array('d')`` per series: 8 bytes a sample, where a
        #: list of boxed floats costs 32 — a long run records two samples
        #: per sub-query for as long as it lives.
        self._samples: defaultdict[str, array] = defaultdict(partial(array, "d"))

    def record(self, name: str, value: float) -> None:
        """Append one sample to series ``name``."""
        self._samples[name].append(value)

    def record_pair(
        self, name1: str, value1: float, name2: str, value2: float
    ) -> None:
        """Append one sample to each of two series in a single call.

        The per-query hot paths emit exactly two samples per operation
        (hops + visited nodes); taking them as four direct arguments
        halves the method-call overhead of two :meth:`record` calls
        without the per-call tuple packing a ``record_many(pairs)`` shape
        would impose on the caller.
        """
        samples = self._samples
        samples[name1].append(value1)
        samples[name2].append(value2)

    def samples(self, name: str) -> list[float]:
        """Raw samples recorded under ``name``."""
        return list(self._samples[name])

    def last(self, name: str) -> float | None:
        """The most recent sample of series ``name`` (None when empty).

        Used by the trace/metrics conservation checks: a traced query's
        span totals must equal the sample the service recorded for it.
        """
        series = self._samples.get(name)
        return series[-1] if series else None

