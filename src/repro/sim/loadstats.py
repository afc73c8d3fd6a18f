"""Per-node load accounting and imbalance reducers.

The paper's metrics (hops, visited nodes, directory sizes) average over
the whole system and so cannot see *who* does the work.  Under skewed
popularity that is the whole story: SWORD's attribute-rooted directories
put a constant fraction of all queries on a handful of nodes.  This
module measures that concentration:

* :class:`LoadStats` — a per-node counter sink services write into while
  attached (mirroring the tracing switch: detached, the hot paths pay a
  single ``is None`` check and draw nothing);
* :class:`LoadWindow` — a frozen snapshot of one query window (serve
  counts per node, routing counts per node, serve counts per attribute);
* reducers — :func:`max_mean_ratio`, :func:`gini` and :func:`top_share`
  over a count mapping, always including the zero-load members of the
  population.

*Serve* load counts directory answers (the node resolved a sub-query
from its directory — one count per visited node); *route* load counts
forwarded messages (intermediate nodes on a lookup path).  The hotspot
gate is computed on serve load; route load is reported alongside.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require

__all__ = [
    "LoadStats",
    "LoadWindow",
    "gini",
    "max_mean_ratio",
    "top_share",
]


def _fill(counts: Mapping[object, float], population: int) -> np.ndarray:
    """The full per-member load vector, zero-load members included."""
    require(population >= 1, "population must be >= 1")
    require(
        len(counts) <= population,
        f"{len(counts)} loaded members exceed population {population}",
    )
    values = np.zeros(population)
    if counts:
        values[: len(counts)] = np.fromiter(counts.values(), dtype=float, count=len(counts))
    return values


def max_mean_ratio(counts: Mapping[object, float], population: int) -> float:
    """``max(load) / mean(load)`` over the whole population.

    1.0 is perfect balance; ``population`` is the worst case (one node
    does everything).  NaN when no load was recorded at all.
    """
    values = _fill(counts, population)
    total = values.sum()
    if total <= 0.0:
        return float("nan")
    return float(values.max() / (total / population))


def gini(counts: Mapping[object, float], population: int) -> float:
    """Gini coefficient of the load distribution (0 = equal, -> 1 = one
    node does everything), zero-load members included."""
    values = np.sort(_fill(counts, population))
    total = values.sum()
    if total <= 0.0:
        return float("nan")
    n = values.size
    # Standard rank formulation: G = (2 * sum(i * x_i) / (n * total)) - (n + 1) / n.
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks * values).sum() / (n * total) - (n + 1) / n)


def top_share(counts: Mapping[object, float], k: int) -> float:
    """The fraction of total load carried by the ``k`` busiest members."""
    require(k >= 1, "k must be >= 1")
    if not counts:
        return float("nan")
    values = np.sort(np.fromiter(counts.values(), dtype=float, count=len(counts)))
    total = values.sum()
    if total <= 0.0:
        return float("nan")
    return float(values[-k:].sum() / total)


@dataclass(frozen=True)
class LoadWindow:
    """One sampled query window of per-node load."""

    #: Directory answers per node uid.
    serves: dict = field(default_factory=dict)
    #: Forwarded (intermediate-hop) messages per node uid.
    routes: dict = field(default_factory=dict)
    #: Directory answers per attribute name.
    by_attribute: dict = field(default_factory=dict)

    @property
    def total_serves(self) -> float:
        """All directory answers in the window."""
        return float(sum(self.serves.values()))

    def max_mean_ratio(self, population: int) -> float:
        """Serve-load max/mean over ``population`` nodes."""
        return max_mean_ratio(self.serves, population)

    def gini(self, population: int) -> float:
        """Serve-load Gini coefficient over ``population`` nodes."""
        return gini(self.serves, population)

    def top_share(self, k: int) -> float:
        """Serve-load share of the ``k`` busiest nodes."""
        return top_share(self.serves, k)

    def merged(self, other: "LoadWindow") -> "LoadWindow":
        """The element-wise sum of two windows."""
        serves = Counter(self.serves)
        serves.update(other.serves)
        routes = Counter(self.routes)
        routes.update(other.routes)
        attrs = Counter(self.by_attribute)
        attrs.update(other.by_attribute)
        return LoadWindow(dict(serves), dict(routes), dict(attrs))


class LoadStats:
    """Per-node load sink, sampled in windows.

    Services write through :meth:`record_serves` /
    :meth:`record_route_path` while attached via
    ``service.attach_load_stats``; an experiment calls :meth:`take_window`
    once per query window to harvest (and reset) the window counters.
    """

    def __init__(self) -> None:
        self._serves: Counter = Counter()
        self._routes: Counter = Counter()
        self._attrs: Counter = Counter()

    # -- recording (hot path while attached) ---------------------------
    def record_serves(self, node_uids: Iterable[object], attribute: str) -> None:
        """Every node of ``node_uids`` answered (a range walk's visits)."""
        serves = self._serves
        n = 0
        for uid in node_uids:
            serves[uid] += 1
            n += 1
        self._attrs[attribute] += n

    def record_route_path(self, path: Iterable[object]) -> None:
        """Count the intermediate nodes of a lookup ``path`` (requester
        first, owner last) as routing load."""
        nodes = list(path)
        routes = self._routes
        for uid in nodes[1:-1]:
            routes[uid] += 1

    # -- harvesting ----------------------------------------------------
    def take_window(self) -> LoadWindow:
        """The current window's counts; resets the window."""
        window = LoadWindow(dict(self._serves), dict(self._routes), dict(self._attrs))
        self._serves.clear()
        self._routes.clear()
        self._attrs.clear()
        return window
