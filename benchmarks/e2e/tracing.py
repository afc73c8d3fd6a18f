"""Span recorder for the traced run.

Nothing under ``src/`` knows about this file: spans are recorded by
replacing *bound public callables* on already-built objects (a service's
``multi_query``, its overlay's ``lookup``, ...) with timing wrappers, from
the outside.  A span is ``(name, start_ns, end_ns, parent, op_id, count)``:
``parent`` is the index of the enclosing span (-1 for a root), ``op_id``
indexes :attr:`SpanRecorder.ops` (the benchmark operation that caused it)
and ``count`` is the work the call reported at that boundary (hops of a
lookup, nodes of a walk, rows of a join, matches of a query).

Spans stay in memory and are written once, by :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

__all__ = ["NullRecorder", "SpanRecorder", "SpanTable"]

_MISSING = object()

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op_id", "count")


class NullRecorder:
    """The untraced run's recorder: the op loops call it, it does nothing."""

    tracing = False

    def begin_op(self, lane: str, kind: str) -> None:
        pass


class SpanRecorder:
    """Records spans around wrapped callables and counts at tapped ones."""

    tracing = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        #: One ``(lane, kind)`` per benchmark operation; spans carry its index.
        self.ops: list[tuple[str, str]] = []
        #: Work counted at tapped callables: ``{(name, lane, kind): total}``.
        self.taps: dict[tuple[str, str, str], int] = {}
        #: Metric sources whose wrap target no longer exists.
        self.absent: set[str] = set()
        self._stack: list[int] = [-1]
        self._op_id = -1
        self._op = ("", "")
        self._patched: list[tuple[object, str, object]] = []
        #: Wall time one wrapped call spends outside its own span — what a
        #: parent's self time is inflated by per child (see calibrate()).
        self.outer_ns = 0.0

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def begin_op(self, lane: str, kind: str) -> None:
        """Start benchmark operation ``kind`` on ``lane``; later spans
        belong to it."""
        self._op_id = len(self.ops)
        self._op = (lane, kind)
        self.ops.append(self._op)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, obj: object, attr: str, replacement: object) -> None:
        self._patched.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, replacement)

    def wrap(self, obj: object, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every ``obj.attr(...)`` call.

        ``count(result, args)`` — when given — is the work the call did.
        A target that does not exist is noted in :attr:`absent` instead of
        failing: the metrics derived from it then read as absent.
        """
        fn = getattr(obj, attr, None)
        if fn is None:
            self.absent.add(name)
            return
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        now = perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = now()
            result = fn(*args, **kwargs)
            t1 = now()
            stack.pop()
            spans[idx] = (
                nid, t0, t1, stack[-1], self._op_id,
                count(result, args) if count is not None else 0,
            )
            return result

        self._patch(obj, attr, wrapper)

    def tap(self, obj: object, attr: str, name: str, count) -> None:
        """Add ``count(result)`` to ``taps[name, lane, kind]`` on every call of
        ``obj.attr`` — a counter without a span, for callables too small
        and too frequent to time (per-node directory reads)."""
        fn = getattr(obj, attr, None)
        if fn is None:
            self.absent.add(name)
            return
        taps = self.taps

        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = (name, *self._op)
            taps[key] = taps.get(key, 0) + count(result)
            return result

        self._patch(obj, attr, tapped)

    def unwrap_all(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            obj, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    def calibrate(self, calls: int = 20000) -> None:
        """Measure :attr:`outer_ns` on a wrapped no-op."""

        class _Probe:
            def noop(self) -> None:
                pass

        probe = _Probe()
        first = len(self.spans)
        self.wrap(probe, "noop", "trace.calibration")
        t0 = perf_counter()
        for _ in range(calls):
            probe.noop()
        wrapped_ns = (perf_counter() - t0) * 1e9 / calls
        self.unwrap_all()
        inside = sum(s[2] - s[1] for s in self.spans[first:]) / calls
        del self.spans[first:]
        self.outer_ns = max(0.0, wrapped_ns - inside)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: Path, **header) -> None:
        """Write the trace as one JSON document (see the README)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(
            header,
            span_fields=SPAN_FIELDS,
            names=self.names,
            ops=self.ops,
            outer_ns=self.outer_ns,
            taps=[[*key, total] for key, total in self.taps.items()],
            spans=self.spans,
        )
        with path.open("w") as handle:
            json.dump(document, handle, separators=(",", ":"))


class SpanTable:
    """Per ``(span name, lane)`` totals of a finished recording.

    ``self time`` of a span is its duration minus the durations of its
    direct children and minus ``outer_ns`` per child (the wrapper cost the
    children added to it).
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.names = rec.names
        self.taps = rec.taps
        self.lanes = sorted({lane for lane, _ in rec.ops})
        self._kinds = sorted({kind for _, kind in rec.ops})
        data = np.asarray(rec.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        name, start, end, parent, op, count = data.T
        dur = (end - start).astype(np.float64)
        child_sum = np.zeros(len(data))
        child_n = np.zeros(len(data))
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        np.add.at(child_n, parent[has_parent], 1.0)
        self._self = dur - child_sum - child_n * rec.outer_ns
        self._dur = dur
        self._count = count
        self._name = name
        self._root = ~has_parent
        op_lane = np.array([self.lanes.index(lane) for lane, _ in rec.ops], dtype=np.int64)
        op_kind = np.array([self._kinds.index(kind) for _, kind in rec.ops], dtype=np.int64)
        self._lane = op_lane[op] if len(data) else np.zeros(0, dtype=np.int64)
        self._kind = op_kind[op] if len(data) else np.zeros(0, dtype=np.int64)
        self._op_lane = op_lane
        self._op_kind = op_kind

    def _kind_ids(self, kinds) -> list[int]:
        return [self._kinds.index(kind) for kind in kinds if kind in self._kinds]

    def _mask(self, name: str, lane: str | None, kinds) -> np.ndarray | None:
        if name not in self.names:
            return None
        mask = self._name == self.names.index(name)
        if lane is not None:
            if lane not in self.lanes:
                return None
            mask &= self._lane == self.lanes.index(lane)
        if kinds is not None:
            mask &= np.isin(self._kind, self._kind_ids(kinds))
        return mask

    def _sum(self, values: np.ndarray, name, lane, kinds) -> float:
        mask = self._mask(name, lane, kinds)
        return float(values[mask].sum()) if mask is not None else 0.0

    def total_ns(self, name: str, lane: str | None = None, kinds=None) -> float:
        """Summed duration of the spans named ``name``."""
        return self._sum(self._dur, name, lane, kinds)

    def self_ns(self, name: str, lane: str | None = None, kinds=None) -> float:
        """Summed self time of the spans named ``name``."""
        return self._sum(self._self, name, lane, kinds)

    def work(self, name: str, lane: str | None = None, kinds=None) -> float:
        """Summed ``count`` of the spans named ``name``."""
        return self._sum(self._count, name, lane, kinds)

    def calls(self, name: str, lane: str | None = None, kinds=None) -> int:
        """Number of spans named ``name``."""
        mask = self._mask(name, lane, kinds)
        return int(mask.sum()) if mask is not None else 0

    def tapped(self, name: str, lane: str, kinds) -> int:
        """Work counted at the tap ``name`` during ``lane``'s ops of ``kinds``."""
        return sum(self.taps.get((name, lane, kind), 0) for kind in kinds)

    def ops(self, lane: str | None = None, kinds=None) -> int:
        """Benchmark operations begun on ``lane`` (of the given kinds)."""
        mask = np.ones(len(self._op_lane), dtype=bool)
        if lane is not None:
            if lane not in self.lanes:
                return 0
            mask &= self._op_lane == self.lanes.index(lane)
        if kinds is not None:
            mask &= np.isin(self._op_kind, self._kind_ids(kinds))
        return int(mask.sum())

    def root_ns(self, kinds) -> float:
        """Summed duration of the parentless spans of ops of ``kinds``."""
        return float(self._dur[self._root & np.isin(self._kind, self._kind_ids(kinds))].sum())

    def self_by_name(self, lane: str | None = None) -> dict[str, float]:
        """``{span name: summed self time}`` — the layer budget of a lane."""
        return {name: self.self_ns(name, lane) for name in self.names}
