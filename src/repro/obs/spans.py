"""Structured span trees for routed queries.

A :class:`QueryTrace` is a tree of :class:`Span` objects mirroring how a
multi-attribute query decomposes on the wire::

    query                    one multi_query() call
    └── subquery             one per-attribute sub-query
        ├── lookup           one routed overlay lookup
        │   └── hop ...      one overlay message (src, dst, table choice)
        └── walk             one successor/cluster range walk
            └── hop ...

Each hop records the source and target node identifiers and which routing-
table entry carried the message (finger vs successor list on Chord;
cubical vs cyclic vs leaf-set edge on Cycloid).  Fault outcomes from the
:mod:`repro.sim.faults` path — drops, retransmission rounds, failover and
timeouts — attach to spans as point :class:`SpanEvent` annotations.

Timestamps come from a deterministic logical tick counter (one tick per
span boundary / hop / event), so replays of a seeded workload produce
byte-identical exports.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from repro.utils.validation import require

__all__ = ["SpanKind", "SpanEvent", "Span", "QueryTrace", "QueryTracer"]


class SpanKind(str, Enum):
    """Levels of the query span tree."""

    QUERY = "query"
    SUBQUERY = "subquery"
    REGISTER = "register"
    LOOKUP = "lookup"
    WALK = "walk"
    HOP = "hop"


#: Fault annotation kinds emitted by the overlays' fault paths.
FAULT_EVENT_KINDS = ("drop", "retry", "timeout", "failover", "truncated", "hedge")


@dataclass(frozen=True)
class SpanEvent:
    """A point annotation on a span (fault markers, mostly)."""

    time: float
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One timed operation in a query trace."""

    span_id: int
    kind: SpanKind
    name: str
    start: float
    end: float = -1.0
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: SpanKind) -> list["Span"]:
        """All descendant spans (self included) of ``kind``."""
        return [span for span in self.walk() if span.kind is kind]

    def hop_spans(self) -> list["Span"]:
        """Direct hop children, in wire order."""
        return [child for child in self.children if child.kind is SpanKind.HOP]


@dataclass
class QueryTrace:
    """One complete span tree, rooted at the outermost traced operation."""

    trace_id: int
    root: Span

    def spans_of(self, kind: SpanKind) -> list[Span]:
        """All spans of ``kind``, depth-first order."""
        return self.root.find(kind)

    def hop_count(self) -> int:
        """Total overlay messages captured by this trace."""
        return len(self.root.find(SpanKind.HOP))

    def events_of(self, kind: str) -> list[SpanEvent]:
        """All point annotations of ``kind`` across the whole tree."""
        return [
            event
            for span in self.root.walk()
            for event in span.events
            if event.kind == kind
        ]

    @property
    def faulted(self) -> bool:
        """True when any span carries a fault annotation."""
        return any(
            event.kind in FAULT_EVENT_KINDS
            for span in self.root.walk()
            for event in span.events
        )


class QueryTracer:
    """Builds span trees from begin/end calls on a stack.

    Timestamps are a deterministic logical tick counter that advances by
    one on every span boundary, hop and event — replayable and
    machine-independent.

    Parameters
    ----------
    max_traces:
        Retained completed+active trace cap; the oldest trace is dropped
        when exceeded.
    """

    def __init__(self, *, max_traces: int = 256) -> None:
        require(max_traces >= 1, "max_traces must be >= 1")
        self._ticks = 0
        self.max_traces = max_traces
        self.traces: list[QueryTrace] = []
        self._stack: list[Span] = []
        self._next_span_id = 0
        self._next_trace_id = 0

    def _now(self) -> float:
        self._ticks += 1
        return self._ticks

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any traced operation."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def begin(self, kind: SpanKind | str, name: str, **attrs: Any) -> Span:
        """Open a span; it becomes a child of the innermost open span, or
        the root of a new :class:`QueryTrace` when none is open."""
        span = Span(
            span_id=self._next_span_id,
            kind=SpanKind(kind),
            name=name,
            start=self._now(),
            attrs=attrs,
        )
        self._next_span_id += 1
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.traces.append(QueryTrace(trace_id=self._next_trace_id, root=span))
            self._next_trace_id += 1
            if len(self.traces) > self.max_traces:
                del self.traces[0]
        self._stack.append(span)
        return span

    def end(self) -> Span:
        """Close the innermost open span, stamping its end time."""
        require(bool(self._stack), "end() without a matching begin()")
        span = self._stack.pop()
        span.end = self._now()
        return span

    @contextmanager
    def span(self, kind: SpanKind | str, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span(...) as s`` — begin/end bracket; an escaping
        exception is noted in ``s.attrs["error"]`` before re-raising."""
        span = self.begin(kind, name, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self.end()

    # ------------------------------------------------------------------
    # Annotations
    # ------------------------------------------------------------------
    def event(self, kind: str, span: Span | None = None, **detail: Any) -> SpanEvent:
        """Attach a point annotation to ``span`` (default: the innermost
        open span) — fault markers: drop / retry / timeout / failover."""
        target = span if span is not None else self.current
        require(target is not None, "event() outside any span")
        assert target is not None
        ev = SpanEvent(time=self._now(), kind=kind, detail=detail)
        target.events.append(ev)
        return ev

    def hop(self, src: Any, dst: Any, choice: str, **attrs: Any) -> Span:
        """Record one overlay message as an instantaneous hop span under
        the innermost open span.

        ``choice`` names the routing-table entry that carried the message
        ("finger", "successor-list", "cubical", "inside-leaf", ...).
        """
        require(bool(self._stack), "hop() outside any span")
        now = self._now()
        span = Span(
            span_id=self._next_span_id,
            kind=SpanKind.HOP,
            name="hop",
            start=now,
            end=now,
            attrs={"src": src, "dst": dst, "choice": choice, **attrs},
        )
        self._next_span_id += 1
        self._stack[-1].children.append(span)
        return span
