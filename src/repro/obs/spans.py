"""Op spans: a lightweight trace context for cluster operations.

Every client operation (and every manager-initiated balancing op) opens
a *trace*: a causally-linked tree of spans, one per processing stage.
The context -- ``(trace_id, span_id)`` -- rides inside the rows of the
data-plane batch messages (and on the
:class:`~repro.cluster.transport.Message` envelope for manager ops), so
a receiving entity can parent its own span under the sender's.  Stage
names are fixed and documented in ``docs/observability.md``; an op's
span tree does not depend on the batch it travelled in:

========  =====================================================
path      stage sequence (root first)
========  =====================================================
insert    ``client.insert`` > ``server.route_insert`` >
          ``worker.apply_insert`` > ``tree.insert``
query     ``client.query`` > ``server.route_query`` >
          ``worker.query`` > ``tree.query`` (one per shard)
split     ``manager.split`` > ``worker.split``
migrate   ``manager.migrate``
restore   ``manager.restore``
========  =====================================================

Timing is *virtual* (the simulation clock).  A span is closed by the
entity that opened it; spans owned by a crashed worker may stay open
forever -- :meth:`TraceCollector.open_spans` reports them instead of
pretending they finished.  The load-bearing invariant (tested) is that
every **closed** child span ends at or before its parent's end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["SpanContext", "Span", "TraceCollector"]


@dataclass(frozen=True)
class SpanContext:
    """What travels on the wire: enough to parent a remote child span."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One named stage of a trace, with virtual start/end times."""

    name: str
    entity: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    tags: dict = field(default_factory=dict)

    @property
    def ctx(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def close(self, now: float, **tags) -> None:
        """Close the span at virtual time ``now`` (idempotent)."""
        if self.end is not None:
            return
        self.end = now
        if tags:
            self.tags.update(tags)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "entity": self.entity,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "tags": self.tags,
        }


class TraceCollector:
    """Accumulates spans; builds per-trace trees; exports JSON lines.

    Instances are strictly per-cluster (created by
    :class:`~repro.obs.Observability`) -- no module-level state, so two
    clusters in one process never share traces.
    """

    def __init__(self, clock, registry=None):
        self.clock = clock
        #: optional MetricsRegistry fed a ``volap_span_seconds`` stage
        #: duration histogram on every span close
        self.registry = registry
        self.spans: list[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- recording ---------------------------------------------------------

    def start(
        self,
        name: str,
        entity: str,
        parent: Optional[SpanContext] = None,
        **tags,
    ) -> Span:
        """Open a span; with no ``parent`` a fresh trace is started."""
        trace_id = parent.trace_id if parent is not None else next(self._trace_ids)
        span = Span(
            name=name,
            entity=entity,
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=parent.span_id if parent is not None else None,
            start=self.clock.now,
            tags=dict(tags),
        )
        self.spans.append(span)
        return span

    def finish(self, span: Optional[Span], **tags) -> None:
        """Close ``span`` now (no-op on ``None`` or already-closed)."""
        if span is None or span.end is not None:
            return
        span.close(self.clock.now, **tags)
        if self.registry is not None:
            self.registry.histogram(
                "volap_span_seconds", stage=span.name
            ).observe(span.end - span.start)

    # -- analysis ----------------------------------------------------------

    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, in creation order."""
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.trace_id, []).append(s)
        return out

    def trace(self, trace_id: int) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def children(self, span: Span) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.trace_id == span.trace_id and s.parent_id == span.span_id
        ]

    def roots(self, trace_id: Optional[int] = None) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.parent_id is None
            and (trace_id is None or s.trace_id == trace_id)
        ]

    def open_spans(self) -> list[Span]:
        """Spans never closed (e.g. owned by a crashed worker)."""
        return [s for s in self.spans if s.end is None]

    def stage_sequence(self, trace_id: int) -> list[str]:
        """Depth-first stage names of one trace's span tree."""
        out: list[str] = []

        def visit(span: Span) -> None:
            out.append(span.name)
            for child in sorted(self.children(span), key=lambda s: s.span_id):
                visit(child)

        for root in sorted(self.roots(trace_id), key=lambda s: s.span_id):
            visit(root)
        return out
