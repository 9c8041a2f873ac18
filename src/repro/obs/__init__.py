"""End-to-end observability: op spans, metrics, and tree profiling.

This package is the one sanctioned way to instrument a run:

>>> cluster = VOLAPCluster(schema)                       # doctest: +SKIP
>>> obs = cluster.observe()          # spans + tree profiling on
>>> ...                              # run the workload
>>> snap = cluster.metrics.snapshot()        # documented schema
>>> obs.dump_events_jsonl("trace.jsonl")     # spans + snapshot
>>> print(obs.to_prometheus())               # text exposition

Three layers, one facade:

* **op spans** (:mod:`~repro.obs.spans`): every client insert/query and
  every manager split/migrate/restore opens a trace whose context rides
  the message envelopes, so one operation yields a causally-linked span
  tree across client, server, worker, and tree stages;
* **metrics registry** (:mod:`~repro.obs.metrics`): labelled counters,
  gauges, and fixed-bucket histograms.  The cluster's registry is always
  live (``cluster.metrics``) -- op latencies, splits, failovers, and
  per-entity series land in it whether or not spans are enabled;
* **tree profiler** (:mod:`~repro.obs.profiler`): per-operation index
  work (nodes visited, aggregate-cache hits vs leaf scans, splits and
  repacks), fed the ``OpStats`` every store op returns.

Disabled-mode guarantee: until :meth:`VOLAPCluster.observe` is called,
``transport.obs is None`` and every span/profile call site is behind a
single ``is not None`` check -- the same zero-overhead pattern as
``FaultPlan``.
"""

from __future__ import annotations

from typing import Optional

from .export import to_prometheus, write_events_jsonl
from .metrics import (
    Counter,
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiler import TreeOpProfile, TreeProfiler
from .spans import Span, SpanContext, TraceCollector

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanContext",
    "TraceCollector",
    "TreeOpProfile",
    "TreeProfiler",
    "to_prometheus",
    "write_events_jsonl",
]


class Observability:
    """Facade bundling a trace collector, metrics registry, and tree
    profiler for one cluster (or one standalone tree workload).

    Entities reach it through ``transport.obs`` (``None`` when
    disabled).  Everything here is per-instance state; two clusters
    observed in the same process never share spans or metrics.
    """

    def __init__(
        self,
        clock,
        registry: Optional[MetricsRegistry] = None,
        spans: bool = True,
        profile_trees: bool = True,
        message_metrics: bool = True,
    ):
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans_enabled = spans
        self.tracer = TraceCollector(clock, registry=self.registry)
        self.profiler = (
            TreeProfiler(registry=self.registry) if profile_trees else None
        )
        self.message_metrics = message_metrics

    # -- spans -------------------------------------------------------------

    def start_span(
        self,
        name: str,
        entity: str,
        parent: Optional[SpanContext] = None,
        **tags,
    ) -> Optional[Span]:
        """Open a span (``None`` when span recording is off)."""
        if not self.spans_enabled:
            return None
        return self.tracer.start(name, entity, parent=parent, **tags)

    def finish_span(self, span: Optional[Span], **tags) -> None:
        self.tracer.finish(span, **tags)

    # -- transport hook ----------------------------------------------------

    def on_message(self, msg) -> None:
        """Per-kind wire accounting; called by the transport when
        installed (one guarded call per send)."""
        if self.message_metrics:
            self.registry.counter("volap_messages_total", kind=msg.kind).inc()
            self.registry.counter(
                "volap_message_bytes_total", kind=msg.kind
            ).inc(msg.size)

    # -- tree profiling ----------------------------------------------------

    def record_tree_op(self, kind: str, stats, rows: int = 1) -> None:
        """Feed one tree operation's ``OpStats`` to the profiler."""
        if self.profiler is not None:
            self.profiler.record(kind, stats, rows)

    # -- export ------------------------------------------------------------

    def to_prometheus(self) -> str:
        return to_prometheus(self.registry)

    def dump_events_jsonl(self, path) -> int:
        """Spans plus a final metrics snapshot, one JSON object/line."""
        return write_events_jsonl(path, tracer=self.tracer, registry=self.registry)

    # -- convenience views -------------------------------------------------

    def traces(self):
        return self.tracer.traces()

    def span_tree(self, trace_id: int) -> list[str]:
        """Depth-first stage names of one trace (see docs/observability.md)."""
        return self.tracer.stage_sequence(trace_id)

    def open_spans(self):
        return self.tracer.open_spans()
