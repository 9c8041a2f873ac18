"""Cluster-level metrics: throughput, latency, balance, and balancing ops.

Collects exactly what the paper's figures report: per-operation
latencies split by kind and coverage band (Figs 7b, 8b, 9a), completed
operation counts over virtual time (throughput, Figs 7a, 8a), shards
searched per query (Fig 9b), per-worker data sizes over time (Fig 6),
and cumulative split/migration counts (Fig 6, right axis).

Every record also lands in a :class:`~repro.obs.metrics.MetricsRegistry`
(``volap_ops_total``, ``volap_op_latency_seconds``, ``volap_splits_total``,
...).  Each ``ClusterStats`` owns its registry unless one is passed in,
so two clusters in one process never share metric state -- there is
deliberately no module-level cache anywhere in this module (the
analysis helpers ``select()`` / ``degraded()`` recompute from
``self.ops`` on every call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry

__all__ = ["OpRecord", "InsertRecord", "ClusterStats"]


@dataclass(slots=True)
class OpRecord:
    """One completed client operation.  ``ClusterStats.ops`` keeps every
    one for the life of the cluster, hence the slots: no per-record
    ``__dict__``."""

    kind: str  # "insert" | "query"
    submit_time: float
    complete_time: float
    coverage: float = float("nan")
    shards_searched: int = 0
    result_count: int = 0
    #: False when the operation failed (retry exhaustion / insert_failed)
    ok: bool = True
    #: achieved coverage fraction: 1.0 for complete answers, < 1.0 when
    #: a query hit its per-worker deadline and returned a partial result
    achieved: float = 1.0
    #: client-side send attempts (1 = no retransmits)
    attempts: int = 1
    #: achieved read staleness (seconds): 0.0 for primary-served
    #: queries, the worst estimated replica lag among the shards a
    #: bounded-staleness query read from a replica
    staleness: float = 0.0
    #: which tier answered a query: "tree" (descent), "rollup"
    #: (server-resident cube slabs), or "hybrid" (cube + tree tail)
    source: str = "tree"

    @property
    def latency(self) -> float:
        return self.complete_time - self.submit_time


class InsertRecord:
    """An acked insert's :class:`OpRecord`, read the same way.  Every
    acked row keeps one for the life of the cluster, so it holds only
    its times and attempts (56 bytes where an ``OpRecord`` takes 120);
    the fields an acked insert leaves at their defaults are constants."""

    __slots__ = ("submit_time", "complete_time", "attempts")
    kind, ok, achieved, coverage = "insert", True, 1.0, float("nan")
    shards_searched = result_count = 0
    staleness, source = 0.0, "tree"
    latency = OpRecord.latency

    def __init__(self, submit_time: float, complete_time: float, attempts: int):
        self.submit_time, self.complete_time = submit_time, complete_time
        self.attempts = attempts


class ClusterStats:
    """Accumulates operation records and system snapshots."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: per-cluster metrics registry (``cluster.metrics``); always
        #: live, created here unless the caller shares one in
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ops: list[OpRecord] = []
        self.splits = 0
        self.migrations = 0
        #: (time, {worker_id: item_count}) snapshots for Fig 6
        self.worker_sizes: list[tuple[float, dict[int, int]]] = []
        #: (time, kind) of balancing operations
        self.balance_events: list[tuple[float, str]] = []
        #: operations that gave up (insert_failed / retry exhaustion)
        self.failures = 0
        #: (time, worker_id, shards_restored) per declared worker failure
        self.failovers: list[tuple[float, int, int]] = []
        #: (time, shard_id, new_primary_worker) per replica promotion
        self.promotions: list[tuple[float, int, int]] = []
        #: (kind, ok) -> the instruments every such op updates, looked
        #: up in the registry by its first op (see :meth:`record_op`)
        self._op_series: dict[tuple[str, bool], tuple] = {}

    # -- recording -----------------------------------------------------------

    def record_op(self, rec: OpRecord) -> None:
        """Keep ``rec`` and count it.  The instruments every op of one
        kind and outcome updates are looked up once, by the first such
        op, as the lazily registered ones are still registered by the
        first op that needs them."""
        self.ops.append(rec)
        if not rec.ok:
            self.failures += 1
        r = self.registry
        series = self._op_series.get((rec.kind, rec.ok))
        if series is None:
            series = self._op_series[rec.kind, rec.ok] = (
                r.counter("volap_ops_total", kind=rec.kind, ok=rec.ok),
                r.histogram("volap_op_latency_seconds", kind=rec.kind),
                r.histogram("volap_query_shards_searched", buckets=DEFAULT_COUNT_BUCKETS)
                if rec.kind == "query"
                else None,
            )
        ops, latency, searched = series
        ops.inc()
        latency.observe(rec.latency)
        if rec.attempts > 1:
            r.counter("volap_op_retransmits_total", kind=rec.kind).inc(
                rec.attempts - 1
            )
        if rec.kind == "query":
            if rec.ok and rec.achieved < 1.0:
                r.counter("volap_degraded_queries_total").inc()
            searched.observe(rec.shards_searched)
            if rec.staleness > 0.0:
                # registered lazily so replication-free runs export the
                # exact metric families they always did
                r.histogram(
                    "volap_read_staleness_seconds",
                    help="achieved staleness of replica-served reads",
                ).observe(rec.staleness)

    def record_failover(self, time: float, worker_id: int, shards: int) -> None:
        self.failovers.append((time, worker_id, shards))
        self.registry.counter("volap_failovers_total").inc()
        self.registry.counter("volap_shards_lost_total").inc(shards)

    def record_promotion(self, time: float, shard_id: int, worker_id: int) -> None:
        """A replica was promoted to primary (metadata-flip failover)."""
        self.promotions.append((time, shard_id, worker_id))
        self.registry.counter("volap_promotions_total").inc()

    def record_split(self, time: float) -> None:
        self.splits += 1
        self.balance_events.append((time, "split"))
        self.registry.counter("volap_splits_total").inc()

    def record_migration(self, time: float) -> None:
        self.migrations += 1
        self.balance_events.append((time, "migration"))
        self.registry.counter("volap_migrations_total").inc()

    def snapshot_workers(self, time: float, sizes: dict[int, int]) -> None:
        self.worker_sizes.append((time, dict(sizes)))
        for wid, items in sizes.items():
            self.registry.gauge("volap_worker_items", worker=wid).set(items)

    # -- analysis -----------------------------------------------------------

    def select(
        self,
        kind: Optional[str] = None,
        coverage_band: Optional[tuple[float, float]] = None,
        since: float = 0.0,
        until: float = float("inf"),
    ) -> list[OpRecord]:
        out = []
        for r in self.ops:
            if kind is not None and r.kind != kind:
                continue
            if coverage_band is not None and not (
                coverage_band[0] <= r.coverage <= coverage_band[1]
            ):
                continue
            if not (since <= r.submit_time <= until):
                continue
            out.append(r)
        return out

    def degraded(
        self, since: float = 0.0, until: float = float("inf")
    ) -> list[OpRecord]:
        """Queries that completed with partial (deadline-bounded) coverage."""
        return [
            r
            for r in self.select(kind="query", since=since, until=until)
            if r.ok and r.achieved < 1.0
        ]

    def throughput(self, records: list[OpRecord]) -> float:
        """Completed operations per virtual second."""
        if not records:
            return 0.0
        t0 = min(r.submit_time for r in records)
        t1 = max(r.complete_time for r in records)
        span = t1 - t0
        return len(records) / span if span > 0 else float("inf")

    def latency_stats(self, records: list[OpRecord]) -> dict[str, float]:
        if not records:
            return {
                "mean": float("nan"),
                "p50": float("nan"),
                "p95": float("nan"),
                "max": float("nan"),
            }
        lat = np.array([r.latency for r in records])
        return {
            "mean": float(lat.mean()),
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "max": float(lat.max()),
        }

    def balance_series(self) -> list[tuple[float, int, int, int]]:
        """(time, min_size, max_size, migrations_so_far) rows for Fig 6."""
        out = []
        mig = 0
        events = sorted(self.balance_events)
        ei = 0
        for t, sizes in self.worker_sizes:
            while ei < len(events) and events[ei][0] <= t:
                if events[ei][1] == "migration":
                    mig += 1
                ei += 1
            if sizes:
                out.append((t, min(sizes.values()), max(sizes.values()), mig))
        return out
