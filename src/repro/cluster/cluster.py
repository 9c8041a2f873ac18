"""The VOLAP cluster facade: wiring, bootstrap, elasticity, bulk load.

Assembles the full system of paper Fig. 2 -- ``m`` servers, ``p``
workers, a Zookeeper and a manager over a shared simulated transport --
and exposes the operations the experiments need: bootstrap loading,
client sessions, elastic worker addition, bulk ingestion, and virtual
time control.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from ..core.config import TreeConfig
from ..core.hilbert_trees import HilbertPDCTree
from ..hilbert.compact_hilbert import lexsort_words
from ..hilbert.id_expansion import HilbertKeyMapper
from ..obs import MetricsRegistry, Observability
from ..olap.query import ROUTING_MODES, Query
from ..olap.records import RecordBatch, concat_batches
from ..olap.schema import Schema
from ..runtime import make_runtime
from .balancer import BalancerPolicy, ThresholdPolicy
from .client import ClientSession, query_batch, query_record
from .cost import CostModel
from .faults import CheckpointStore, FaultInjector, FaultPlan, RetryPolicy
from .manager import Manager
from .router import QueryResult, RollupConfig
from .server import Server
from .simclock import SimClock
from .stats import ClusterStats
from .stream import lag
from .transport import Entity, LatencyModel, Message
from .wire import BulkInsert, i64
from .worker import WORKER_THREADS, Worker
from .zookeeper import Zookeeper

__all__ = ["ClusterConfig", "VOLAPCluster", "QueryResult", "RollupConfig"]

#: how often (virtual seconds) workers publish their stats to Zookeeper
STATS_PERIOD = 0.5


@dataclass(frozen=True)
class ClusterConfig:
    """Static configuration of a simulated VOLAP deployment."""

    num_workers: int = 4
    num_servers: int = 2
    sync_period: float = 3.0  # paper default (Section IV-F)
    tree_config: TreeConfig = field(
        default_factory=lambda: TreeConfig(leaf_capacity=64, fanout=16)
    )
    cost: CostModel = field(default_factory=CostModel)
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: load-balancing strategy (see repro.cluster.balancer): the default
    #: ThresholdPolicy keeps the classic greedy behaviour; pass
    #: MemoryPressurePolicy(...) to swap it
    balancer: BalancerPolicy = field(default_factory=ThresholdPolicy)
    #: key kind of server local images and shard bounding keys in the
    #: system image: "mbr" (one box) or "mds" (multiple boxes)
    image_key_kind: str = "mbr"
    #: shard data structure (paper III-D lists five; Hilbert PDC tree is
    #: "best for most applications")
    store_cls: type = HilbertPDCTree
    #: client-side wire batching: coalesce up to this many inserts into
    #: one ``client_insert_batch`` message (and queries into one
    #: ``client_query_batch``); 1 sends every op at once as a batch of
    #: one.  Same spelling as ``ClientSession(batch_size=...)`` /
    #: ``session(batch_size=...)``.
    batch_size: int = 1
    #: how long a partially filled client batch waits before flushing
    batch_linger: float = 2e-3
    seed: int = 0
    #: request timeouts / retries / backoff (clients and servers)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: worker liveness beacons; 0 disables heartbeats and failover
    heartbeat_period: float = 0.5
    #: missed beats before the ephemeral heartbeat znode expires
    heartbeat_miss_k: int = 4
    #: periodic shard checkpointing for failover restores; 0 disables
    checkpoint_period: float = 5.0
    #: per-worker hot-tier budget (bytes of resident shard columns);
    #: over budget, workers autonomously spill least-recently-touched
    #: shards to WARM (blob only), rehydrating lazily on access.
    #: ``None`` (the default) disables the residency tier entirely --
    #: every shard stays HOT and the classic paths are untouched
    hot_budget_bytes: Optional[int] = None
    #: asynchronous replicas per shard, fed by the live insert stream;
    #: 0 disables replication entirely (the classic single-copy paths
    #: stay byte-identical)
    replication_factor: int = 0
    #: cluster-default bounded-staleness read budget (virtual seconds)
    #: for queries that do not set ``Query.max_staleness`` themselves;
    #: ``None`` keeps every read on shard primaries
    max_staleness: Optional[float] = None
    #: per-server rollup cache tier (materialized cubes + adaptive
    #: query routing); ``None`` disables the tier entirely -- no cube
    #: state, no stream subscriptions, classic tree-only reads
    rollup: Optional[RollupConfig] = None
    #: execution backend: ``"sim"`` (discrete-event, the default),
    #: ``"asyncio"`` (wall clock, one process) or ``"mp"`` (one process
    #: per worker, column frames on the worker pipes).  Defaults from
    #: ``$VOLAP_RUNTIME`` so CI can matrix the whole suite over a
    #: backend without touching test code.
    runtime: str = field(
        default_factory=lambda: os.environ.get("VOLAP_RUNTIME", "sim")
    )
    #: model-to-real seconds ratio on the wall-clock backends (0.05
    #: runs modeled periods 20x compressed); the sim ignores it.
    #: Defaults from ``$VOLAP_TIME_SCALE``.
    time_scale: float = field(
        default_factory=lambda: float(os.environ.get("VOLAP_TIME_SCALE", "1.0"))
    )


class VOLAPCluster:
    """A fully wired simulated VOLAP system."""

    def __init__(self, schema: Schema, config: Optional[ClusterConfig] = None):
        self.schema = schema
        self.config = config if config is not None else ClusterConfig()
        self.runtime = make_runtime(
            self.config.runtime,
            latency=self.config.latency,
            seed=self.config.seed,
            time_scale=self.config.time_scale,
        )
        self.clock = self.runtime.clock
        self.transport = self.runtime.transport
        self.zk = Zookeeper(self.clock)
        self.runtime.register(self.zk)
        self.stats = ClusterStats()
        self.checkpoints = CheckpointStore()
        self.workers: dict[int, Worker] = {}
        for wid in range(self.config.num_workers):
            self._make_worker(wid)
        self.servers: list[Server] = [
            Server(
                sid,
                self.clock,
                self.transport,
                self.zk,
                schema,
                self.workers,
                sync_period=self.config.sync_period,
                cost=self.config.cost,
                image_key_kind=self.config.image_key_kind,
                retry=self.config.retry,
                max_staleness=self.config.max_staleness,
                rollup=self.config.rollup,
            )
            for sid in range(self.config.num_servers)
        ]
        for s in self.servers:
            self.runtime.register(s)
            if s.router is not None:
                # share the cluster registry so the tier's hit/miss/
                # eviction counters land in cluster.metrics
                s.router.registry = self.stats.registry
        self.manager = Manager(
            self.clock,
            self.transport,
            self.zk,
            self.workers,
            policy=self.config.balancer,
            stats=self.stats,
            checkpoints=self.checkpoints,
            heartbeat_period=(
                self.config.heartbeat_period
                if self.config.heartbeat_period > 0
                else None
            ),
            heartbeat_miss_k=self.config.heartbeat_miss_k,
            replication_factor=self.config.replication_factor,
        )
        self.runtime.register(self.manager)
        if self.runtime.kind == "mp":
            # mp v1 serves ingest and queries from child processes; the
            # balancing/failover control loops (splits, migrations,
            # replica placement) stay sim-only for now
            self.manager.enabled = False
        self._clients: list[ClientSession] = []
        self._mapper = HilbertKeyMapper(schema)
        #: bulk chunks sent over the cluster's life: workers remember
        #: every bulk token, so none may be reused by a later bulk_load
        self._bulk_tokens = 0
        self.stats.registry.register_collector(self._collect_entity_gauges)
        self.clock.every(STATS_PERIOD, self._periodic_stats)

    # -- observability ---------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The cluster's metrics registry -- always live; snapshot with
        ``cluster.metrics.snapshot()`` (schema in docs/observability.md)."""
        return self.stats.registry

    @property
    def obs(self) -> Optional[Observability]:
        """The installed :class:`Observability` facade, or ``None``."""
        return self.transport.obs

    def observe(
        self,
        spans: bool = True,
        profile_trees: bool = True,
    ) -> Observability:
        """Switch on end-to-end instrumentation (op spans, per-kind
        message counters, tree profiling) and return the facade.

        This is the single sanctioned instrumentation path: the facade
        lands on ``transport.obs``, every entity picks it up from there,
        and it shares the cluster's metrics registry.  Idempotent --
        calling again returns the already-installed facade."""
        if self.transport.obs is None:
            self.transport.obs = Observability(
                self.clock,
                registry=self.stats.registry,
                spans=spans,
                profile_trees=profile_trees,
            )
        return self.transport.obs

    def unobserve(self) -> None:
        """Detach instrumentation; the send/apply paths go back to the
        zero-overhead disabled mode."""
        self.transport.obs = None

    def _collect_entity_gauges(self) -> None:
        """Snapshot-time collector: pull live per-entity state into
        gauges (runs only when ``metrics.snapshot()`` is taken)."""
        r = self.stats.registry
        for wid, w in self.workers.items():
            r.gauge("volap_worker_items", worker=wid).set(w.total_items())
            r.gauge("volap_worker_shards", worker=wid).set(len(w.shards))
            r.gauge("volap_worker_backlog", worker=wid).set(w.pool.backlog)
            r.gauge("volap_worker_dedup_hits", worker=wid).set(w.dedup_hits)
        for s in self.servers:
            sid = s.server_id
            r.gauge("volap_server_inserts_routed", server=sid).set(
                s.inserts_routed
            )
            r.gauge("volap_server_queries_routed", server=sid).set(
                s.queries_routed
            )
            r.gauge("volap_server_insert_retries", server=sid).set(
                s.insert_retries
            )
            r.gauge("volap_server_degraded_queries", server=sid).set(
                s.degraded_queries
            )
        if self.config.rollup is not None:
            # rollup-tier gauges exist only when the tier is enabled,
            # keeping tier-less runs on their classic metric families
            now = self.clock.now
            for s in self.servers:
                router = s.router
                if router is None:
                    continue
                sid = s.server_id
                r.gauge("volap_rollup_cubes", server=sid).set(
                    len(router.store)
                )
                r.gauge("volap_rollup_resident_bytes", server=sid).set(
                    router.store.resident_bytes()
                )
                r.gauge("volap_rollup_staleness_seconds", server=sid).set(
                    router.max_lag(now)
                )
        residency_active = self.config.hot_budget_bytes is not None or any(
            hasattr(w, "storage") and (w.storage.cold or w.storage.spills)
            for w in self.workers.values()
        )
        if residency_active:
            # residency gauges exist only when the tier is in play, so
            # budget-less runs keep their classic metric families
            for wid, w in self.workers.items():
                if not hasattr(w, "storage"):
                    continue  # mp proxy workers have no local storage
                st = w.storage
                r.gauge("volap_residency_spills_total", worker=wid).set(
                    st.spills
                )
                r.gauge("volap_residency_rehydrates_total", worker=wid).set(
                    st.rehydrates
                )
                r.gauge("volap_residency_warm_shards", worker=wid).set(
                    len(st.cold)
                )
                r.gauge("volap_residency_resident_bytes", worker=wid).set(
                    w.resident_bytes()
                )
                if st.hot_budget_bytes is not None:
                    r.gauge(
                        "volap_residency_hot_budget_bytes", worker=wid
                    ).set(st.hot_budget_bytes)
        r.gauge("volap_transport_messages_sent").set(
            self.transport.messages_sent
        )
        r.gauge("volap_transport_bytes_sent").set(self.transport.bytes_sent)
        if self.config.replication_factor > 0:
            # replica gauges exist only when replication is on, so
            # replication-free runs export their classic metric families
            now = self.clock.now
            for sid, holders in sorted(self.manager.replica_sets.items()):
                for wid in sorted(holders):
                    wm = self.zk.get(f"/replicas/{sid}/{wid}")
                    if wm is None:
                        continue
                    r.gauge("volap_replica_lag", shard=sid, worker=wid).set(
                        lag(wm, None, now)
                    )
            for wid, w in self.workers.items():
                if not hasattr(w, "replication"):
                    continue  # mp proxy workers host no replicas
                r.gauge("volap_worker_replicas", worker=wid).set(
                    len(w.replication.replicas)
                )
                r.gauge("volap_worker_replica_queries", worker=wid).set(
                    w.replica_queries
                )

    # -- wiring helpers --------------------------------------------------------

    def _make_worker(self, wid: int) -> Worker:
        if self.runtime.kind == "mp":
            w = self.runtime.spawn_worker(
                wid,
                self.zk,
                self.schema,
                self.config.tree_config,
                WORKER_THREADS,
                self.config.cost,
                self.config.store_cls,
            )
            self.workers[wid] = w
            w.publish_stats()
            return w
        w = Worker(
            wid,
            self.clock,
            self.transport,
            self.zk,
            self.schema,
            tree_config=self.config.tree_config,
            cost=self.config.cost,
            store_cls=self.config.store_cls,
        )
        self.workers[wid] = w
        self.runtime.register(w)
        # the shared directory lets a demoted primary address its
        # handoff to whichever worker took over (includes late joiners)
        w.peers = self.workers
        w.storage.hot_budget_bytes = self.config.hot_budget_bytes
        w.publish_stats()
        if self.config.heartbeat_period > 0:
            w.start_heartbeat(
                self.config.heartbeat_period,
                ttl=self.config.heartbeat_miss_k * self.config.heartbeat_period,
            )
        if self.config.checkpoint_period > 0:
            w.start_checkpoints(self.config.checkpoint_period, self.checkpoints)
        return w

    def add_workers(self, count: int) -> list[int]:
        """Elastic scale-up: attach new (empty) workers (paper Fig. 6)."""
        new_ids = []
        base = max(self.workers) + 1 if self.workers else 0
        for i in range(count):
            w = self._make_worker(base + i)
            new_ids.append(w.worker_id)
        return new_ids

    def _periodic_stats(self) -> None:
        sizes = {wid: w.total_items() for wid, w in self.workers.items()}
        self.stats.snapshot_workers(self.clock.now, sizes)
        for w in self.workers.values():
            w.publish_stats()

    # -- bootstrap ------------------------------------------------------------

    def bootstrap(self, batch: RecordBatch, shards_per_worker: int = 4) -> None:
        """Initial load: Hilbert-sort the batch, carve it into equal
        shards, place them round-robin, and build every server's image."""
        n = len(batch)
        worker_ids = sorted(self.workers)
        total_shards = max(1, shards_per_worker * len(worker_ids))
        if n > 0:
            order = lexsort_words(self._mapper.key_words(batch.coords))
            bounds = np.linspace(0, n, total_shards + 1).astype(int)
        else:
            order = np.array([], dtype=int)
            bounds = np.zeros(total_shards + 1, dtype=int)
        shard_id = 0
        for i in range(total_shards):
            rows = order[bounds[i] : bounds[i + 1]]
            sub = batch.take(rows) if len(rows) else RecordBatch.empty(
                self.schema.num_dims
            )
            store = self.config.store_cls.from_batch(
                self.schema, sub, self.config.tree_config
            )
            wid = worker_ids[i % len(worker_ids)]
            self.workers[wid].install_shard(shard_id, store)
            shard_id += 1
        self.manager.reserve_shard_ids(shard_id + 1000)
        for s in self.servers:
            s.load_image()
        self._periodic_stats()

    # -- client sessions --------------------------------------------------------

    def session(
        self,
        server_index: int = 0,
        concurrency: int = 16,
        batch_size: Optional[int] = None,
        batch_linger: Optional[float] = None,
    ) -> ClientSession:
        c = ClientSession(
            len(self._clients),
            self.transport,
            self.servers[server_index % len(self.servers)],
            self.stats,
            concurrency=concurrency,
            retry=self.config.retry,
            seed=self.config.seed * 7919 + len(self._clients),
            batch_size=(
                batch_size if batch_size is not None else self.config.batch_size
            ),
            batch_linger=(
                batch_linger
                if batch_linger is not None
                else self.config.batch_linger
            ),
        )
        self._clients.append(c)
        self.runtime.register(c)
        return c

    # -- fault injection / chaos controls ------------------------------------

    def inject_faults(self, plan: FaultPlan, seed: Optional[int] = None) -> FaultInjector:
        """Install a fault plan on the shared transport; returns the
        injector (for its drop/duplicate/delay counters)."""
        injector = FaultInjector(
            plan, self.clock, seed=self.config.seed if seed is None else seed
        )
        self.transport.faults = injector
        return injector

    def clear_faults(self) -> None:
        self.transport.faults = None

    def crash_worker(self, wid: int) -> None:
        """Fail-stop worker ``wid``: state lost, messages black-holed.
        The manager detects the expired heartbeat and re-homes the
        worker's shards onto survivors -- promoting the freshest live
        replica where one exists (a metadata flip), deserializing the
        latest checkpoint otherwise."""
        self.workers[wid].crash()

    def restart_worker(self, wid: int) -> None:
        self.workers[wid].restart()

    # -- bulk ingestion -------------------------------------------------------

    def bulk_load(self, batch: RecordBatch, chunk: int = 2048) -> float:
        """Bulk-ingest ``batch`` through server 0's image; returns the
        virtual completion time.  This is the high-rate path of paper
        Section IV-C (>400k items/s vs ~50k/s point insertion): rows are
        routed in batches and workers merge whole chunks per shard.

        A worker names in its ack the rows of shards it does not hold
        (one migrated after the image routed them); once every chunk is
        acknowledged, those rows are routed again on a refreshed image,
        at most ``retry.max_insert_retries`` times."""
        server = self.servers[0]
        start = self.clock.now
        sink = _BulkSink()
        self.runtime.register(sink)
        for _ in range(self.config.retry.max_insert_retries + 1):
            for lo in range(0, len(batch), chunk):
                sub = batch.slice(lo, min(lo + chunk, len(batch)))
                groups: dict[int, list[int]] = {}
                owner: dict[int, int] = {}
                coords = sub.coords
                for i in range(len(sub)):
                    info = server.image.route_insert(coords, i)
                    groups.setdefault(info.shard_id, []).append(i)
                    owner[info.shard_id] = info.worker_id
                for sid, rows in groups.items():
                    self._bulk_tokens += 1
                    # dedup tokens live in a reserved integer space (they
                    # must survive the int64 wire columns)
                    token = (0xBBB << 32) | self._bulk_tokens
                    part = sink.pending[token] = sub.take(np.asarray(rows))
                    self.transport.send(
                        self.workers[owner[sid]],
                        Message(
                            "bulk_insert",
                            BulkInsert(
                                i64([sid, token]), part.coords, part.measures, sink
                            ),
                        ),
                    )
            # run until every chunk is acknowledged
            self.runtime.drive(lambda: not sink.pending, desc="bulk load")
            if not sink.unplaced:
                break
            batch = concat_batches(sink.unplaced, self.schema.num_dims)
            sink.unplaced.clear()
            server.load_image()
        else:
            raise RuntimeError(f"bulk load: {len(batch)} rows found no shard")
        server.sync_to_zookeeper()
        return self.clock.now - start

    # -- unified query API ----------------------------------------------------

    def execute(
        self,
        query_or_queries: Union[Query, list],
        *,
        max_staleness: Optional[float] = None,
        routing: str = "auto",
        server_index: int = 0,
    ) -> Union[QueryResult, list[QueryResult]]:
        """The one query entry point: run one query (returns a
        :class:`QueryResult`) or a list (returns a list, in submission
        order, batched into one wire round trip).

        ``max_staleness`` is the read budget for queries that do not
        carry their own ``Query.max_staleness`` (per-query values win);
        ``routing`` selects the serving tier -- ``"auto"`` answers from
        materialized rollup cubes when a cube matches and its staleness
        fits the budget (per shard, falling back to tree descent for
        the stale tail), ``"tree"`` pins the classic descent, and
        ``"rollup"`` prefers cubes regardless of budget.  **With no
        budget from either source, ``"auto"`` never touches a cube**:
        the result stays byte-identical to tree descent.

        Each result carries the merged aggregate, achieved coverage,
        achieved staleness, and the serving ``source``.  Each query
        keeps its own op id, server token, deadline, and
        :class:`OpRecord`, exactly as on the session path.
        """
        if routing not in ROUTING_MODES:
            raise ValueError(
                f"routing must be one of {ROUTING_MODES}, got {routing!r}"
            )
        single = isinstance(query_or_queries, Query)
        queries = (
            [query_or_queries] if single else list(query_or_queries)
        )
        if not queries:
            return []
        effective = [
            replace(
                q,
                max_staleness=(
                    q.max_staleness
                    if q.max_staleness is not None
                    else max_staleness
                ),
                routing=(
                    q.routing
                    if getattr(q, "routing", "auto") != "auto"
                    else routing
                ),
            )
            for q in queries
        ]
        server = self.servers[server_index % len(self.servers)]
        results: dict[int, QueryResult] = {}
        sink = _QuerySink(results, self.stats, self.clock)
        self.runtime.register(sink)
        # op ids live in a reserved pseudo-client space; replies route
        # by entity, so they never collide with real sessions
        op_ids = [(0xFFF << 24) | (i + 1) for i in range(len(effective))]
        self.transport.send(
            server,
            Message("client_query_batch", query_batch(op_ids, effective, sink)),
        )
        self.runtime.drive(
            lambda: len(results) >= len(queries), desc="execute"
        )
        out = [results[op_id] for op_id in op_ids]
        return out[0] if single else out

    # -- execution ------------------------------------------------------------

    def run_until(self, t: float) -> None:
        self.runtime.run_until(t)

    def run_for(self, dt: float) -> None:
        self.runtime.run_for(dt)

    def run_until_clients_done(self, max_virtual: float = 3600.0) -> None:
        """Advance until every session drains (or the horizon passes)."""
        horizon = self.clock.now + max_virtual
        self.runtime.drive(
            lambda: all(c.done for c in self._clients),
            horizon=horizon,
            desc="clients",
        )

    def barrier(self) -> None:
        """Wait for remote workers to drain (a no-op on sim/asyncio)."""
        self.runtime.barrier()

    def close(self) -> None:
        """Release backend resources (worker processes, sockets, the
        event loop); a no-op on the sim backend and when called twice."""
        self.runtime.close()

    def __enter__(self) -> "VOLAPCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    def total_items(self) -> int:
        return sum(w.total_items() for w in self.workers.values())

    def shard_count(self) -> int:
        return sum(len(w.shards) for w in self.workers.values())

    def worker_sizes(self) -> dict[int, int]:
        return {wid: w.total_items() for wid, w in self.workers.items()}


class _QuerySink(Entity):
    """Collects ``query_done`` replies for :meth:`VOLAPCluster.execute`,
    recording one ``OpRecord`` per logical query like a session would."""

    name = "query-sink"

    def __init__(
        self,
        results: dict[int, QueryResult],
        stats: ClusterStats,
        clock: SimClock,
    ):
        self._results = results
        self._stats = stats
        self._clock = clock

    def receive(self, msg: Message) -> None:
        if msg.kind != "query_done":
            return
        done = msg.payload
        if done.op_id in self._results:
            return  # duplicate reply (e.g. a late deadline partial)
        self._results[done.op_id] = QueryResult(
            value=done.agg,
            coverage=done.achieved,
            staleness=done.staleness,
            source=done.source,
            shards_searched=done.searched,
            op_id=done.op_id,
        )
        self._stats.record_op(query_record(done, done.submit_time, self._clock.now))


class _BulkSink(Entity):
    """Collects bulk acks during :meth:`VOLAPCluster.bulk_load`: the
    chunks not acknowledged yet, by token, and the rows workers could
    not place."""

    name = "bulk-sink"

    def __init__(self):
        self.pending: dict[int, RecordBatch] = {}
        self.unplaced: list[RecordBatch] = []

    def receive(self, msg: Message) -> None:
        if msg.kind == "bulk_ack":
            # a transport-duplicated ack finds its chunk gone
            part = self.pending.pop(int(msg.payload.m[0]), None)
            if part is not None and len(msg.payload.u):
                self.unplaced.append(part.take(msg.payload.u))
