"""Worker nodes: shard storage and the split/migration protocol.

Paper Sections III-A and III-E.  A worker stores several shards (each a
Hilbert PDC tree by default), executes insert and aggregate-query
operations against them on a simulated ``k``-thread pool, and supports
the load balancer's operations:

* ``split_shard`` -- SplitQuery to find a balancing hyperplane, Split to
  partition the shard, a *mapping table* entry so in-flight operations
  addressed to the old shard reach its children, and an *insertion
  queue* absorbing new items while the split runs (queried alongside
  the shard, so query processing is never interrupted);
* ``migrate_shard`` -- SerializeShard, network transfer (latency paid by
  blob size), DeserializeShard at the destination, queue hand-off, and
  a Zookeeper update that re-points servers at the new owner.

Workers also run the asynchronous replication protocol: a primary tees
every applied insert row onto a per-shard, per-epoch sequence-numbered
stream feeding K replica workers (seeded by blob, kept current by the
stream, retransmitted until cumulatively acknowledged); replicas track
an applied-epoch watermark that is piggybacked on heartbeat writes so
servers can route bounded-staleness reads, and a replica can be
promoted to primary by a pure metadata flip when its primary dies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.aggregates import Aggregate
from ..core.base import Hyperplane, ShardStore
from ..core.config import OpStats, TreeConfig
from ..core.hilbert_trees import HilbertPDCTree
from ..olap.keys import Box
from ..olap.records import RecordBatch, concat_batches
from ..olap.rollup import CubeKey, accumulate_cells
from ..olap.schema import Schema
from .cost import CostModel
from .faults import CheckpointStore
from .lifecycle import CUTOVER, INSTALLING, TRANSFERRING
from .simclock import SimClock
from .storage import HOT, WARM, ShardStorage
from .wire import (
    BulkAck,
    InsertBatchAck,
    PrimaryHandoff,
    QueryResultBatch,
    ReplicaBatch,
    batch_from_wire,
    batch_to_wire,
    f64,
    i64,
    key_to_wire,
)
from .transport import Entity, Message, Transport
from .zookeeper import Zookeeper

__all__ = ["ShardTransfer", "Worker"]


class ShardTransfer:
    """The shared mechanics of every shard reorganisation on a worker.

    Split, outbound/inbound migration, queue hand-off, abort and
    restore all reduce to the same few moves -- freeze a shard behind a
    fresh insertion queue, drain that queue somewhere, update the
    mapping table, install and publish stores, re-point the Zookeeper
    image -- and each protocol handler used to carry its own copy.
    The handlers on :class:`Worker` now only parse messages and send
    replies; the mechanics live here, once.

    Every move also announces its phase (the state names of
    :mod:`repro.cluster.lifecycle`) under ``/lifecycle/<shard>``:
    best-effort observability that the manager folds into its
    :class:`~repro.cluster.lifecycle.ShardOpMachine`.  Nothing watches
    the prefix, so announcing schedules no events and cannot perturb
    the simulation.
    """

    def __init__(self, worker: "Worker"):
        self.w = worker

    # -- phase announcements (observability only) --------------------------

    def announce(self, shard_id: int, state: str) -> None:
        self.w.zk.set(f"/lifecycle/{shard_id}", (state, self.w.worker_id))

    def finish(self, shard_id: int) -> None:
        self.w.zk.delete(f"/lifecycle/{shard_id}")

    # -- freeze / unwind ---------------------------------------------------

    def begin(self, shard_id: int, min_items: int = 0) -> Optional[ShardStore]:
        """Freeze ``shard_id`` behind a fresh insertion queue and return
        its store -- or ``None``, changing nothing, when the shard is
        absent, already frozen, or smaller than ``min_items``.  New
        inserts land in the queue; queries keep hitting the shard plus
        the queue, so query processing is never interrupted."""
        w = self.w
        store = w.shards.get(shard_id)
        if store is None or shard_id in w.frozen or len(store) < min_items:
            return None
        w.frozen.add(shard_id)
        w.queues[shard_id] = w.store_cls(w.schema, w.tree_config)
        self.announce(shard_id, TRANSFERRING)
        return store

    def cancel(self, shard_id: int) -> None:
        """Unwind a frozen shard: unfreeze it and fold its insertion
        queue back in (nothing was handed off, so nothing is lost)."""
        w = self.w
        store = w.shards.get(shard_id)
        w.frozen.discard(shard_id)
        queue = w.queues.pop(shard_id, None)
        if store is not None and queue is not None:
            self._fold(shard_id, store, queue.items())
        self.finish(shard_id)

    def absorb(self, shard_id: int, batch: RecordBatch) -> None:
        """Fold a handed-off insertion queue into an installed shard."""
        store = self.w.shards.get(shard_id)
        if store is not None:
            self._fold(shard_id, store, batch)

    def _fold(self, shard_id: int, store: ShardStore, batch: RecordBatch) -> None:
        """Apply queued rows to ``store`` and tee them: they were
        acknowledged while the shard was frozen, which kept them off the
        replication stream, so this is where replicas learn of them."""
        for coords, m in batch.iter_rows():
            store.insert(coords, m)
        if len(batch):
            self.w._tee(shard_id, batch.coords, batch.measures)

    # -- cut-over ----------------------------------------------------------

    def split_cutover(
        self,
        shard_id: int,
        store: ShardStore,
        plane: Hyperplane,
        low_id: int,
        high_id: int,
    ) -> None:
        """Split ``store``, install the children, record the
        mapping-table entry, drain the insertion queue through it (rows
        reach whichever child they belong to), and re-point the system
        image at the children."""
        w = self.w
        self.announce(shard_id, CUTOVER)
        low, high = store.split(plane)
        w.shards[low_id] = low
        w.shards[high_id] = high
        w.mapping[shard_id] = (plane, low_id, high_id)
        del w.shards[shard_id]
        # the parent's replication stream dies with the parent id; the
        # manager re-seeds replicas for the children
        w._repl.pop(shard_id, None)
        queue = w.queues.pop(shard_id)
        w.frozen.discard(shard_id)
        for coords, m in queue.items().iter_rows():
            sid = w._resolve_insert(shard_id, coords)
            w.shards[sid].insert(coords, m)
        w._publish_shard(low_id)
        w._publish_shard(high_id)
        w.zk.delete(f"/shards/{shard_id}")
        if w.checkpoints is not None:
            w.checkpoints.drop(shard_id)  # parent id no longer exists
        self.finish(shard_id)

    def install(self, shard_id: int, store: ShardStore, publish: bool) -> None:
        """Install a deserialized shard.  Restores publish immediately;
        an inbound migration does not (the source still owns the image
        until its cut-over re-points it here)."""
        w = self.w
        w.shards[shard_id] = store
        w._touch(shard_id)
        if publish:
            w._publish_shard(shard_id)
            self.finish(shard_id)
        w._enforce_budget(protect={shard_id})

    def cutover_out(self, shard_id: int, dst: "Worker") -> Optional[ShardStore]:
        """Source-side migration cut-over: hand the insertion queue off
        to ``dst``, release local ownership, and re-point the system
        image; returns the store that moved away."""
        w = self.w
        self.announce(shard_id, CUTOVER)
        queue = w.queues.pop(shard_id, None)
        w.frozen.discard(shard_id)
        old = w.shards.pop(shard_id, None)
        # the stream does not follow a migration; the manager drops the
        # now-stale replicas and re-seeds them from the new owner
        w._repl.pop(shard_id, None)
        if queue is not None and len(queue):
            blob = batch_to_wire(queue.items())
            w.transport.send(
                dst,
                Message(
                    "queue_transfer",
                    (shard_id, blob, dst),
                    size=len(blob),
                    sender=w,
                ),
            )
        info_key = (
            old.bounding_key()
            if old is not None
            else Box.empty(w.schema.num_dims)
        )
        w.zk.set(
            f"/shards/{shard_id}",
            (
                shard_id,
                key_to_wire(info_key),
                dst.worker_id,
                len(old) if old is not None else 0,
                HOT,  # the destination installed it hot
            ),
        )
        self.finish(shard_id)
        return old


class Worker(Entity):
    """One worker node of the VOLAP cluster."""

    def __init__(
        self,
        worker_id: int,
        clock: SimClock,
        transport: Transport,
        zk: Zookeeper,
        schema: Schema,
        tree_config: Optional[TreeConfig] = None,
        threads: int = 8,
        cost: Optional[CostModel] = None,
        store_cls: type[ShardStore] = HilbertPDCTree,
    ):
        self.worker_id = worker_id
        self.name = f"worker-{worker_id}"
        self.clock = clock
        self.transport = transport
        self.zk = zk
        self.schema = schema
        self.tree_config = tree_config if tree_config is not None else TreeConfig()
        self.pool = clock.make_pool(threads)
        self.cost = cost if cost is not None else CostModel()
        self.store_cls = store_cls
        self.shards: dict[int, ShardStore] = {}
        #: the one implementation of the transfer mechanics every
        #: split/migrate/restore handler goes through
        self.transfer = ShardTransfer(self)
        #: unified blob codec plus the cold (WARM) shard index; every
        #: shard blob -- checkpoint, restore, migrate, replica seed,
        #: spill -- goes through it
        self.storage = ShardStorage(self)
        #: hot-memory budget in bytes; ``None`` disables the residency
        #: tier (classic all-hot behaviour)
        self.hot_budget_bytes: Optional[int] = None
        #: shard id -> virtual time of last access (LRU spill order)
        self._last_access: dict[int, float] = {}
        #: per-shard insertion queues, live while a split/migration runs
        self.queues: dict[int, ShardStore] = {}
        #: mapping table: old shard id -> (hyperplane, low id, high id)
        self.mapping: dict[int, tuple[Hyperplane, int, int]] = {}
        self.frozen: set[int] = set()
        self.inserts_done = 0
        self.queries_done = 0
        # -- failure handling state --------------------------------------
        self.crashed = False
        #: bumped on crash/restart; pending pool callbacks from an older
        #: epoch are discarded (a dead process does not send acks)
        self._epoch = 0
        #: idempotency tokens of inserts already applied (dedup)
        self._seen_ops: set = set()
        self.dedup_hits = 0
        self.checkpoints: Optional[CheckpointStore] = None
        self.heartbeat_period: Optional[float] = None
        self.heartbeat_ttl: Optional[float] = None
        # -- replication state --------------------------------------------
        #: shard id -> read-only replica store fed by the insert stream
        self.replicas: dict[int, ShardStore] = {}
        #: primary-side stream state per replicated shard:
        #: {"epoch", "head", "log": {seq: [(c, v, o), t_created, last_sent]},
        #:  "peers": {worker id: {"entity", "acked"}}} -- the log holds the
        #: rows as the arrays ``replica_batch`` forwards
        self._repl: dict[int, dict] = {}
        #: replica-side stream state per held replica: {"epoch",
        #: "frontier", "applied": set, "pending_t": {seq: t_created},
        #: "wm_time"} -- ``wm_time`` is the primary-side creation time
        #: of the newest contiguously applied batch (the watermark)
        self._rstate: dict[int, dict] = {}
        #: demoted-primary handoffs awaiting acknowledgement
        self._handoffs: dict[int, dict] = {}
        #: worker id -> entity directory, shared in by the cluster
        #: wiring; used to address handoffs after a demotion
        self.peers: dict[int, "Worker"] = {}
        #: replication-stream retransmit period (virtual seconds)
        self.repl_retry: float = 0.1
        self._repl_timer_on = False
        #: virtual time of the last successful heartbeat write; a gap
        #: larger than the ttl means this worker was plausibly declared
        #: dead and must reconcile its primariness (epoch fencing)
        self._last_beat_write: Optional[float] = None
        self.replica_queries = 0
        self.replica_seeds = 0
        self.promotions = 0
        self.demotions = 0
        #: checkpoint blobs deserialized by failover restores (the
        #: promotion path must keep this at zero when replicas exist)
        self.checkpoint_deserializations = 0
        self.repl_batches_sent = 0
        self.repl_rows_applied = 0
        self.repl_rows_teed = 0
        #: per-row tee-to-apply delay on this worker's replicas; what
        #: the PBS freshness model consumes as a staleness distribution
        self.repl_apply_lags: list[float] = []
        #: cube slabs seeded for server rollup tiers (``rollup_sync``)
        self.rollup_seeds = 0

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: lose all in-memory state and stop processing.

        Heartbeats cease (the ephemeral znode expires), pending service
        completions are discarded, and every incoming message is
        black-holed until :meth:`restart`.
        """
        self.crashed = True
        self._epoch += 1
        self.shards.clear()
        self.queues.clear()
        self.mapping.clear()
        self.frozen.clear()
        self._seen_ops.clear()
        self.replicas.clear()
        self._repl.clear()
        self._rstate.clear()
        self._handoffs.clear()
        # WARM shards are lost too; their spill-time blobs survive in
        # the checkpoint store, exactly like hot shards' periodic blobs
        self.storage.clear()
        self._last_access.clear()

    def restart(self) -> None:
        """Rejoin empty; shards come back via manager-driven restores."""
        if not self.crashed:
            return
        self.crashed = False
        self._epoch += 1
        self.publish_stats()
        self._beat()

    def _submit(self, service: float, fn) -> None:
        """Pool submit whose completion is void if the worker crashed."""
        epoch = self._epoch
        self.pool.submit(
            service, lambda: fn() if self._epoch == epoch else None
        )

    # -- heartbeats / checkpoints -----------------------------------------

    def _zk_reachable(self) -> bool:
        """Whether this worker can currently talk to Zookeeper.

        Heartbeats are direct calls, not transport messages, so a
        network partition must be checked explicitly -- otherwise an
        isolated worker would keep looking alive forever.  Only
        deterministic (``prob == 1``) partition rules apply; the check
        draws nothing from the fault generator.
        """
        f = self.transport.faults
        return f is None or not f.blocked(self.name, self.zk.name, "heartbeat")

    def _beat(self) -> None:
        if self.crashed or self.heartbeat_period is None:
            return
        if not self._zk_reachable():
            return  # partitioned away: the ephemeral znode will expire
        now = self.clock.now
        lapsed = (
            self._last_beat_write is not None
            and self.heartbeat_ttl is not None
            and now - self._last_beat_write > self.heartbeat_ttl
        )
        self._last_beat_write = now
        # the beat carries measured resident bytes so balancer policies
        # plan on real memory at heartbeat freshness (stats lag behind);
        # readers that only liveness-check the znode ignore the payload
        self.zk.set_ephemeral(
            f"/heartbeats/{self.worker_id}",
            (now, self.resident_bytes()),
            self.heartbeat_ttl,
        )
        # piggyback replication watermarks on the liveness beat: the
        # written prefixes are unwatched, so this schedules no events
        for sid in list(self._rstate):
            self._publish_watermark(sid)
        for sid, st in self._repl.items():
            if st["peers"]:
                self.zk.set(
                    f"/repl/heads/{sid}", (st["epoch"], st["head"], now)
                )
        if lapsed:
            # we were silent long enough to have been declared dead:
            # another worker may own our shards now (epoch fencing)
            self._reconcile()

    def start_heartbeat(self, period: float, ttl: Optional[float] = None) -> None:
        """Publish liveness as an ephemeral znode refreshed every
        ``period`` seconds; it expires ``ttl`` seconds after the last
        refresh (default: 3 missed beats)."""
        self.heartbeat_period = period
        self.heartbeat_ttl = ttl if ttl is not None else 3 * period
        self._beat()
        self.clock.every(period, self._beat)

    def start_checkpoints(self, period: float, store: CheckpointStore) -> None:
        """Serialize every settled shard to ``store`` each ``period``."""
        self.checkpoints = store

        def tick() -> None:
            if not self.crashed:
                self.checkpoint()

        self.clock.every(period, tick)

    def checkpoint(self) -> None:
        """Write the latest blob of each non-frozen HOT shard.

        WARM shards are skipped by construction -- iterating
        ``self.shards`` never sees them -- because the blob their spill
        wrote *is* the checkpoint: the shard cannot have changed since
        (any insert would have rehydrated it first).
        """
        if self.checkpoints is None:
            return
        total = 0
        for sid, store in list(self.shards.items()):
            if sid in self.frozen:
                continue
            self.checkpoints.put(
                sid, self.storage.encode(store), self.worker_id, self.clock.now
            )
            total += len(store)
        if total:
            # background serialization occupies a thread but sends nothing
            self._submit(self.cost.serialize_time(total), lambda: None)

    # -- sizes ------------------------------------------------------------

    def total_items(self) -> int:
        """Primary-owned items only: replicas are copies, so counting
        them would double-book the cluster's exactly-once totals."""
        return (
            sum(len(s) for s in self.shards.values())
            + sum(len(q) for q in self.queues.values())
            + self.storage.warm_items()
        )

    def publish_stats(self) -> None:
        """Push per-shard and total sizes to Zookeeper (paper III-B)."""
        if self.crashed:
            return
        stats = {
            "items": self.total_items(),
            "shards": {sid: len(s) for sid, s in self.shards.items()},
            "backlog": self.pool.backlog,
        }
        storage = self.storage
        if storage.cold:
            # WARM shards stay visible in "shards" (ownership and heal
            # checks key on it) at their spilled item counts
            for sid, entry in storage.cold.items():
                stats["shards"][sid] = entry.items
            stats["warm"] = {
                sid: (e.items, e.resident_estimate)
                for sid, e in storage.cold.items()
            }
        if self.hot_budget_bytes is not None or storage.cold or storage.spills:
            now = self.clock.now
            stats["resident_bytes"] = self.resident_bytes()
            stats["shard_bytes"] = {
                sid: s.resident_bytes() for sid, s in self.shards.items()
            }
            stats["idle"] = {
                sid: now - self._last_access.get(sid, now)
                for sid in self.shards
            }
        if self.replicas:
            stats["replica_items"] = sum(
                len(s) for s in self.replicas.values()
            )
        self.zk.set(f"/stats/workers/{self.worker_id}", stats)

    # -- residency tier ---------------------------------------------------

    def resident_bytes(self) -> int:
        """Measured bytes of hot column data on this worker: primary
        shards, live insertion queues, and replica copies.  WARM shards
        contribute nothing -- releasing their columns is the point of
        the tier."""
        return (
            sum(s.resident_bytes() for s in self.shards.values())
            + sum(q.resident_bytes() for q in self.queues.values())
            + sum(r.resident_bytes() for r in self.replicas.values())
        )

    def _touch(self, shard_id: int) -> None:
        """Record an access for LRU spill-victim ordering."""
        if shard_id in self.shards:
            self._last_access[shard_id] = self.clock.now

    def _rehydrate_for_access(
        self, shard_id: int, trigger: str = "query"
    ) -> tuple[Optional[ShardStore], float]:
        """Lazily pull a WARM shard back HOT because an op touched it.

        Returns ``(store, modeled seconds)``; the caller adds the
        seconds to the op's service time (rehydration is synchronous --
        the op waits for the blob decode).  Enforces the hot budget
        afterwards, protecting the shard just rehydrated (the ±1-shard
        hysteresis: an op never evicts its own working set mid-flight).
        """
        entry = self.storage.cold.get(shard_id)
        if entry is None:
            return self.shards.get(shard_id), 0.0
        obs = self.transport.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "worker.rehydrate", self.name, shard=shard_id, trigger=trigger
            )
        store = self.storage.rehydrate(shard_id)
        service = self.cost.rehydrate_time(entry.items)
        if obs is not None:
            obs.registry.histogram(
                "volap_residency_rehydrate_seconds",
                help="modeled latency of lazy shard rehydrates",
            ).observe(service)
            obs.finish_span(span, items=entry.items)
        self._enforce_budget(protect={shard_id})
        return store, service

    def _enforce_budget(self, protect: set = frozenset()) -> int:
        """Spill least-recently-used HOT shards until resident bytes
        fit :attr:`hot_budget_bytes`.  ``protect`` names shards the
        current op is touching -- they stay hot even while over budget.
        Frozen shards belong to the transfer protocol and never spill.
        """
        if self.hot_budget_bytes is None or self.crashed:
            return 0
        spilled = 0
        while self.resident_bytes() > self.hot_budget_bytes:
            candidates = [
                sid
                for sid in self.shards
                if sid not in self.frozen and sid not in protect
            ]
            if not candidates:
                break
            victim = min(
                candidates, key=lambda s: (self._last_access.get(s, -1.0), s)
            )
            self.storage.spill(victim)
            self._last_access.pop(victim, None)
            spilled += 1
        return spilled

    # -- shard id resolution through the mapping table -----------------------

    def _resolve_insert(self, shard_id: int, coords: np.ndarray) -> int:
        while shard_id in self.mapping:
            plane, low, high = self.mapping[shard_id]
            shard_id = low if coords[plane.dim] <= plane.value else high
        return shard_id

    def _resolve_query(self, shard_id: int) -> list[int]:
        # iterative (stack pushes high then low, so leaves come out
        # low-first, matching the old recursion): long split chains
        # must not hit Python's recursion limit
        out: list[int] = []
        stack = [shard_id]
        while stack:
            sid = stack.pop()
            entry = self.mapping.get(sid)
            if entry is None:
                out.append(sid)
            else:
                _, low, high = entry
                stack.append(high)
                stack.append(low)
        return out

    # -- message handling ----------------------------------------------------

    def receive(self, msg: Message) -> None:
        if self.crashed:
            return  # a dead process neither reads nor replies
        handler = getattr(self, f"_on_{msg.kind}", None)
        if handler is None:
            raise ValueError(f"{self.name}: unknown message {msg.kind!r}")
        handler(msg)

    # insert ------------------------------------------------------------

    def _on_insert_batch(self, msg: Message) -> None:
        """Apply a server's online inserts (paper's high-velocity path).

        Each row keeps its own idempotency ``op_id``: rows already seen
        are re-acked without applying (a retransmitted or duplicated
        message is harmless), rows whose shard moved away are nacked
        individually so the server can retry against its refreshed
        image, and the rest are grouped per resolved shard and applied
        through :meth:`ShardStore.insert_batch` -- so the tree sees one
        Hilbert-sorted run sequence, not ``n`` point inserts.
        """
        p = msg.payload
        obs = self.transport.obs
        tracing = obs is not None and obs.spans_enabled
        acked: list[int] = []
        nacked: list[tuple[int, int]] = []
        #: resolved shard -> indices of its rows and, when tracing, the
        #: rows' worker.apply_insert spans in the same order
        groups: dict[int, list[int]] = {}
        row_spans: dict[int, list] = {}
        for i, (shard_id, token, op_id) in enumerate(p.x.tolist()):
            if op_id and op_id in self._seen_ops:
                self.dedup_hits += 1
                acked.append(token)
                continue
            sid = self._resolve_insert(shard_id, p.c[i]) if shard_id in self.mapping else shard_id
            if (
                sid not in self.frozen
                and sid not in self.shards
                and sid not in self.storage.cold
            ):
                nacked.append((token, shard_id))
                continue
            if tracing:
                row_spans.setdefault(sid, []).append(
                    obs.start_span(
                        "worker.apply_insert",
                        self.name,
                        parent=p.ctx[i] if p.ctx is not None else None,
                        op_id=op_id,
                    )
                )
            groups.setdefault(sid, []).append(i)
            if op_id:
                self._seen_ops.add(op_id)
            acked.append(token)
        applied = 0
        stats = OpStats()
        tree_spans: list = []
        rehydrate_cost = 0.0
        for sid, rows in groups.items():
            idx = np.asarray(rows)
            batch = RecordBatch(p.c[idx], p.v[idx])
            if sid in self.frozen:
                target = self.queues[sid]
            else:
                # look up at apply time: an earlier group's budget
                # enforcement may have spilled this shard again; a WARM
                # shard always rehydrates for an insert (the spilled
                # blob would go stale otherwise)
                target = self.shards.get(sid)
                if target is None:
                    target, c = self._rehydrate_for_access(
                        sid, trigger="insert"
                    )
                    rehydrate_cost += c
                if target is None:  # pragma: no cover - defensive
                    continue
            group_stats = target.insert_batch(batch)
            stats.merge(group_stats)
            if tracing:
                # one tree call serves the whole group: every row's
                # tree.insert stage reports that shared descent
                for span in row_spans[sid]:
                    tree_spans.append(
                        obs.start_span(
                            "tree.insert",
                            self.name,
                            parent=span.ctx,
                            shard=sid,
                            rows=len(rows),
                            nodes=group_stats.nodes_visited,
                        )
                    )
            if sid not in self.frozen:
                self._tee(sid, batch.coords, batch.measures, p.x[idx, 2])
                self._touch(sid)
                self._enforce_budget(protect={sid})
            applied += len(rows)
        self.inserts_done += applied
        service = self.cost.insert_batch_time(applied, stats) + rehydrate_cost

        def ack() -> None:
            if obs is not None and applied:
                obs.record_tree_op("insert_batch", stats, rows=applied)
            # children close before parents
            for s in tree_spans:
                obs.finish_span(s, ok=True)
            for group in row_spans.values():
                for s in group:
                    obs.finish_span(s, ok=True)
            self.transport.send(
                p.reply_to,
                Message(
                    "insert_batch_ack",
                    InsertBatchAck(
                        i64(acked), i64(nacked).reshape(-1, 2), i64([self.worker_id])
                    ),
                    sender=self,
                ),
            )

        self._submit(service, ack)

    def _on_bulk_insert(self, msg: Message) -> None:
        p = msg.payload
        shard_id, token = p.m.tolist()
        batch = RecordBatch(p.c, p.v)
        ack = Message("bulk_ack", BulkAck(i64([token, self.worker_id])), sender=self)
        if token and token in self._seen_ops:
            self.dedup_hits += 1
            self.transport.send(p.reply_to, ack)
            return
        if token:
            self._seen_ops.add(token)
        # split rows among mapped children if necessary
        groups: dict[int, list[int]] = {}
        for i in range(len(batch)):
            sid = self._resolve_insert(shard_id, batch.coords[i])
            groups.setdefault(sid, []).append(i)
        rehydrate_cost = 0.0
        for sid, rows in groups.items():
            sub = batch.take(np.array(rows))
            target = (
                self.queues[sid]
                if sid in self.frozen
                else self.shards.get(sid)
            )
            if target is None and sid in self.storage.cold:
                target, c = self._rehydrate_for_access(sid, trigger="insert")
                rehydrate_cost += c
            if target is None:
                continue
            self._bulk_into(sid, target, sub, frozen=sid in self.frozen)
            if sid not in self.frozen:
                # bulk rows carry no idempotency token (the batch-level
                # token cannot dedup row-by-row on a promoted replica)
                self._tee(sid, sub.coords, sub.measures)
                self._touch(sid)
                self._enforce_budget(protect={sid})
        self.inserts_done += len(batch)
        service = self.cost.bulk_time(len(batch)) + rehydrate_cost
        self._submit(service, lambda: self.transport.send(p.reply_to, ack))

    def _bulk_into(
        self, sid: int, store: ShardStore, batch: RecordBatch, frozen: bool
    ) -> None:
        """Vectorised merge for big batches, point inserts for small ones."""
        if len(batch) > max(64, len(store) // 4) and not frozen:
            merged = concat_batches(
                [store.items(), batch], self.schema.num_dims
            )
            self.shards[sid] = self.store_cls.from_batch(
                self.schema, merged, self.tree_config
            )
        else:
            for coords, m in batch.iter_rows():
                store.insert(coords, m)

    # query ---------------------------------------------------------------

    def _on_query_batch(self, msg: Message) -> None:
        """Execute a server's query fan-out.

        Each entry keeps its own token, requested shard list, box and
        span context, and is resolved and answered on its own
        (mapping-table resolution per shard, queue lookups, missing
        shards reported per entry) -- only the execution is grouped:
        the boxes addressed to one shard run through
        :meth:`ShardStore.query_batch` in a single vectorized descent,
        a lone box through :meth:`ShardStore.query` (same answer and
        ``OpStats``, no batch set-up).  Per-entry merge order over its
        shards is preserved, so an aggregate does not depend on what
        else shared the message.
        """
        p = msg.payload
        obs = self.transport.obs
        tracing = obs is not None and obs.spans_enabled
        shards, cold = self.shards, self.storage.cold
        requested_ids = p.s.tolist()
        dims = (p.x.shape[1] - 2) // 2
        pos = 0
        #: per entry: (token, parts, searched, missing, span); ``parts``
        #: holds the entry's partial aggregates in merge order, each
        #: slot filled when its group runs
        plans: list[tuple] = []
        #: (shard id, source) -> [(box, parts, slot, span)], source
        #: 0 = primary shard, 1 = insertion queue, 2 = replica
        groups: dict[tuple[int, int], list[tuple]] = {}
        for i, row in enumerate(p.x):
            token, n_shards = row[:2].tolist()
            span = (
                obs.start_span(
                    "worker.query",
                    self.name,
                    parent=p.ctx[i] if p.ctx is not None else None,
                )
                if tracing
                else None
            )
            box = Box(row[2 : 2 + dims], row[2 + dims :])
            order: list[tuple[int, int]] = []
            searched = missing = 0
            for requested in requested_ids[pos : pos + n_shards]:
                hit = False
                for sid in self._resolve_query(requested):
                    if sid in shards:
                        order.append((sid, 0))
                        searched += 1
                        hit = True
                    elif sid in cold:
                        searched += 1
                        hit = True
                        # layer-map pruning per entry: only boxes that
                        # touch the WARM shard's bounding key get a
                        # slot (a pruned entry's contribution is the
                        # empty aggregate -- the merge identity -- and
                        # the blob is never read)
                        if cold[sid].intersects(box):
                            order.append((sid, 0))
                    elif sid in self.replicas:
                        # bounded-staleness read routed here by the
                        # server: serve from the replica copy
                        order.append((sid, 2))
                        searched += 1
                        hit = True
                        self.replica_queries += 1
                    queue = self.queues.get(sid)
                    if queue is not None and len(queue):
                        order.append((sid, 1))
                        hit = True
                if not hit:
                    # the system image still names this worker for a
                    # shard it no longer holds (e.g. restarted after a
                    # crash, restore pending): report the gap so
                    # coverage stays honest
                    missing += 1
            pos += n_shards
            parts: list = [None] * len(order)
            for slot, gkey in enumerate(order):
                groups.setdefault(gkey, []).append((box, parts, slot, span))
            plans.append((token, parts, searched, missing, span))
        total_stats = OpStats()
        rehydrate_cost = 0.0
        for (sid, source), members in groups.items():
            if source == 0:
                # look up at execution time: an earlier group's budget
                # enforcement may have spilled this shard, and a WARM
                # shard with a slot needs rehydrating now
                store = shards.get(sid)
                if store is None:
                    store, c = self._rehydrate_for_access(
                        sid, trigger="query"
                    )
                    rehydrate_cost += c
                if store is None:  # pragma: no cover - defensive
                    for _box, parts, slot, _span in members:
                        parts[slot] = Aggregate.empty()
                    continue
                self._touch(sid)
            elif source == 1:
                store = self.queues[sid]
            else:
                store = self.replicas[sid]
            if len(members) == 1:
                kernel = "query"
                res = (store.query(members[0][0]),)
            else:
                kernel = "query_batch"
                res = store.query_batch([m[0] for m in members])
            for (_box, parts, slot, span), (sub, stats) in zip(members, res):
                parts[slot] = sub
                total_stats.merge(stats)
                if span is not None and source != 1:
                    # zero-duration marker; ``nodes`` is this box's work
                    obs.finish_span(
                        obs.start_span(
                            "tree.query", self.name, parent=span.ctx, shard=sid
                        ),
                        nodes=stats.nodes_visited,
                    )
            if obs is not None:
                group_stats = OpStats()
                for _sub, stats in res:
                    group_stats.merge(stats)
                obs.record_tree_op(kernel, group_stats, rows=len(members))
        x: list[tuple] = []
        g: list[tuple] = []
        for token, parts, searched, missing, _span in plans:
            agg = Aggregate.empty()
            for sub in parts:
                agg.merge(sub)
            x.append((token, agg.count, searched, missing, self.worker_id))
            g.append((agg.total, agg.vmin, agg.vmax))
        self.queries_done += len(plans)
        service = (
            self.cost.query_batch_time(len(plans), total_stats)
            + rehydrate_cost
        )

        def reply() -> None:
            if tracing:
                for _token, _parts, searched, missing, span in plans:
                    obs.finish_span(span, searched=searched, missing=missing)
            self.transport.send(
                p.reply_to,
                Message(
                    "query_result_batch",
                    QueryResultBatch(i64(x), f64(g)),
                    sender=self,
                ),
            )

        self._submit(service, reply)

    # split (manager-initiated) ------------------------------------------

    def _on_split_shard(self, msg: Message) -> None:
        shard_id, new_low, new_high, reply_to = msg.payload
        obs = self.transport.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "worker.split", self.name, parent=msg.ctx, shard=shard_id
            )
        store = self.transfer.begin(shard_id, min_items=2)
        if store is None:
            if obs is not None:
                obs.finish_span(span, ok=False)
            self.transport.send(
                reply_to,
                Message("split_failed", (shard_id, self.worker_id), sender=self),
            )
            return
        try:
            plane = store.split_query()
        except ValueError:
            self.transfer.cancel(shard_id)
            if obs is not None:
                obs.finish_span(span, ok=False)
            self.transport.send(
                reply_to,
                Message("split_failed", (shard_id, self.worker_id), sender=self),
            )
            return
        service = self.cost.split_time(len(store))

        def finish() -> None:
            self.transfer.split_cutover(
                shard_id, store, plane, new_low, new_high
            )
            if obs is not None:
                obs.finish_span(span, ok=True)
            self.transport.send(
                reply_to,
                Message(
                    "split_done",
                    (shard_id, new_low, new_high, self.worker_id),
                    sender=self,
                ),
            )

        self._submit(service, finish)

    # migration --------------------------------------------------------------

    def _on_migrate_shard(self, msg: Message) -> None:
        shard_id, dst, reply_to = msg.payload  # dst is a Worker entity
        store = self.transfer.begin(shard_id)
        if store is None:
            self.transport.send(
                reply_to,
                Message("migrate_failed", (shard_id, self.worker_id), sender=self),
            )
            return
        blob = self.storage.encode(store)
        service = self.cost.serialize_time(len(store))

        def send_blob() -> None:
            self.transport.send(
                dst,
                Message(
                    "migrate_in",
                    (shard_id, blob, self, reply_to),
                    size=len(blob),
                    sender=self,
                ),
            )

        self._submit(service, send_blob)

    def _on_migrate_abort(self, msg: Message) -> None:
        """Manager gave up on a wedged migration (e.g. the destination
        died mid-transfer): unfreeze and fold the queue back in."""
        shard_id = msg.payload[0]
        if shard_id not in self.frozen or shard_id not in self.shards:
            return
        self.transfer.cancel(shard_id)

    def _on_migrate_in(self, msg: Message) -> None:
        shard_id, blob, src, reply_to = msg.payload
        store = self.storage.decode(blob)
        self.transfer.announce(shard_id, INSTALLING)
        service = self.cost.deserialize_time(len(store))

        def ready() -> None:
            self.transfer.install(shard_id, store, publish=False)
            self.transport.send(
                src,
                Message("migrate_ready", (shard_id, self, reply_to), sender=self),
            )

        self._submit(service, ready)

    def _on_migrate_ready(self, msg: Message) -> None:
        shard_id, dst, reply_to = msg.payload
        if shard_id not in self.frozen:
            # the migration was aborted before the destination became
            # ready: keep ownership, tell the destination to discard
            self.transport.send(
                dst, Message("drop_shard", (shard_id,), sender=self)
            )
            self.transport.send(
                reply_to,
                Message("migrate_failed", (shard_id, self.worker_id), sender=self),
            )
            return
        # Hand off anything queued during the transfer, then cut over.
        self.transfer.cutover_out(shard_id, dst)
        self.transport.send(
            reply_to,
            Message(
                "migrate_done",
                (shard_id, self.worker_id, dst.worker_id),
                sender=self,
            ),
        )

    def _on_queue_transfer(self, msg: Message) -> None:
        shard_id, blob, _ = msg.payload
        self.transfer.absorb(shard_id, batch_from_wire(blob))

    def _on_drop_shard(self, msg: Message) -> None:
        """Discard an orphan copy left by an aborted migration."""
        shard_id = msg.payload[0]
        if shard_id not in self.frozen:
            self.shards.pop(shard_id, None)
            self.storage.drop(shard_id)
            self.transfer.finish(shard_id)

    # -- failover restore ------------------------------------------------------

    def _on_restore_shard(self, msg: Message) -> None:
        """Install a checkpointed shard lost by a failed worker.

        ``blob`` is the latest checkpoint (``None`` when the shard was
        never checkpointed: ownership still converges, but its data is
        lost).  Publishing the znode re-points every server image.
        """
        shard_id, blob, reply_to = msg.payload
        if blob is None:
            store = self.store_cls(self.schema, self.tree_config)
        else:
            store = self.storage.decode(blob)
            self.checkpoint_deserializations += 1
        # a restore target never also holds a replica of the shard (the
        # manager prefers promotion then), but a stale copy from an
        # earlier epoch must not shadow the restored primary
        self._drop_replica_state(shard_id)
        self.transfer.announce(shard_id, INSTALLING)
        service = self.cost.deserialize_time(len(store))

        def ready() -> None:
            self.transfer.install(shard_id, store, publish=True)
            if self.checkpoints is not None and blob is not None:
                # re-own the blob so a second failure still recovers
                self.checkpoints.put(
                    shard_id, blob, self.worker_id, self.clock.now
                )
            self.transport.send(
                reply_to,
                Message(
                    "restore_done",
                    (shard_id, self.worker_id, len(store)),
                    sender=self,
                ),
            )

        self._submit(service, ready)

    # -- residency: manager-driven spill / rehydrate ---------------------------

    def _on_spill_shard(self, msg: Message) -> None:
        """Policy-driven spill: HOT -> WARM, releasing the columns.

        Idempotent: an already-WARM shard re-acks (a duplicated or
        retransmitted request changes nothing); absent or frozen shards
        fail so the manager retires the op and replans.
        """
        shard_id, reply_to = msg.payload
        if shard_id in self.storage.cold:
            self.transport.send(
                reply_to,
                Message("spill_done", (shard_id, self.worker_id), sender=self),
            )
            return
        store = self.shards.get(shard_id)
        if store is None or shard_id in self.frozen:
            self.transport.send(
                reply_to,
                Message("spill_failed", (shard_id, self.worker_id), sender=self),
            )
            return
        obs = self.transport.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "worker.spill", self.name, parent=msg.ctx, shard=shard_id
            )
        service = self.cost.spill_time(len(store))

        def finish() -> None:
            # re-check: a migration may have frozen the shard, or an op
            # may have moved it, while the encode was in flight
            if shard_id in self.shards and shard_id not in self.frozen:
                self.storage.spill(shard_id)
                self._last_access.pop(shard_id, None)
                ok = True
            else:
                ok = shard_id in self.storage.cold
            if obs is not None:
                obs.finish_span(span, ok=ok)
            kind = "spill_done" if ok else "spill_failed"
            self.transport.send(
                reply_to,
                Message(kind, (shard_id, self.worker_id), sender=self),
            )

        self._submit(service, finish)

    def _on_rehydrate_shard(self, msg: Message) -> None:
        """Policy-driven rehydrate: pull a WARM shard HOT ahead of
        demand (the balancer found headroom).  Idempotent like spill."""
        shard_id, reply_to = msg.payload
        if shard_id in self.shards:
            self.transport.send(
                reply_to,
                Message(
                    "rehydrate_done",
                    (shard_id, self.worker_id, len(self.shards[shard_id])),
                    sender=self,
                ),
            )
            return
        entry = self.storage.cold.get(shard_id)
        if entry is None:
            self.transport.send(
                reply_to,
                Message(
                    "rehydrate_failed", (shard_id, self.worker_id), sender=self
                ),
            )
            return
        _store, service = self._rehydrate_for_access(shard_id, trigger="policy")
        self._submit(
            service,
            lambda: self.transport.send(
                reply_to,
                Message(
                    "rehydrate_done",
                    (shard_id, self.worker_id, entry.items),
                    sender=self,
                ),
            ),
        )

    # -- replication: primary side ---------------------------------------------

    def _repl_state(self, shard_id: int, epoch: int) -> dict:
        """The primary-side stream state for ``shard_id`` at ``epoch``,
        created (or reset, when the epoch moved) on demand."""
        st = self._repl.get(shard_id)
        if st is None or st["epoch"] != epoch:
            st = {"epoch": epoch, "head": 0, "log": {}, "peers": {}}
            self._repl[shard_id] = st
            self._start_repl_timer()
        return st

    def _start_repl_timer(self) -> None:
        """Arm the retransmit tick, once, the first time this worker
        becomes a replicating primary.  Replication-free runs never
        reach this, so they schedule no extra events."""
        if self._repl_timer_on:
            return
        self._repl_timer_on = True
        self.clock.every(self.repl_retry, self._repl_tick)

    def _tee(self, shard_id: int, c: np.ndarray, v: np.ndarray, o=None) -> None:
        """Append applied insert rows to the shard's replication stream.

        ``c``/``v``/``o`` are the rows' coords, measures and op ids (the
        idempotency tokens, so a promoted replica can dedup client
        retries exactly like the primary did); without ``o`` the rows
        carry none (``0``): bulk rows and folded-in insertion queues.
        Each call is one sequence-numbered batch; the log retains the
        arrays until every peer cumulatively acknowledges it.
        """
        st = self._repl.get(shard_id)
        if st is None or not st["peers"]:
            return
        if o is None:
            o = np.zeros(len(v), dtype=np.int64)
        st["head"] += 1
        seq = st["head"]
        st["log"][seq] = [(c, v, o), self.clock.now, self.clock.now]
        for peer in st["peers"].values():
            self._send_repl(shard_id, st, seq, peer["entity"])
        self.repl_batches_sent += len(st["peers"])
        self.repl_rows_teed += len(v)

    def _send_repl(self, shard_id: int, st: dict, seq: int, entity) -> None:
        rows, t_created, _ = st["log"][seq]
        self.transport.send(
            entity,
            Message(
                "replica_batch",
                ReplicaBatch(
                    *rows, i64([shard_id, st["epoch"], seq]), f64([t_created]), self
                ),
                sender=self,
            ),
        )

    def _repl_tick(self) -> None:
        """Retransmit unacknowledged stream batches and handoffs; trim
        log entries every peer has acknowledged."""
        if self.crashed:
            return
        now = self.clock.now
        for sid, st in list(self._repl.items()):
            self._trim_log(st)
            peers = st["peers"].values()
            for seq in sorted(st["log"]):
                entry = st["log"][seq]
                if now - entry[2] < self.repl_retry - 1e-12:
                    continue
                targets = [p for p in peers if p["acked"] < seq]
                if not targets:
                    continue
                entry[2] = now
                for p in targets:
                    self._send_repl(sid, st, seq, p["entity"])
                self.repl_batches_sent += len(targets)
        for sid, h in list(self._handoffs.items()):
            if now - h["last_sent"] >= self.repl_retry - 1e-12:
                h["last_sent"] = now
                self._send_handoff(sid, h)

    @staticmethod
    def _trim_log(st: dict) -> None:
        peers = st["peers"]
        floor = (
            min(p["acked"] for p in peers.values()) if peers else st["head"]
        )
        for seq in [s for s in st["log"] if s <= floor]:
            del st["log"][seq]

    def _on_replicate_shard(self, msg: Message) -> None:
        """Manager asked this primary to seed a replica of ``shard_id``
        on ``dst``: register the peer (so the live stream starts
        immediately), serialize a snapshot, ship it."""
        shard_id, dst, dst_wid, reply_to = msg.payload
        store = self.shards.get(shard_id)
        if store is None or shard_id in self.frozen:
            self.transport.send(
                reply_to,
                Message(
                    "replicate_failed", (shard_id, self.worker_id), sender=self
                ),
            )
            return
        obs = self.transport.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "worker.replicate", self.name, parent=msg.ctx, shard=shard_id
            )
        epoch = self.zk.get(f"/epochs/{shard_id}") or 0
        st = self._repl_state(shard_id, epoch)
        head = st["head"]
        # the snapshot covers everything up to ``head``; rows applied
        # while it serializes stream (and retransmit) their way over
        st["peers"][dst_wid] = {"entity": dst, "acked": head}
        blob = self.storage.encode(store)
        service = self.cost.serialize_time(len(store))

        def send_blob() -> None:
            if obs is not None:
                obs.finish_span(span, items=len(store))
            self.transport.send(
                dst,
                Message(
                    "replica_install",
                    (shard_id, epoch, head, blob, self, reply_to),
                    size=len(blob),
                    sender=self,
                ),
            )

        self._submit(service, send_blob)

    def _on_replica_ack(self, msg: Message) -> None:
        """Cumulative acknowledgement from a replica: everything up to
        ``frontier`` arrived, so the log can shed it."""
        shard_id, epoch, frontier, wid = msg.payload
        st = self._repl.get(shard_id)
        if st is None or st["epoch"] != epoch:
            return
        peer = st["peers"].get(wid)
        if peer is None:
            return
        peer["acked"] = max(peer["acked"], frontier)
        self._trim_log(st)

    def _on_replica_remove(self, msg: Message) -> None:
        """Manager pruned a (dead or stale) replica -- or a server tore
        down a rollup-tier subscription: stop streaming to it."""
        shard_id, wid = msg.payload
        st = self._repl.get(shard_id)
        if st is not None:
            st["peers"].pop(wid, None)
            self._trim_log(st)

    def _on_rollup_sync(self, msg: Message) -> None:
        """Seed a server's rollup cubes from this primary's shard.

        Registers the server as a peer on the shard's replication
        stream (subscriber ids are negative, so they never collide with
        worker ids and never appear under ``/replicas``), snapshots the
        stream head, folds the shard's rows into one dense slab per
        requested cube key, and replies with ``(epoch, head, slabs)``.
        Rows applied after the head stream over as ordinary
        ``replica_batch`` messages, so slab + stream is exactly the
        shard -- the same contract a seeded replica gets.
        """
        shard_id, sub_id, keys_wire, reply_to = msg.payload
        store = self.shards.get(shard_id)
        if store is None or shard_id in self.frozen:
            self.transport.send(
                reply_to,
                Message(
                    "rollup_sync_failed",
                    (shard_id, self.worker_id),
                    sender=self,
                ),
            )
            return
        epoch = self.zk.get(f"/epochs/{shard_id}") or 0
        st = self._repl_state(shard_id, epoch)
        head = st["head"]
        st["peers"][sub_id] = {"entity": reply_to, "acked": head}
        batch = store.items()
        pairs = []
        size = 64
        for kw in keys_wire:
            key = CubeKey.from_wire(kw)
            cells = accumulate_cells(
                self.schema, key, batch.coords, batch.measures
            )
            pairs.append((key.to_wire(), cells))
            size += cells.resident_bytes()
        self.rollup_seeds += len(pairs)
        service = self.cost.rollup_seed_time(len(batch) * max(1, len(pairs)))

        def send_cells() -> None:
            self.transport.send(
                reply_to,
                Message(
                    "rollup_cells",
                    (shard_id, epoch, head, pairs, self.worker_id),
                    size=size,
                    sender=self,
                ),
            )

        self._submit(service, send_cells)

    # -- replication: replica side ---------------------------------------------

    def _on_replica_install(self, msg: Message) -> None:
        """Install a seeded replica snapshot and start acknowledging."""
        shard_id, epoch, head, blob, primary, reply_to = msg.payload
        cur = self._rstate.get(shard_id)
        if cur is not None and cur["epoch"] > epoch:
            return  # a stale (pre-promotion) seed arrived late
        if shard_id in self.shards:
            return  # we were promoted while the blob was in flight
        store = self.storage.decode(blob)
        self.replica_seeds += 1
        service = self.cost.deserialize_time(len(store))

        def ready() -> None:
            if shard_id in self.shards:
                return
            self.replicas[shard_id] = store
            self._rstate[shard_id] = {
                "epoch": epoch,
                "frontier": head,
                "applied": set(),
                "pending_t": {},
                "wm_time": self.clock.now,
            }
            if self._zk_reachable():
                self._publish_watermark(shard_id)
            self.transport.send(
                reply_to,
                Message(
                    "replicate_done", (shard_id, self.worker_id), sender=self
                ),
            )
            self.transport.send(
                primary,
                Message(
                    "replica_ack",
                    (shard_id, epoch, head, self.worker_id),
                    sender=self,
                ),
            )

        self._submit(service, ready)

    def _on_replica_batch(self, msg: Message) -> None:
        """Apply one sequence-numbered stream batch to a replica.

        Epoch fencing: batches from an older epoch (a demoted primary
        that does not know it yet) are dropped on the floor; duplicates
        within the epoch are re-acked without applying.
        """
        p = msg.payload
        shard_id, epoch, seq = p.m.tolist()
        t_created = float(p.g[0])
        primary = p.primary
        if shard_id in self.shards:
            return  # we are the primary now; fencing demotes the sender
        st = self._rstate.get(shard_id)
        if st is None or epoch != st["epoch"]:
            return  # not seeded yet (retransmit returns) or fenced
        if seq <= st["frontier"] or seq in st["applied"]:
            self.transport.send(
                primary,
                Message(
                    "replica_ack",
                    (shard_id, epoch, st["frontier"], self.worker_id),
                    sender=self,
                ),
            )
            return
        store = self.replicas.get(shard_id)
        if store is None:  # pragma: no cover - defensive
            return
        rows = len(p.v)
        stats = store.insert_batch(RecordBatch(p.c, p.v))
        # remember the primary's idempotency tokens: a promoted replica
        # must re-ack (not re-apply) client retries of inserts the dead
        # primary already acknowledged
        self._seen_ops.update(op_id for op_id in p.o.tolist() if op_id)
        st["applied"].add(seq)
        st["pending_t"][seq] = t_created
        while st["frontier"] + 1 in st["applied"]:
            nxt = st["frontier"] + 1
            st["applied"].remove(nxt)
            st["frontier"] = nxt
            st["wm_time"] = st["pending_t"].pop(nxt)
        self.repl_rows_applied += rows
        lag = self.clock.now - t_created
        self.repl_apply_lags.extend([lag] * rows)
        service = self.cost.replicate_apply_time(rows, stats)

        def ack() -> None:
            cur = self._rstate.get(shard_id)
            if cur is None or cur["epoch"] != epoch:
                return
            self.transport.send(
                primary,
                Message(
                    "replica_ack",
                    (shard_id, epoch, cur["frontier"], self.worker_id),
                    sender=self,
                ),
            )

        self._submit(service, ack)

    def _publish_watermark(self, shard_id: int) -> None:
        st = self._rstate.get(shard_id)
        if st is None:
            return
        self.zk.set(
            f"/replicas/{shard_id}/{self.worker_id}",
            (st["epoch"], st["frontier"], st["wm_time"], self.clock.now),
        )

    def _drop_replica_state(self, shard_id: int) -> None:
        had = self._rstate.pop(shard_id, None)
        self.replicas.pop(shard_id, None)
        if had is not None and self._zk_reachable():
            self.zk.delete(f"/replicas/{shard_id}/{self.worker_id}")

    def _on_drop_replica(self, msg: Message) -> None:
        """Manager invalidated this copy (epoch moved on): discard it."""
        self._drop_replica_state(msg.payload[0])

    # -- replication: promotion and fencing --------------------------------------

    def _on_promote_shard(self, msg: Message) -> None:
        """Promote the local replica to primary: a pure metadata flip.

        The store is re-tagged in memory, the system image re-pointed,
        and a fresh stream epoch opened -- no checkpoint blob is ever
        deserialized on this path.
        """
        shard_id, new_epoch, reply_to = msg.payload
        store = self.replicas.pop(shard_id, None)
        self._rstate.pop(shard_id, None)
        if store is None:
            if shard_id in self.shards:
                # duplicated promote: already flipped, just re-ack
                self.transport.send(
                    reply_to,
                    Message(
                        "promote_done",
                        (shard_id, self.worker_id, len(self.shards[shard_id])),
                        sender=self,
                    ),
                )
                return
            self.transport.send(
                reply_to,
                Message(
                    "promote_failed", (shard_id, self.worker_id), sender=self
                ),
            )
            return
        obs = self.transport.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "worker.promote", self.name, parent=msg.ctx, shard=shard_id
            )
        self.shards[shard_id] = store
        self._repl_state(shard_id, new_epoch)
        self.promotions += 1
        if self._zk_reachable():
            self.zk.delete(f"/replicas/{shard_id}/{self.worker_id}")
        service = self.cost.promote_time()

        def flip() -> None:
            if shard_id not in self.shards:
                return  # crashed (or lost it again) mid-promotion
            self._publish_shard(shard_id)
            self.publish_stats()
            if obs is not None:
                obs.finish_span(span, items=len(store))
            self.transport.send(
                reply_to,
                Message(
                    "promote_done",
                    (shard_id, self.worker_id, len(store)),
                    sender=self,
                ),
            )

        self._submit(service, flip)

    def _reconcile(self) -> None:
        """After a liveness lapse long enough to be declared dead, check
        every held shard against the system image and demote copies the
        cluster re-homed while this worker was away.  This is the other
        half of epoch fencing: a healed partition can never leave two
        workers both acting as a shard's primary.
        """
        for sid in sorted(self.shards):
            if sid in self.frozen:
                continue
            data = self.zk.get(f"/shards/{sid}")
            if data is None or data[2] == self.worker_id:
                continue
            self._demote(sid, data[2])
        for sid in sorted(self.storage.cold):
            # WARM copies re-homed while we were away: the cold entry
            # is stale (its data was restored elsewhere from the
            # checkpoint blob), so just forget it -- a spilled shard
            # has no unacknowledged stream suffix to hand off
            data = self.zk.get(f"/shards/{sid}")
            if data is None or data[2] == self.worker_id:
                continue
            self.storage.drop(sid)
            self._repl.pop(sid, None)

    def _demote(self, shard_id: int, new_owner: int) -> None:
        """Drop primariness of ``shard_id`` in favour of ``new_owner``,
        handing off any retained stream suffix the new owner has not
        acknowledged (op-id dedup there keeps the effect exactly-once).
        """
        store = self.shards.pop(shard_id, None)
        self.queues.pop(shard_id, None)
        self.frozen.discard(shard_id)
        st = self._repl.pop(shard_id, None)
        if store is None:
            return
        self.demotions += 1
        suffix: list = []
        if st is not None:
            peer = st["peers"].get(new_owner)
            acked = peer["acked"] if peer is not None else 0
            suffix = [st["log"][seq][0] for seq in sorted(st["log"]) if seq > acked]
        if suffix:
            rows = tuple(np.concatenate(col) for col in zip(*suffix))
            h = {"rows": rows, "dst": new_owner, "last_sent": self.clock.now}
            self._handoffs[shard_id] = h
            self._send_handoff(shard_id, h)

    def _send_handoff(self, shard_id: int, h: dict) -> None:
        entity = self.peers.get(h["dst"])
        if entity is None or entity.crashed:
            self._handoffs.pop(shard_id, None)
            return
        self.transport.send(
            entity,
            Message(
                "primary_handoff",
                PrimaryHandoff(*h["rows"], i64([shard_id]), self),
                sender=self,
            ),
        )

    def _on_primary_handoff(self, msg: Message) -> None:
        """A demoted primary forwarded the stream suffix we never saw:
        apply the rows we do not already have (by op id) and ack."""
        p = msg.payload
        shard_id = int(p.m[0])
        target = None
        if shard_id in self.frozen:
            target = self.queues.get(shard_id)
        elif shard_id in self.shards:
            target = self.shards[shard_id]
        if target is not None:
            applied: list[int] = []
            for i, (op_id, measure) in enumerate(zip(p.o.tolist(), p.v.tolist())):
                if op_id and op_id in self._seen_ops:
                    self.dedup_hits += 1
                    continue
                target.insert(p.c[i], measure)
                if op_id:
                    self._seen_ops.add(op_id)
                applied.append(i)
            if applied and shard_id not in self.frozen:
                self._tee(shard_id, p.c[applied], p.v[applied], p.o[applied])
        self.transport.send(
            p.src, Message("handoff_ack", (shard_id,), sender=self)
        )

    def _on_handoff_ack(self, msg: Message) -> None:
        self._handoffs.pop(msg.payload[0], None)

    # -- zookeeper helpers -----------------------------------------------------

    def _publish_shard(self, shard_id: int) -> None:
        entry = self.storage.cold.get(shard_id)
        if entry is not None:
            key, size, residency = entry.key, entry.items, WARM
        else:
            store = self.shards[shard_id]
            key, size, residency = store.bounding_key(), len(store), HOT
        self.zk.set(
            f"/shards/{shard_id}",
            (shard_id, key_to_wire(key), self.worker_id, size, residency),
        )

    def install_shard(self, shard_id: int, store: ShardStore) -> None:
        """Bootstrap helper: place a pre-built shard on this worker."""
        self.shards[shard_id] = store
        self._publish_shard(shard_id)
        self._touch(shard_id)
        self._enforce_budget(protect={shard_id})
