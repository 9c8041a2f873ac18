"""Worker nodes: the shard host (paper Sections III-A and III-E).

A worker stores several shards (each a Hilbert PDC tree by default) and
executes insert and aggregate-query operations against them on a
simulated ``k``-thread pool.  :class:`Worker` itself is only that host:
the shards, the *mapping table* that lets in-flight operations addressed
to a split shard reach its children, the *insertion queues* that absorb
new items while a shard is frozen (queried alongside it, so query
processing is never interrupted), the three data-plane handlers, the
stats it publishes, crash/restart, and the heartbeat and checkpoint
timers.

Everything else a worker does lives in three components, each owning
its state and the ``_on_<kind>`` handlers of its messages:

* :class:`~repro.cluster.transfer.ShardTransfer` -- split, migration,
  queue hand-off, abort, restore;
* :class:`~repro.cluster.storage.ShardStorage` -- the shard blob codec
  and the HOT/WARM residency tier (budget, LRU, spill, rehydrate);
* :class:`~repro.cluster.replication.Replication` -- replication
  streams and replicas, rollup seeding, promotion, demotion, hand-off.

:meth:`Worker.receive` dispatches through one table built from the host
and its components at construction.  The host calls the components only
through a few named methods (``tee``, ``touch``, ``ensure_hot``,
``enforce``, ``on_beat``, ``clear``, ``add_stats``) and reads two public
views (``storage.cold``, ``replication.replicas``); components reach the
host through its public attributes and :meth:`Worker.send`,
:meth:`Worker.span`, :meth:`Worker.submit`, :meth:`Worker.publish_shard`
and :meth:`Worker.apply`, the one path by which rows reach a store.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from ..core.aggregates import Aggregate
from ..core.base import Hyperplane, ShardStore
from ..core.config import OpStats, TreeConfig
from ..core.hilbert_trees import HilbertPDCTree
from ..olap.keys import Box
from ..olap.records import RecordBatch
from ..olap.schema import Schema
from .cost import CostModel
from .faults import CheckpointStore
from .image import ShardInfo
from .replication import Replication
from .simclock import SimClock
from .storage import HOT, WARM, ShardStorage
from .transfer import ShardTransfer
from .transport import Entity, Message, Transport
from .wire import BulkAck, InsertBatchAck, QueryResultBatch, f64, i64
from .zookeeper import Zookeeper

__all__ = ["Applied", "Beat", "WORKER_THREADS", "Worker"]

#: service threads of a worker (a c3.4xlarge-ish host)
WORKER_THREADS = 8


class Beat(NamedTuple):
    """``/heartbeats/<worker>``: the liveness beacon (an ephemeral znode)."""

    time: float
    #: measured hot bytes, so balancer policies plan on real memory at
    #: heartbeat freshness (stats lag behind)
    resident_bytes: int
    #: bumped on every crash and restart: a beat whose incarnation moved
    #: comes from a process that lost its shards, however briefly it
    #: was away
    incarnation: int


class Applied(NamedTuple):
    """What :meth:`Worker.apply` did with a set of rows."""

    #: modelled seconds spent rehydrating WARM shards for the rows
    rehydrate_cost: float
    #: per target, in apply order: resolved shard id, the indices of
    #: its rows, the counters of its ``insert_batch``
    groups: list[tuple[int, np.ndarray, OpStats]]
    #: indices of the rows of shards this worker does not hold
    unplaced: list[int]


def _no_span(**tags) -> None:
    """What :meth:`Worker.span` returns with observability off."""


class OpIds:
    """The op ids a worker has applied, a bit each.  Ids come in dense
    runs -- a client's ``(client_id << 24) | seq``, the bulk loader's
    token counter -- so 64-bit words of them take a few bytes an id,
    where a ``set`` of ints spent some 100."""

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def __contains__(self, op_id: int) -> bool:
        return self._words.get(op_id >> 6, 0) >> (op_id & 63) & 1 == 1

    def update(self, op_ids) -> None:
        words = self._words
        for op_id in op_ids:
            words[op_id >> 6] = words.get(op_id >> 6, 0) | 1 << (op_id & 63)

    def clear(self) -> None:
        self._words.clear()

    def __bool__(self) -> bool:
        return bool(self._words)


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
        threads: int = WORKER_THREADS,
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
        #: per-shard insertion queues, live while a split/migration runs
        self.queues: dict[int, ShardStore] = {}
        #: mapping table: old shard id -> (hyperplane, low id, high id)
        self.mapping: dict[int, tuple[Hyperplane, int, int]] = {}
        self.frozen: set[int] = set()
        self.inserts_done = 0
        self.queries_done = 0
        self.replica_queries = 0
        self.crashed = False
        #: incarnation: bumped on crash/restart; pending pool callbacks
        #: from an older one are discarded (a dead process sends no acks)
        self._epoch = 0
        #: idempotency tokens of inserts already applied (dedup)
        self.seen_ops = OpIds()
        self.dedup_hits = 0
        self.checkpoints: Optional[CheckpointStore] = None
        self.heartbeat_period: Optional[float] = None
        self.heartbeat_ttl: Optional[float] = None
        #: virtual time of the last successful heartbeat write; a gap
        #: larger than the ttl means this worker was plausibly declared
        #: dead and must reconcile its primariness (epoch fencing)
        self._last_beat_write: Optional[float] = None
        #: worker id -> entity directory, shared in by the cluster
        #: wiring; used to address handoffs after a demotion
        self.peers: dict[int, "Worker"] = {}
        self.transfer = ShardTransfer(self)
        self.storage = ShardStorage(self)
        self.replication = Replication(self)
        #: message kind -> the one handler that owns it
        self._handlers: dict[str, Callable[[Message], None]] = {}
        for owner in (self, self.transfer, self.storage, self.replication):
            for attr in dir(owner):
                if attr.startswith("_on_"):
                    if attr[4:] in self._handlers:
                        raise ValueError(f"two handlers for message {attr[4:]!r}")
                    self._handlers[attr[4:]] = getattr(owner, attr)

    # -- what components (and the handlers below) build on -------------------

    def send(self, dst: Entity, kind: str, payload) -> None:
        """Send ``payload`` to ``dst`` as this worker."""
        self.transport.send(dst, Message(kind, payload, sender=self))

    def span(self, name: str, msg: Message, **tags) -> Callable[..., None]:
        """Open the obs span of a manager-driven op under the request's
        context and return its ``finish(**tags)``; a no-op with
        observability off."""
        obs = self.transport.obs
        if obs is None:
            return _no_span
        span = obs.start_span(name, self.name, parent=msg.ctx, **tags)
        return lambda **done: obs.finish_span(span, **done)

    def submit(self, service: float, fn) -> None:
        """Pool submit whose completion is void if the worker crashed."""
        epoch = self._epoch
        self.pool.submit(
            service, lambda: fn() if self._epoch == epoch else None
        )

    def zk_reachable(self) -> bool:
        """Whether this worker can currently talk to Zookeeper.

        Heartbeats are direct calls, not transport messages, so a
        network partition must be checked explicitly -- otherwise an
        isolated worker would keep looking alive forever.  Only
        deterministic (``prob == 1``) partition rules apply; the check
        draws nothing from the fault generator.
        """
        f = self.transport.faults
        return f is None or not f.blocked(self.name, self.zk.name, "heartbeat")

    def publish_shard(self, shard_id: int) -> None:
        """Point ``/shards/<shard_id>`` at this worker."""
        entry = self.storage.cold.get(shard_id)
        if entry is not None:
            key, size, residency = entry.key, entry.items, WARM
        else:
            store = self.shards[shard_id]
            key, size, residency = store.bounding_key(), len(store), HOT
        self.zk.set(
            f"/shards/{shard_id}",
            ShardInfo(shard_id, key, self.worker_id, size, residency).to_wire(),
        )

    def install_shard(self, shard_id: int, store: ShardStore) -> None:
        """Bootstrap helper: place a pre-built shard on this worker."""
        self.shards[shard_id] = store
        self.publish_shard(shard_id)
        self.storage.touch(shard_id)
        self.storage.enforce(protect={shard_id})

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: lose all in-memory state and stop processing.

        Heartbeats cease (the ephemeral znode expires), pending service
        completions are discarded, and every incoming message is
        black-holed until :meth:`restart`.  WARM shards are lost too;
        their spill-time blobs survive in the checkpoint store, exactly
        like hot shards' periodic blobs.
        """
        self.crashed = True
        self._epoch += 1
        self.shards.clear()
        self.queues.clear()
        self.mapping.clear()
        self.frozen.clear()
        self.seen_ops.clear()
        self.storage.clear()
        self.replication.clear()

    def restart(self) -> None:
        """Rejoin empty.  The beat's new incarnation tells the manager
        this process lost its shards even when it is back before the old
        beat expired; they return by promotion or restore."""
        if not self.crashed:
            return
        self.crashed = False
        self._epoch += 1
        self.publish_stats()
        self._beat()

    # -- heartbeats / checkpoints -----------------------------------------

    def _beat(self) -> None:
        if self.crashed or self.heartbeat_period is None:
            return
        if not self.zk_reachable():
            return  # partitioned away: the ephemeral znode will expire
        now = self.clock.now
        lapsed = (
            self._last_beat_write is not None
            and now - self._last_beat_write > self.heartbeat_ttl
        )
        self._last_beat_write = now
        self.zk.set_ephemeral(
            f"/heartbeats/{self.worker_id}",
            Beat(now, self.resident_bytes(), self._epoch),
            self.heartbeat_ttl,
        )
        self.replication.on_beat(now, lapsed)

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
            self.submit(self.cost.serialize_time(total), lambda: None)

    # -- sizes ------------------------------------------------------------

    def total_items(self) -> int:
        """Primary-owned items only: replicas are copies, so counting
        them would double-book the cluster's exactly-once totals."""
        return (
            sum(len(s) for s in self.shards.values())
            + sum(len(q) for q in self.queues.values())
            + self.storage.warm_items()
        )

    def resident_bytes(self) -> int:
        """Measured bytes of hot column data on this worker: primary
        shards, live insertion queues, and replica copies.  WARM shards
        contribute nothing -- releasing their columns is the point of
        the tier."""
        return (
            sum(s.resident_bytes() for s in self.shards.values())
            + sum(q.resident_bytes() for q in self.queues.values())
            + sum(r.resident_bytes() for r in self.replication.replicas.values())
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
        self.storage.add_stats(stats)
        replicas = self.replication.replicas
        if replicas:
            stats["replica_items"] = sum(len(s) for s in replicas.values())
        self.zk.set(f"/stats/workers/{self.worker_id}", stats)

    # -- shard id resolution through the mapping table -----------------------

    def _resolve(self, shard_ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Each row's shard id followed through the mapping table to a
        shard that was not split: one ``Hyperplane.side_mask`` per split
        hop per group of rows taking it (iterative, so long split chains
        cannot hit Python's recursion limit)."""
        out = np.array(shard_ids, dtype=np.int64)
        mapping = self.mapping
        stack = [
            (sid, np.flatnonzero(out == sid))
            for sid in dict.fromkeys(out.tolist())
            if sid in mapping
        ]
        while stack:
            sid, rows = stack.pop()
            plane, low, high = mapping[sid]
            mask = plane.side_mask(coords[rows])
            for child, sub in ((low, rows[mask]), (high, rows[~mask])):
                if len(sub):
                    out[sub] = child
                    if child in mapping:
                        stack.append((child, sub))
        return out

    def _resolve_query(self, shard_id: int) -> list[int]:
        if shard_id not in self.mapping:  # not split: almost every query
            return [shard_id]
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
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise ValueError(f"{self.name}: unknown message {msg.kind!r}")
        handler(msg)

    # insert ------------------------------------------------------------

    def apply(
        self,
        shard_ids: np.ndarray,
        coords: np.ndarray,
        measures: np.ndarray,
        op_ids: Optional[np.ndarray] = None,
    ) -> Applied:
        """Put rows into this worker's stores: the only code that does.

        Resolves every row's shard through the mapping table and groups
        the rows by resolved shard, in order of each group's first row.
        A group's target is decided once, when the group's turn comes
        (an earlier group's budget enforcement may have spilled its
        shard): the insertion queue if the shard is frozen, else the
        shard, else its WARM copy rehydrated (the spilled blob would go
        stale otherwise).  Each group is one ``insert_batch``, handed its
        slice of the key words the first target computes for every row
        (:meth:`~repro.core.base.ShardStore.key_words`).  A group
        that reached the shard itself is also one ``replication.tee``
        (carrying ``op_ids`` when given; a queue's rows are teed when it
        is folded or drained) and one residency touch and budget
        enforcement.  The op ids of the rows placed join ``seen_ops``.
        Rows of a shard this worker does not hold are left to the caller
        (``Applied.unplaced``).
        """
        sids = self._resolve(shard_ids, coords)
        rehydrate_cost = 0.0
        groups: list[tuple[int, np.ndarray, OpStats]] = []
        unplaced: list[int] = []
        words = None
        for sid in dict.fromkeys(sids.tolist()):
            rows = np.flatnonzero(sids == sid)
            frozen = sid in self.frozen
            target = self.queues[sid] if frozen else self.shards.get(sid)
            if target is None:
                target, cost = self.storage.ensure_hot(sid, trigger="insert")
                rehydrate_cost += cost
            if target is None:
                unplaced.extend(rows.tolist())
                continue
            c, v = coords[rows], measures[rows]
            if words is None:
                words = target.key_words(coords)
            w = None if words is None else words[rows]
            groups.append((sid, rows, target.insert_batch(RecordBatch(c, v), w)))
            ops = None
            if op_ids is not None:
                ops = op_ids[rows]
                self.seen_ops.update(op_id for op_id in ops.tolist() if op_id)
            if not frozen:
                self.replication.tee(sid, c, v, ops)
                self.storage.touch(sid)
                self.storage.enforce(protect={sid})
        return Applied(rehydrate_cost, groups, unplaced)

    def unseen(self, op_ids: np.ndarray) -> np.ndarray:
        """Indices of the rows whose op id this worker has not applied
        (an op id of 0, "none", never has); the rest count as dedup
        hits."""
        fresh = np.flatnonzero(
            [not (op_id and op_id in self.seen_ops) for op_id in op_ids.tolist()]
        )
        self.dedup_hits += len(op_ids) - len(fresh)
        return fresh

    def _on_insert_batch(self, msg: Message) -> None:
        """Apply a server's online inserts (paper's high-velocity path).

        Each row keeps its own idempotency ``op_id``: rows already seen
        are re-acked without applying (a retransmitted or duplicated
        message is harmless), the rest go through :meth:`apply` -- so
        the tree sees one Hilbert-sorted run sequence per shard, not
        ``n`` point inserts -- and rows whose shard moved away are
        nacked individually so the server can retry against its
        refreshed image.
        """
        p = msg.payload
        obs = self.transport.obs
        tracing = obs is not None and obs.spans_enabled
        ops = p.x[:, 2]
        fresh = self.unseen(ops)
        done = self.apply(p.x[fresh, 0], p.c[fresh], p.v[fresh], ops[fresh])
        placed = np.ones(len(ops), dtype=bool)
        placed[fresh[done.unplaced]] = False
        applied = len(fresh) - len(done.unplaced)
        self.inserts_done += applied
        total = OpStats()
        for _, _, stats in done.groups:
            total.merge(stats)
        service = self.cost.insert_batch_time(applied, total) + done.rehydrate_cost
        spans: list = []
        if tracing:
            for sid, rows, stats in done.groups:
                for i in fresh[rows].tolist():
                    row = obs.start_span(
                        "worker.apply_insert",
                        self.name,
                        parent=p.ctx[i] if p.ctx is not None else None,
                        op_id=int(ops[i]),
                    )
                    # one tree call serves the whole group: every row's
                    # tree.insert stage reports that shared descent
                    tree = obs.start_span(
                        "tree.insert",
                        self.name,
                        parent=row.ctx,
                        shard=sid,
                        rows=len(rows),
                        nodes=stats.nodes_visited,
                    )
                    spans += (tree, row)  # children close before parents

        def ack() -> None:
            if obs is not None and applied:
                obs.record_tree_op("insert_batch", total, rows=applied)
            for s in spans:
                obs.finish_span(s, ok=True)
            self.send(
                p.reply_to,
                "insert_batch_ack",
                InsertBatchAck(
                    p.x[placed, 1], p.x[~placed][:, [1, 0]], i64([self.worker_id])
                ),
            )

        self.submit(service, ack)

    def _on_bulk_insert(self, msg: Message) -> None:
        """Apply one shard's chunk of a bulk load.  Rows no shard here
        holds (the shard moved after ``bulk_load`` routed them) are named
        in the ack for the loader to re-route.  ``bulk_load`` never
        retransmits, so a token seen before marks a transport duplicate:
        it is dropped unanswered, and the first copy's ack stands."""
        p = msg.payload
        shard_id, token = p.m.tolist()
        if token and token in self.seen_ops:
            self.dedup_hits += 1
            return
        if token:
            self.seen_ops.update((token,))
        n = len(p.v)
        # bulk rows carry no idempotency token (the batch-level token
        # cannot dedup row-by-row on a promoted replica)
        done = self.apply(np.full(n, shard_id, dtype=np.int64), p.c, p.v)
        applied = n - len(done.unplaced)
        self.inserts_done += applied
        ack = BulkAck(i64([token, self.worker_id]), i64(done.unplaced))
        service = self.cost.bulk_time(applied) + done.rehydrate_cost
        self.submit(service, lambda: self.send(p.reply_to, "bulk_ack", ack))

    # query ---------------------------------------------------------------

    def _on_query_batch(self, msg: Message) -> None:
        """Execute a server's query fan-out.

        Each entry keeps its own token, requested shard list, box and
        span context, and is resolved and answered on its own
        (mapping-table resolution per shard, queue lookups, missing
        shards reported per entry) -- only the execution is grouped:
        the boxes addressed to one shard run through one
        :meth:`ShardStore.query_batch` call.  Per-entry merge order
        over its shards is preserved, so an aggregate does not depend
        on what else shared the message.
        """
        p = msg.payload
        obs = self.transport.obs
        tracing = obs is not None and obs.spans_enabled
        shards, cold = self.shards, self.storage.cold
        replicas = self.replication.replicas
        queues = self.queues
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
            # views of the payload's row: a query never writes its box
            box = Box(row[2 : 2 + dims], row[2 + dims :], copy=False)
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
                    elif sid in replicas:
                        # bounded-staleness read routed here by the
                        # server: serve from the replica copy
                        order.append((sid, 2))
                        searched += 1
                        hit = True
                        self.replica_queries += 1
                    queue = queues.get(sid)
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
                    store, c = self.storage.ensure_hot(sid, trigger="query")
                    rehydrate_cost += c
                if store is None:  # pragma: no cover - defensive
                    for _box, parts, slot, _span in members:
                        parts[slot] = Aggregate.empty()
                    continue
                self.storage.touch(sid)
            elif source == 1:
                store = self.queues[sid]
            else:
                store = replicas[sid]
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
                obs.record_tree_op(
                    "query_batch", group_stats, rows=len(members)
                )
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
            self.send(
                p.reply_to, "query_result_batch", QueryResultBatch(i64(x), f64(g))
            )

        self.submit(service, reply)
