"""Server nodes: request routing, local images, and freshness sync.

Paper Sections III-B/III-C.  Servers own client sessions.  Each keeps a
*local image* (:class:`~repro.cluster.image.LocalImage`) as an
in-memory cache of the Zookeeper system image:

* an **insert** routes through the image to exactly one shard, is
  forwarded to that shard's worker, and the ack flows back to the
  client.  If routing grew a shard's bounding box, the shard is marked
  dirty and the new box is pushed to Zookeeper at the next sync tick
  (every ``sync_period`` seconds -- 3 s in the paper's experiments);
* a **query** collects every shard whose box intersects the query box,
  fans out one message per owning worker, merges the partial
  aggregates, and replies to the client;
* Zookeeper watch events deliver other servers' box expansions
  (applied bottom-up through the leaf-pointer table), new shards from
  splits, shard removals, and migration re-assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..core.aggregates import Aggregate
from ..olap.schema import Schema
from .cost import CostModel
from .faults import RetryPolicy
from .image import LocalImage, ShardInfo
from .router import QueryRouter, RollupConfig
from .simclock import SimClock, Timer
from .stream import lag
from .transport import Entity, Message, Transport
from .wire import (
    InsertBatch,
    InsertDoneBatch,
    InsertFailed,
    QueryBatch,
    QueryDone,
    ReplicaRemove,
    f64,
    i64,
    key_from_wire,
    key_to_wire,
)
from .zookeeper import Zookeeper

__all__ = ["Server"]


@dataclass
class _PendingQuery:
    token: int
    op_id: int
    reply_to: Entity
    submit_time: float
    agg: Aggregate
    shards_searched: int
    coverage: float
    #: worker_id -> number of shards requested from it, removed as
    #: results arrive; what remains at the deadline is uncovered
    per_worker: dict
    shards_total: int
    #: requested shards a worker answered for but no longer holds
    unresolved: int = 0
    span: object = None  # server.route_query obs span, None when off
    #: worst estimated replica lag among the shards this query read
    #: from a replica; 0.0 when every shard was served by its primary
    staleness: float = 0.0
    #: which tier answered: "tree", "rollup", or "hybrid"
    source: str = "tree"
    timer: Optional[Timer] = None  # the deadline, while fan-in is open


@dataclass
class _PendingInsert:
    token: int
    op_id: int
    reply_to: Entity
    submit_time: float
    coords: np.ndarray
    measure: float
    retries: int = 0
    span: object = None  # server.route_insert obs span, None when off
    timer: Optional[Timer] = None  # the one live timeout of this insert


class Server(Entity):
    """One server node of the VOLAP cluster."""

    def __init__(
        self,
        server_id: int,
        clock: SimClock,
        transport: Transport,
        zk: Zookeeper,
        schema: Schema,
        workers: dict[int, Entity],
        threads: int = 16,  # a c3.8xlarge-ish host
        sync_period: float = 3.0,
        cost: Optional[CostModel] = None,
        image_key_kind: str = "mbr",
        retry: Optional[RetryPolicy] = None,
        max_staleness: Optional[float] = None,
        rollup: Optional[RollupConfig] = None,
    ):
        self.server_id = server_id
        self.name = f"server-{server_id}"
        self.clock = clock
        self.transport = transport
        self.zk = zk
        self.schema = schema
        self.workers = workers  # worker_id -> Worker entity
        self.pool = clock.make_pool(threads)
        self.cost = cost if cost is not None else CostModel()
        self.sync_period = sync_period
        self.image = LocalImage(schema.num_dims, key_kind=image_key_kind)
        self.retry = retry if retry is not None else RetryPolicy()
        #: cluster-default bounded-staleness budget applied to queries
        #: that do not carry their own ``max_staleness``; ``None``
        #: keeps every read on the primaries
        self.max_staleness = max_staleness
        self.replica_reads = 0
        self._rng = np.random.default_rng(10_000 + server_id)
        self._pending_queries: dict[int, _PendingQuery] = {}
        self._pending_inserts: dict[int, _PendingInsert] = {}
        self._token = 0
        self.inserts_routed = 0
        self.queries_routed = 0
        self.syncs = 0
        self.insert_failures = 0
        self.insert_timeouts = 0
        self.insert_retries = 0
        self.degraded_queries = 0
        #: rollup cache tier + adaptive routing; ``None`` (the default)
        #: keeps the classic tree-only read path with zero added state
        self.router = (
            QueryRouter(self, rollup) if rollup is not None else None
        )
        # subscribe to system image changes
        zk.watch("/shards/", self._on_shard_event)
        zk.watch("/boxes/", self._on_box_event)
        clock.every(sync_period, self.sync_to_zookeeper)

    # -- bootstrap ------------------------------------------------------------

    def load_image(self) -> None:
        """Populate the local image from the current Zookeeper state."""
        for sid in self.zk.ls("/shards"):
            wire = self.zk.get(f"/shards/{sid}")
            if wire is None:
                continue
            info = ShardInfo.from_wire(wire)
            if info.shard_id in self.image:
                self.image.update_worker(info.shard_id, info.worker_id)
                self.image.expand_shard(info.shard_id, info.key)
                self.image.update_residency(info.shard_id, info.residency)
            else:
                self.image.add_shard(info)

    # -- client API (messages) ----------------------------------------------

    def receive(self, msg: Message) -> None:
        handler = getattr(self, f"_on_{msg.kind}", None)
        if handler is None:
            raise ValueError(f"{self.name}: unknown message {msg.kind!r}")
        handler(msg)

    def _next_token(self) -> int:
        self._token += 1
        return (self.server_id << 32) | self._token

    def _finish_span(self, span, **tags) -> None:
        if span is not None and self.transport.obs is not None:
            self.transport.obs.finish_span(span, **tags)

    def _on_client_insert_batch(self, msg: Message) -> None:
        """Ingest: one pending insert (with its own token and timer)
        per row, but routing and forwarding are grouped -- rows bound
        for the same worker travel in one ``insert_batch`` message.  A
        row that must be retried is re-routed alone as a one-entry
        ``insert_batch``, so batching never weakens the delivery
        guarantees.  A row outside the schema's id space is answered
        ``insert_failed`` instead of routed: no tree may hold it."""
        p = msg.payload
        now = self.clock.now
        obs = self.transport.obs
        nodes = 0
        ctx = p.ctx if p.ctx is not None else [None] * len(p.o)
        entries: list[tuple[int, int, int]] = []  # shard, token, op id
        span_ctx: list = []
        #: worker id -> indices of the rows routed to it
        by_worker: dict[int, list[int]] = {}
        coords = p.c  # one object for the batch: the image decides ahead on it
        limits = self.schema.leaf_limits
        outside = ((coords < 0) | (coords > limits)).any(axis=1).tolist()
        for i, (op_id, measure) in enumerate(zip(p.o.tolist(), p.v.tolist())):
            token = self._next_token()
            span = None
            if obs is not None:
                span = obs.start_span(
                    "server.route_insert", self.name, parent=ctx[i], op_id=op_id
                )
            self._pending_inserts[token] = _PendingInsert(
                token, op_id, p.reply_to, now, coords[i], measure, span=span
            )
            if outside[i]:
                self._fail_insert(token)
                entries.append((-1, token, op_id))  # never sent: keeps rows aligned
                span_ctx.append(None)
                continue
            info = self.image.route_insert(coords, i)
            nodes += self.image.nodes_visited_last
            self.inserts_routed += 1
            by_worker.setdefault(info.worker_id, []).append(i)
            entries.append((info.shard_id, token, op_id))
            span_ctx.append(span.ctx if span is not None else None)
            self._arm_insert_timer(token, self.retry.insert_timeout)
        service = self.cost.route_time(nodes)
        x = i64(entries)

        def forward() -> None:
            for worker_id, rows in by_worker.items():
                idx = np.asarray(rows)
                batch = InsertBatch(
                    x[idx], p.c[idx], p.v[idx], self, [span_ctx[i] for i in rows]
                )
                self.transport.send(
                    self.workers[worker_id],
                    Message("insert_batch", batch, sender=self),
                )

        self.pool.submit(service, forward)

    def _on_insert_batch_ack(self, msg: Message) -> None:
        """Per-op acks from a worker's apply: complete the acked tokens
        (one ``insert_done_batch`` per client), re-route the nacked
        (stale route) after one image refresh for the whole message."""
        p = msg.payload
        done: dict[Entity, list[int]] = {}
        for token in p.a.tolist():
            pending = self._pending_inserts.pop(token, None)
            if pending is None:
                continue
            pending.timer.cancel()
            self._finish_span(pending.span, ok=True)
            done.setdefault(pending.reply_to, []).append(pending.op_id)
        for reply_to, op_ids in done.items():
            self.transport.send(
                reply_to,
                Message(
                    "insert_done_batch",
                    InsertDoneBatch(i64(op_ids)),
                    sender=self,
                ),
            )
        if len(p.n):
            self.load_image()
        for token, _shard_id in p.n.tolist():
            self._retry_insert(token)

    def _route_insert(self, token: int) -> None:
        """Re-route one pending insert (a retry) as a one-entry
        ``insert_batch``."""
        pending = self._pending_inserts.get(token)
        if pending is None:
            return
        info = self.image.route_insert(pending.coords[None, :])
        self.inserts_routed += 1
        service = self.cost.route_time(self.image.nodes_visited_last)
        worker = self.workers[info.worker_id]
        entry = InsertBatch(
            i64([(info.shard_id, token, pending.op_id)]),
            pending.coords[None, :],
            f64([pending.measure]),
            self,
            [pending.span.ctx if pending.span is not None else None],
        )
        self.pool.submit(
            service,
            lambda: self.transport.send(
                worker, Message("insert_batch", entry, sender=self)
            ),
        )

    def _arm_insert_timer(self, token: int, delay: float) -> None:
        pending = self._pending_inserts.get(token)
        if pending is None:
            return
        attempt = pending.retries

        def fire() -> None:
            cur = self._pending_inserts.get(token)
            if cur is None or cur.retries != attempt:
                return  # completed, failed, or already retried
            self.insert_timeouts += 1
            self._retry_insert(token)

        if pending.timer is not None:
            pending.timer.cancel()
        pending.timer = self.clock.after(delay, fire)

    def _retry_insert(self, token: int) -> None:
        """Shared retry path for nacks (stale route) and timeouts
        (lost message / dead worker): bounded attempts with exponential
        backoff + jitter, then an explicit ``insert_failed``."""
        pending = self._pending_inserts.get(token)
        if pending is None:
            return
        pending.retries += 1
        self.insert_retries += 1
        if pending.retries > self.retry.max_insert_retries:
            self._fail_insert(token)
            return
        delay = self.retry.backoff(pending.retries, self._rng)

        def resend() -> None:
            # the image may have converged during the backoff; re-read
            self.load_image()
            self._route_insert(token)

        self.clock.after(delay, resend)
        self._arm_insert_timer(token, delay + self.retry.insert_timeout)

    def _fail_insert(self, token: int) -> None:
        pending = self._pending_inserts.pop(token, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self._finish_span(pending.span, ok=False)
        self.insert_failures += 1
        self.transport.send(
            pending.reply_to,
            Message(
                "insert_failed",
                InsertFailed(pending.op_id),
                sender=self,
            ),
        )

    # -- bounded-staleness read routing (replication) --------------------------

    def _replica_lag(
        self, sid: int, wid: int, cur_epoch: int, head, now: float
    ) -> Optional[float]:
        """Estimated staleness of worker ``wid``'s replica of ``sid``,
        or ``None`` when the copy is unusable (stale epoch, dead
        holder, or no watermark yet).  The
        :class:`~repro.cluster.stream.Watermark` is what the replica
        piggybacked on its last heartbeat; ``head`` is the primary's
        :class:`~repro.cluster.stream.Head`.
        """
        wm = self.zk.get(f"/replicas/{sid}/{wid}")
        if wm is None or wm.epoch != cur_epoch:
            return None
        if self.zk.get(f"/heartbeats/{wid}") is None:
            return None
        return lag(wm, head, now)

    def _pick_target(
        self, info: ShardInfo, budget: float, now: float
    ) -> tuple[int, float]:
        """Choose which worker serves a shard's read under a staleness
        budget.  The budget is an explicit opt-in to stale reads, so any
        replica whose estimated lag fits takes the read unless the
        primary is strictly less loaded; a dead primary is covered by
        the freshest fitting replica.  Returns ``(worker_id,
        staleness)``."""
        sid = info.shard_id
        primary = info.primary_worker
        cur_epoch = self.zk.get(f"/epochs/{sid}") or 0
        head = self.zk.get(f"/repl/heads/{sid}")
        fitting = []
        for name in self.zk.ls(f"/replicas/{sid}"):
            wid = int(name)
            lag = self._replica_lag(sid, wid, cur_epoch, head, now)
            if lag is None or lag > budget:
                continue
            stats = self.zk.get(f"/stats/workers/{wid}")
            backlog = stats.get("backlog", 0) if stats is not None else 0
            fitting.append((lag, backlog, wid))
        if not fitting:
            return primary, 0.0
        primary_stats = self.zk.get(f"/stats/workers/{primary}")
        if (
            self.zk.get(f"/heartbeats/{primary}") is None
            or primary_stats is None
        ):
            lag, _, wid = min(fitting)  # freshest replica
            return wid, lag
        least = min(fitting, key=lambda t: (t[1], t[0], t[2]))
        if least[1] <= primary_stats.get("backlog", 0):
            return least[2], least[0]
        return primary, 0.0

    def _route_shards(
        self, infos: list[ShardInfo], budget: Optional[float]
    ) -> tuple[dict[int, list[int]], float]:
        """Group a query's shards by serving worker, optionally routing
        through replicas under a staleness ``budget``; returns the
        fan-out map and the worst staleness taken on."""
        by_worker: dict[int, list[int]] = {}
        staleness = 0.0
        now = self.clock.now
        for info in infos:
            if budget is not None:
                wid, lag = self._pick_target(info, budget, now)
                if wid != info.primary_worker:
                    self.replica_reads += 1
                    staleness = max(staleness, lag)
            else:
                wid = info.worker_id
            by_worker.setdefault(wid, []).append(info.shard_id)
        return by_worker, staleness

    def _on_client_query_batch(self, msg: Message) -> None:
        """Queries: one pending query (with its own token, deadline,
        and degraded-coverage accounting) per row, but the fan-out is
        grouped -- all (box, shard-list) pairs bound for the same
        worker travel in one ``query_batch`` message.  Replies are
        per-op ``query_done`` messages, so ``ClusterStats`` records
        each logical query on its own."""
        p = msg.payload
        reply_to = p.reply_to
        now = self.clock.now
        obs = self.transport.obs
        nodes = 0
        routed_rows = 0  # rows that reached the fan-out planner
        hit_service = 0.0
        finishes: list[_PendingQuery] = []
        #: worker id -> ([token, shard count, *box lo, *box hi] per entry,
        #: the entries' shard ids concatenated, span context per entry)
        by_worker: dict[int, tuple[list, list, list]] = {}
        ctxs = p.ctx if p.ctx is not None else [None] * len(p.queries)
        # a row is the op id, then the box's bounds as the entries carry them
        for (op_id, *bounds), query, ctx in zip(p.x.tolist(), p.queries, ctxs):
            token = self._next_token()
            span = None
            if obs is not None:
                span = obs.start_span(
                    "server.route_query", self.name, parent=ctx, op_id=op_id
                )
            infos = self.image.search(query.box)
            visited = self.image.nodes_visited_last
            self.queries_routed += 1
            if not infos:
                nodes += visited
                routed_rows += 1
                finishes.append(
                    _PendingQuery(
                        token, op_id, reply_to, now, Aggregate.empty(),
                        0, query.coverage, {}, 0, span=span,
                    )
                )
                continue
            budget = getattr(query, "max_staleness", None)
            if budget is None:
                budget = self.max_staleness
            plan = (
                self.router.plan(query, infos, now)
                if self.router is not None
                else None
            )
            if plan is not None and not plan.stale_infos:
                # pure hit: no fan-out planning, just the image probe
                # and the slab slice
                hit_service += (
                    self.cost.route_node * visited
                    + self.cost.rollup_hit_time(plan.cells)
                )
                finishes.append(
                    _PendingQuery(
                        token, op_id, reply_to, now, plan.agg,
                        plan.cube_served, query.coverage, {}, len(infos),
                        span=span, staleness=plan.staleness,
                        source="rollup",
                    )
                )
                continue
            nodes += visited
            routed_rows += 1
            shards_total = len(infos)
            if plan is not None:
                infos = plan.stale_infos
                hit_service += self.cost.rollup_hit_time(plan.cells)
            grouped, staleness = self._route_shards(infos, budget)
            pending = _PendingQuery(
                token,
                op_id,
                reply_to,
                now,
                plan.agg if plan is not None else Aggregate.empty(),
                plan.cube_served if plan is not None else 0,
                query.coverage,
                {wid: len(sids) for wid, sids in grouped.items()},
                shards_total,
                span=span,
                staleness=max(
                    staleness, plan.staleness if plan is not None else 0.0
                ),
                source="hybrid" if plan is not None else "tree",
            )
            self._pending_queries[token] = pending
            sctx = span.ctx if span is not None else None
            for worker_id, shard_ids in grouped.items():
                x, s, ctxs = by_worker.setdefault(worker_id, ([], [], []))
                x.append((token, len(shard_ids), *bounds))
                s.extend(shard_ids)
                ctxs.append(sctx)
            pending.timer = self.clock.after(
                self.retry.query_deadline,
                lambda token=token: self._query_deadline(token),
            )
        service = (
            self.cost.route_time(nodes) if routed_rows else 0.0
        ) + hit_service

        def fan_out() -> None:
            for worker_id, (x, s, ctxs) in by_worker.items():
                self.transport.send(
                    self.workers[worker_id],
                    Message(
                        "query_batch",
                        QueryBatch(i64(x), i64(s), self, ctxs),
                        sender=self,
                    ),
                )
            for pending in finishes:
                self._finish_query(pending)

        self.pool.submit(service, fan_out)

    def _on_query_result_batch(self, msg: Message) -> None:
        """Per-op partial results from one worker: merge each into its
        pending query and finish the queries whose fan-out is complete."""
        p = msg.payload
        for (token, count, searched, unresolved, worker_id), floats in zip(
            p.x.tolist(), p.g.tolist()
        ):
            pending = self._pending_queries.get(token)
            if pending is None:
                continue  # finished, or deadline already returned a partial
            if pending.per_worker.pop(worker_id, None) is None:
                continue  # duplicated result: this worker already counted
            pending.agg.merge(Aggregate(count, *floats))
            pending.shards_searched += searched
            pending.unresolved += unresolved
            if not pending.per_worker:
                del self._pending_queries[token]
                pending.timer.cancel()
                service = self.cost.merge_time(pending.shards_searched)
                achieved = self._achieved(pending)
                if achieved < 1.0:
                    self.degraded_queries += 1
                self.pool.submit(
                    service,
                    lambda p=pending, a=achieved: self._finish_query(p, a),
                )

    def _achieved(self, pending: _PendingQuery, at_deadline: bool = False) -> float:
        missing = pending.unresolved
        if at_deadline:
            missing += sum(pending.per_worker.values())
        if not pending.shards_total or missing <= 0:
            return 1.0
        return max(0.0, 1.0 - missing / pending.shards_total)

    def _query_deadline(self, token: int) -> None:
        """Per-request deadline: answer with whatever arrived rather
        than hang on a slow, partitioned, or dead worker."""
        pending = self._pending_queries.pop(token, None)
        if pending is None:
            return
        self.degraded_queries += 1
        achieved = self._achieved(pending, at_deadline=True)
        service = self.cost.merge_time(max(1, pending.shards_searched))
        self.pool.submit(
            service, lambda: self._finish_query(pending, achieved)
        )

    def _finish_query(self, pending: _PendingQuery, achieved: float = 1.0) -> None:
        self._finish_span(
            pending.span,
            achieved=achieved,
            shards_searched=pending.shards_searched,
        )
        self.transport.send(
            pending.reply_to,
            Message(
                "query_done",
                QueryDone(
                    pending.op_id,
                    pending.submit_time,
                    pending.agg,
                    pending.shards_searched,
                    pending.coverage,
                    achieved,
                    pending.staleness,
                    pending.source,
                ),
                sender=self,
            ),
        )

    # -- rollup tier stream plumbing ------------------------------------------

    def _on_replica_batch(self, msg: Message) -> None:
        """Insert-stream batch for the rollup tier (the server is a
        stream subscriber exactly like a replica)."""
        if self.router is not None:
            self.router.on_replica_batch(msg)
            return
        # no tier: tell the primary to stop streaming at us
        self.transport.send(
            msg.payload.primary,
            Message(
                "replica_remove",
                ReplicaRemove(int(msg.payload.m[0]), -(self.server_id + 1)),
                sender=self,
            ),
        )

    def _on_rollup_cells(self, msg: Message) -> None:
        if self.router is not None:
            self.router.on_rollup_cells(msg)

    def _on_rollup_sync_failed(self, msg: Message) -> None:
        if self.router is not None:
            self.router.on_rollup_sync_failed(msg)

    # -- synchronisation (paper III-B / IV-F) ---------------------------------

    def sync_to_zookeeper(self) -> None:
        """Push dirty bounding boxes to the global image."""
        if not self.image.dirty:
            return
        self.syncs += 1
        dirty = list(self.image.dirty)
        self.image.dirty.clear()
        for sid in dirty:
            if sid in self.image:
                self.zk.aset(
                    f"/boxes/{sid}", key_to_wire(self.image.get(sid).key)
                )

    def _on_box_event(self, path: str, data: Any) -> None:
        if data is None:
            return
        sid = int(path.rsplit("/", 1)[1])
        if sid in self.image:
            self.image.expand_shard(sid, key_from_wire(data))

    def _on_shard_event(self, path: str, data: Any) -> None:
        sid = int(path.rsplit("/", 1)[1])
        if data is None:
            if sid in self.image:
                self.image.remove_shard(sid)
            if self.router is not None:
                self.router.on_shard_event(sid, None)
            return
        info = ShardInfo.from_wire(data)
        if self.router is not None:
            self.router.on_shard_event(sid, info)
        if sid in self.image:
            self.image.update_worker(sid, info.worker_id)
            self.image.update_size(sid, info.size)
            self.image.expand_shard(sid, info.key)
            self.image.update_residency(sid, info.residency)
        else:
            self.image.add_shard(info)
