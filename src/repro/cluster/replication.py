"""Worker component: asynchronous replication, promotion and fencing.

A primary tees every applied insert batch onto a per-shard, per-epoch
sequence-numbered stream (:mod:`repro.cluster.stream` is the protocol)
feeding its subscribers: K replica workers, seeded by blob and kept
current by the stream, and servers' rollup tiers, seeded by cube slabs.
Batches are retransmitted until cumulatively acknowledged.  Replicas
track an applied watermark that is piggybacked on heartbeat writes so
servers can route bounded-staleness reads, and a replica becomes the
primary by a pure metadata flip when its primary dies.  A primary that
was silent long enough to have been declared dead reconciles against
the system image on its next beat, demotes itself where the cluster
re-homed its shards and hands the unacknowledged stream suffix to the
new owner (epoch fencing: a healed partition never leaves two primaries).

The component owns the stream logs and cursors, the replica stores, the
pending hand-offs, the retransmit tick, and the ``_on_<kind>`` handlers
of every message above.  The host worker calls :meth:`Replication.tee`
on its insert path and :meth:`Replication.on_beat` from its heartbeat,
and reads :attr:`Replication.replicas` to serve replica reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.base import ShardStore
from ..olap.records import RecordBatch
from ..olap.rollup import CubeKey, accumulate_cells
from .image import owner_of
from .stream import DUPLICATE, NEW, Cursor, Head, SenderLog
from .transport import Message
from .wire import (
    PrimaryHandoff,
    ReplicaAck,
    ReplicaBatch,
    ReplicaInstall,
    RollupCells,
    ShardNotice,
    ShardOpReply,
    f64,
    i64,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .worker import Worker

__all__ = ["Replication"]


@dataclass
class _Handoff:
    """A demoted primary's unacknowledged suffix, until it is acked."""

    rows: tuple  # (coords, measures, op ids), concatenated in seq order
    dst: int
    last_sent: float


class Replication:
    """Both ends of the replication stream on one host worker."""

    def __init__(self, worker: "Worker"):
        self.w = worker
        #: shard id -> read-only replica store fed by the insert stream
        self.replicas: dict[int, ShardStore] = {}
        #: primary side: shard id -> the stream this worker feeds; the
        #: log holds rows as the arrays ``replica_batch`` forwards
        self.streams: dict[int, SenderLog] = {}
        #: replica side: shard id -> position in the stream feeding it
        self._cursors: dict[int, Cursor] = {}
        #: demoted-primary hand-offs awaiting acknowledgement
        self._handoffs: dict[int, _Handoff] = {}
        #: retransmit period (virtual seconds)
        self.retry = 0.1
        self._timer_on = False
        self.demotions = 0
        self.batches_sent = 0
        self.rows_applied = 0
        self.rows_teed = 0
        #: per-row tee-to-apply delay on this worker's replicas; what
        #: the PBS freshness model consumes as a staleness distribution
        self.apply_lags: list[float] = []

    def clear(self) -> None:
        """Crash: every copy, log, cursor and pending hand-off is lost."""
        self.replicas.clear()
        self.streams.clear()
        self._cursors.clear()
        self._handoffs.clear()

    # -- primary side --------------------------------------------------------

    def stream(self, shard_id: int, epoch: int) -> SenderLog:
        """The sender log of ``shard_id`` at ``epoch``, opened (or
        reopened empty, when the epoch moved) on demand.  The first one
        arms the retransmit tick, so replication-free runs schedule no
        extra events."""
        log = self.streams.get(shard_id)
        if log is None or log.epoch != epoch:
            log = self.streams[shard_id] = SenderLog(epoch)
            if not self._timer_on:
                self._timer_on = True
                self.w.clock.every(self.retry, self._tick)
        return log

    def close_stream(self, shard_id: int) -> None:
        """The shard id left this worker (split, migration): its stream
        does not follow; the manager re-seeds from the new owner."""
        self.streams.pop(shard_id, None)

    def tee(self, shard_id: int, c: np.ndarray, v: np.ndarray, o=None) -> None:
        """Append applied insert rows to the shard's stream.

        ``c``/``v``/``o`` are the rows' coords, measures and op ids (the
        idempotency tokens, so a promoted replica can dedup client
        retries exactly like the primary did); without ``o`` the rows
        carry none (``0``): bulk rows and folded-in insertion queues.
        Each call is one sequence-numbered batch; the log retains the
        arrays until every peer cumulatively acknowledges it.
        """
        log = self.streams.get(shard_id)
        if log is None or not log.peers:
            return
        if o is None:
            o = np.zeros(len(v), dtype=np.int64)
        seq = log.append((c, v, o), self.w.clock.now)
        for peer in log.peers.values():
            self._send(shard_id, log, seq, peer.entity)
        self.batches_sent += len(log.peers)
        self.rows_teed += len(v)

    def _send(self, shard_id: int, log: SenderLog, seq: int, entity) -> None:
        batch = log.batches[seq]
        self.w.send(
            entity,
            "replica_batch",
            ReplicaBatch(
                *batch.rows,
                i64([shard_id, log.epoch, seq]),
                f64([batch.t_created]),
                self.w,
            ),
        )

    def _tick(self) -> None:
        """Retransmit unacknowledged stream batches and hand-offs."""
        if self.w.crashed:
            return
        now = self.w.clock.now
        for sid, log in self.streams.items():
            for seq, behind in log.due(now, self.retry):
                for entity in behind:
                    self._send(sid, log, seq, entity)
                self.batches_sent += len(behind)
        for sid, h in list(self._handoffs.items()):
            if now - h.last_sent >= self.retry - 1e-12:
                h.last_sent = now
                self._send_handoff(sid, h)

    def _on_replicate_shard(self, msg: Message) -> None:
        """Manager asked this primary to seed a replica of ``shard_id``
        on ``dst``: subscribe the peer (so the live stream starts
        immediately), serialize a snapshot, ship it."""
        p = msg.payload
        shard_id = p.shard
        w = self.w
        store = w.shards.get(shard_id)
        if store is None or shard_id in w.frozen:
            w.send(p.reply_to, "replicate_failed", ShardOpReply(shard_id, w.worker_id))
            return
        done = w.span("worker.replicate", msg, shard=shard_id)
        epoch = w.zk.get(f"/epochs/{shard_id}") or 0
        # the snapshot covers everything up to ``head``; rows applied
        # while it serializes stream (and retransmit) their way over
        head = self.stream(shard_id, epoch).subscribe(p.dst_id, p.dst)
        blob = w.storage.encode(store)

        def send_blob() -> None:
            done(items=len(store))
            w.send(
                p.dst,
                "replica_install",
                ReplicaInstall(shard_id, epoch, head, blob, w, p.reply_to),
            )

        w.submit(w.cost.serialize_time(len(store)), send_blob)

    def _on_replica_ack(self, msg: Message) -> None:
        """Cumulative acknowledgement from a peer: everything up to
        ``frontier`` arrived, so the log can shed it."""
        p = msg.payload
        log = self.streams.get(p.shard)
        if log is not None and log.epoch == p.epoch:
            log.ack(p.peer, p.frontier)

    def _on_replica_remove(self, msg: Message) -> None:
        """Manager pruned a (dead or stale) replica -- or a server tore
        down a rollup-tier subscription: stop streaming to it."""
        log = self.streams.get(msg.payload.shard)
        if log is not None:
            log.unsubscribe(msg.payload.peer)

    def _on_rollup_sync(self, msg: Message) -> None:
        """Seed a server's rollup cubes from this primary's shard.

        Subscribes the server to the shard's stream (subscriber ids are
        negative, so they never collide with worker ids and never appear
        under ``/replicas``), snapshots the stream head, folds the
        shard's rows into one dense slab per requested cube key, and
        replies with ``(epoch, head, slabs)``.  Rows applied after the
        head stream over as ordinary ``replica_batch`` messages, so
        slab + stream is exactly the shard -- the same contract a seeded
        replica gets.
        """
        p = msg.payload
        shard_id, reply_to = p.shard, p.reply_to
        w = self.w
        store = w.shards.get(shard_id)
        if store is None or shard_id in w.frozen:
            w.send(reply_to, "rollup_sync_failed", ShardOpReply(shard_id, w.worker_id))
            return
        epoch = w.zk.get(f"/epochs/{shard_id}") or 0
        head = self.stream(shard_id, epoch).subscribe(p.peer, reply_to)
        batch = store.items()
        pairs = []
        for kw in p.keys:
            key = CubeKey.from_wire(kw)
            cells = accumulate_cells(w.schema, key, batch.coords, batch.measures)
            pairs.append((key.to_wire(), cells))
        w.submit(
            w.cost.rollup_seed_time(len(batch) * max(1, len(pairs))),
            lambda: w.send(
                reply_to,
                "rollup_cells",
                RollupCells(shard_id, epoch, head, pairs, w.worker_id),
            ),
        )

    # -- replica side --------------------------------------------------------

    def _on_replica_install(self, msg: Message) -> None:
        """Install a seeded replica snapshot and start acknowledging."""
        p = msg.payload
        shard_id, epoch = p.shard, p.epoch
        w = self.w
        cur = self._cursors.get(shard_id)
        if cur is not None and cur.epoch > epoch:
            return  # a stale (pre-promotion) seed arrived late
        if shard_id in w.shards:
            return  # we were promoted while the blob was in flight
        store = w.storage.decode(p.blob)

        def ready() -> None:
            if shard_id in w.shards:
                return
            self.replicas[shard_id] = store
            self._cursors[shard_id] = Cursor(epoch, p.head, w.clock.now)
            if w.zk_reachable():
                self._publish_watermark(shard_id)
            w.send(p.reply_to, "replicate_done", ShardOpReply(shard_id, w.worker_id))
            self._ack(p.primary, shard_id, epoch, p.head)

        w.submit(w.cost.deserialize_time(len(store)), ready)

    def _on_replica_batch(self, msg: Message) -> None:
        """Apply one sequence-numbered stream batch to a replica.

        Epoch fencing: batches from another epoch (a demoted primary
        that does not know it yet) are dropped on the floor; duplicates
        within the epoch are re-acked without applying.
        """
        p = msg.payload
        shard_id, epoch, seq = p.m.tolist()
        t_created = float(p.g[0])
        w = self.w
        cursor = self._cursors.get(shard_id)
        if shard_id in w.shards or cursor is None:
            # we are the primary now (fencing demotes the sender), or
            # not seeded yet (the retransmit returns)
            return
        verdict = cursor.offer(epoch, seq, t_created)
        if verdict == DUPLICATE:
            self._ack(p.primary, shard_id, epoch, cursor.frontier)
        if verdict != NEW:
            return
        rows = len(p.v)
        stats = self.replicas[shard_id].insert_batch(RecordBatch(p.c, p.v))
        # remember the primary's idempotency tokens: a promoted replica
        # must re-ack (not re-apply) client retries of inserts the dead
        # primary already acknowledged
        w.seen_ops.update(op_id for op_id in p.o.tolist() if op_id)
        self.rows_applied += rows
        self.apply_lags.extend([w.clock.now - t_created] * rows)

        def ack() -> None:
            cur = self._cursors.get(shard_id)
            if cur is not None and cur.epoch == epoch:
                self._ack(p.primary, shard_id, epoch, cur.frontier)

        w.submit(w.cost.replicate_apply_time(rows, stats), ack)

    def _ack(self, primary, shard_id: int, epoch: int, frontier: int) -> None:
        self.w.send(
            primary,
            "replica_ack",
            ReplicaAck(shard_id, epoch, frontier, self.w.worker_id),
        )

    def _watermark_path(self, shard_id: int) -> str:
        return f"/replicas/{shard_id}/{self.w.worker_id}"

    def _publish_watermark(self, shard_id: int) -> None:
        self.w.zk.set(
            self._watermark_path(shard_id),
            self._cursors[shard_id].watermark(self.w.clock.now),
        )

    def drop_replica(self, shard_id: int) -> None:
        """Discard this worker's copy of ``shard_id`` and its published
        watermark, if it holds one."""
        had = self._cursors.pop(shard_id, None)
        self.replicas.pop(shard_id, None)
        if had is not None and self.w.zk_reachable():
            self.w.zk.delete(self._watermark_path(shard_id))

    def _on_drop_replica(self, msg: Message) -> None:
        """Manager invalidated this copy (epoch moved on): discard it."""
        self.drop_replica(msg.payload.shard)

    # -- promotion and fencing -----------------------------------------------

    def _on_promote_shard(self, msg: Message) -> None:
        """Promote the local replica to primary: a pure metadata flip.

        The store is re-tagged in memory, the system image re-pointed,
        and a fresh stream epoch opened -- no checkpoint blob is ever
        deserialized on this path.
        """
        shard_id, reply_to = msg.payload.shard, msg.payload.reply_to
        w = self.w
        store = self.replicas.get(shard_id)
        if store is None:
            held = w.shards.get(shard_id)
            if held is not None:
                # duplicated promote: already flipped, just re-ack
                w.send(reply_to, "promote_done", ShardOpReply(shard_id, w.worker_id))
            else:
                w.send(reply_to, "promote_failed", ShardOpReply(shard_id, w.worker_id))
            return
        done = w.span("worker.promote", msg, shard=shard_id)
        self.drop_replica(shard_id)  # the copy stops being a replica ...
        w.shards[shard_id] = store  # ... and becomes the primary
        self.stream(shard_id, msg.payload.epoch)

        def flip() -> None:
            if shard_id not in w.shards:
                return  # crashed (or lost it again) mid-promotion
            w.publish_shard(shard_id)
            w.publish_stats()
            done(items=len(store))
            w.send(reply_to, "promote_done", ShardOpReply(shard_id, w.worker_id))

        w.submit(w.cost.promote_time(), flip)

    def on_beat(self, now: float, lapsed: bool) -> None:
        """Piggyback replica watermarks and stream heads on the host's
        liveness beat (the written prefixes are unwatched, so this
        schedules no events).  ``lapsed`` says the host was silent long
        enough to have been declared dead: another worker may own its
        shards now, so it reconciles its primariness."""
        for sid in self._cursors:
            self._publish_watermark(sid)
        for sid, log in self.streams.items():
            if log.peers:
                self.w.zk.set(f"/repl/heads/{sid}", Head(log.epoch, log.head, now))
        if lapsed:
            self._reconcile()

    def _reconcile(self) -> None:
        """Check every held shard against the system image and demote
        copies the cluster re-homed while this worker was away.  This is
        the other half of epoch fencing: a healed partition can never
        leave two workers both acting as a shard's primary.
        """
        w = self.w
        for sid in sorted(w.shards):
            if sid in w.frozen:
                continue
            owner = owner_of(w.zk, sid)
            if owner not in (None, w.worker_id):
                self._demote(sid, owner)
        for sid in sorted(w.storage.cold):
            # WARM copies re-homed while we were away: the cold entry
            # is stale (its data was restored elsewhere from the
            # checkpoint blob), so just forget it -- a spilled shard
            # has no unacknowledged stream suffix to hand off
            if owner_of(w.zk, sid) not in (None, w.worker_id):
                w.storage.drop(sid)
                self.close_stream(sid)

    def _demote(self, shard_id: int, new_owner: int) -> None:
        """Drop primariness of the (settled) ``shard_id`` in favour of
        ``new_owner``, handing off any retained stream suffix the new
        owner has not acknowledged (op-id dedup there keeps the effect
        exactly-once)."""
        del self.w.shards[shard_id]
        self.demotions += 1
        log = self.streams.pop(shard_id, None)
        suffix = log.unacked(new_owner) if log is not None else []
        if suffix:
            rows = tuple(np.concatenate(col) for col in zip(*suffix))
            h = self._handoffs[shard_id] = _Handoff(rows, new_owner, self.w.clock.now)
            self._send_handoff(shard_id, h)

    def _send_handoff(self, shard_id: int, h: _Handoff) -> None:
        entity = self.w.peers.get(h.dst)
        if entity is None or entity.crashed:
            self._handoffs.pop(shard_id, None)
            return
        self.w.send(
            entity, "primary_handoff", PrimaryHandoff(*h.rows, i64([shard_id]), self.w)
        )

    def _on_primary_handoff(self, msg: Message) -> None:
        """A demoted primary forwarded the stream suffix we never saw:
        apply the rows we do not already have (by op id) and ack."""
        p = msg.payload
        w = self.w
        shard_id = int(p.m[0])
        fresh = w.unseen(p.o)
        w.apply(
            np.full(len(fresh), shard_id, dtype=np.int64),
            p.c[fresh],
            p.v[fresh],
            p.o[fresh],
        )
        w.send(p.src, "handoff_ack", ShardNotice(shard_id))

    def _on_handoff_ack(self, msg: Message) -> None:
        self._handoffs.pop(msg.payload.shard, None)
