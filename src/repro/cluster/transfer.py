"""Worker component: shard reorganisation (split, migrate, restore).

Paper Section III-E.  Split, outbound/inbound migration, queue
hand-off, abort and restore all reduce to the same few moves on the
host's tables -- freeze a shard behind a fresh insertion queue, drain
that queue somewhere, update the mapping table, install and publish
stores, re-point the Zookeeper image -- so the mechanics live here once,
next to the ``_on_<kind>`` handlers of the messages that drive them:

* ``split_shard`` -- SplitQuery to find a balancing hyperplane, Split to
  partition the shard, a *mapping table* entry so in-flight operations
  addressed to the old shard reach its children, and an *insertion
  queue* absorbing new items while the split runs (queried alongside
  the shard, so query processing is never interrupted);
* ``migrate_shard`` -- SerializeShard, network transfer (latency paid by
  blob size), DeserializeShard at the destination, queue hand-off, and
  a Zookeeper update that re-points servers at the new owner;
* ``restore_shard`` -- install a checkpointed shard a dead worker lost.

Every move also announces its phase (the state names of
:mod:`repro.cluster.lifecycle`) under ``/lifecycle/<shard>``:
best-effort observability that the manager folds into its
:class:`~repro.cluster.lifecycle.ShardOpMachine`.  Nothing watches the
prefix, so announcing schedules no events and cannot perturb the
simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.base import Hyperplane, ShardStore
from ..olap.keys import Box
from ..olap.records import RecordBatch
from .image import ShardInfo
from .lifecycle import CUTOVER, INSTALLING, TRANSFERRING
from .transport import Message
from .wire import (
    MigrateIn,
    MigrateReady,
    QueueTransfer,
    ShardNotice,
    ShardOpReply,
    batch_from_wire,
    batch_to_wire,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .worker import Worker

__all__ = ["ShardTransfer"]


class ShardTransfer:
    """Freezes, moves and installs the shards of one host worker."""

    def __init__(self, worker: "Worker"):
        self.w = worker
        #: checkpoint blobs deserialized by failover restores (the
        #: promotion path must keep this at zero when replicas exist)
        self.checkpoint_deserializations = 0

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
        w.frozen.discard(shard_id)
        queue = w.queues.pop(shard_id, None)
        if queue is not None:
            self._fold(shard_id, queue.items())
        self.finish(shard_id)

    def _fold(self, shard_id: int, batch: RecordBatch) -> None:
        """Apply queued rows of ``shard_id`` -- or, once it is split, of
        the children the mapping table sends them to -- in one
        :meth:`~repro.cluster.worker.Worker.apply`, which tees them: they
        were acknowledged while the shard was frozen, which kept them
        off the replication stream, so this is where replicas learn of
        them."""
        if len(batch):
            self.w.apply(
                np.full(len(batch), shard_id, dtype=np.int64),
                batch.coords,
                batch.measures,
            )

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
        w.replication.close_stream(shard_id)
        queue = w.queues.pop(shard_id)
        w.frozen.discard(shard_id)
        self._fold(shard_id, queue.items())
        w.publish_shard(low_id)
        w.publish_shard(high_id)
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
        w.storage.touch(shard_id)
        if publish:
            w.publish_shard(shard_id)
            self.finish(shard_id)
        w.storage.enforce(protect={shard_id})

    def cutover_out(self, shard_id: int, dst: "Worker") -> None:
        """Source-side migration cut-over: hand the insertion queue off
        to ``dst``, release local ownership, and re-point the system
        image."""
        w = self.w
        self.announce(shard_id, CUTOVER)
        queue = w.queues.pop(shard_id, None)
        w.frozen.discard(shard_id)
        old = w.shards.pop(shard_id, None)
        # the stream does not follow a migration; the manager drops the
        # now-stale replicas and re-seeds them from the new owner
        w.replication.close_stream(shard_id)
        if queue is not None and len(queue):
            blob = batch_to_wire(queue.items())
            w.send(dst, "queue_transfer", QueueTransfer(shard_id, blob))
        # the destination installed it hot (ShardInfo's default tier)
        w.zk.set(
            f"/shards/{shard_id}",
            ShardInfo(
                shard_id,
                old.bounding_key() if old is not None else Box.empty(w.schema.num_dims),
                dst.worker_id,
                len(old) if old is not None else 0,
            ).to_wire(),
        )
        self.finish(shard_id)

    # -- split (manager-initiated) -----------------------------------------

    def _on_split_shard(self, msg: Message) -> None:
        p = msg.payload
        shard_id = p.shard
        w = self.w
        done = w.span("worker.split", msg, shard=shard_id)
        store = self.begin(shard_id, min_items=2)
        plane = None
        if store is not None:
            try:
                plane = store.split_query()
            except ValueError:
                self.cancel(shard_id)
        if plane is None:
            done(ok=False)
            w.send(p.reply_to, "split_failed", ShardOpReply(shard_id, w.worker_id))
            return

        def finish() -> None:
            self.split_cutover(shard_id, store, plane, p.low, p.high)
            done(ok=True)
            w.send(p.reply_to, "split_done", ShardOpReply(shard_id, w.worker_id))

        w.submit(w.cost.split_time(len(store)), finish)

    # -- migration ---------------------------------------------------------

    def _on_migrate_shard(self, msg: Message) -> None:
        p = msg.payload
        w = self.w
        store = self.begin(p.shard)
        if store is None:
            w.send(p.reply_to, "migrate_failed", ShardOpReply(p.shard, w.worker_id))
            return
        blob = w.storage.encode(store)
        w.submit(
            w.cost.serialize_time(len(store)),
            lambda: w.send(p.dst, "migrate_in", MigrateIn(p.shard, blob, w, p.reply_to)),
        )

    def _on_migrate_abort(self, msg: Message) -> None:
        """Manager gave up on a wedged migration (e.g. the destination
        died mid-transfer): unfreeze and fold the queue back in."""
        shard_id = msg.payload.shard
        if shard_id in self.w.frozen and shard_id in self.w.shards:
            self.cancel(shard_id)

    def _on_migrate_in(self, msg: Message) -> None:
        p = msg.payload
        w = self.w
        store = w.storage.decode(p.blob)
        self.announce(p.shard, INSTALLING)

        def ready() -> None:
            self.install(p.shard, store, publish=False)
            w.send(p.src, "migrate_ready", MigrateReady(p.shard, w, p.reply_to))

        w.submit(w.cost.deserialize_time(len(store)), ready)

    def _on_migrate_ready(self, msg: Message) -> None:
        p = msg.payload
        w = self.w
        if p.shard not in w.frozen:
            # the migration was aborted before the destination became
            # ready: keep ownership, tell the destination to discard
            w.send(p.dst, "drop_shard", ShardNotice(p.shard))
            w.send(p.reply_to, "migrate_failed", ShardOpReply(p.shard, w.worker_id))
            return
        # Hand off anything queued during the transfer, then cut over.
        self.cutover_out(p.shard, p.dst)
        w.send(p.reply_to, "migrate_done", ShardOpReply(p.shard, w.worker_id))

    def _on_queue_transfer(self, msg: Message) -> None:
        """Fold a handed-off insertion queue into the installed shard."""
        self._fold(msg.payload.shard, batch_from_wire(msg.payload.blob))

    def _on_drop_shard(self, msg: Message) -> None:
        """Discard an orphan copy left by an aborted migration."""
        shard_id = msg.payload.shard
        if shard_id not in self.w.frozen:
            self.w.shards.pop(shard_id, None)
            self.w.storage.drop(shard_id)
            self.finish(shard_id)

    # -- failover restore --------------------------------------------------

    def _on_restore_shard(self, msg: Message) -> None:
        """Install a checkpointed shard lost by a failed worker.

        ``blob`` is the latest checkpoint (``None`` when the shard was
        never checkpointed: ownership still converges, but its data is
        lost).  Publishing the znode re-points every server image.
        """
        shard_id, blob = msg.payload.shard, msg.payload.blob
        w = self.w
        if blob is None:
            store = w.store_cls(w.schema, w.tree_config)
        else:
            store = w.storage.decode(blob)
            self.checkpoint_deserializations += 1
        # a restore target never also holds a replica of the shard (the
        # manager prefers promotion then), but a stale copy from an
        # earlier epoch must not shadow the restored primary
        w.replication.drop_replica(shard_id)
        self.announce(shard_id, INSTALLING)

        def ready() -> None:
            self.install(shard_id, store, publish=True)
            if w.checkpoints is not None and blob is not None:
                # re-own the blob so a second failure still recovers
                w.checkpoints.put(shard_id, blob, w.worker_id, w.clock.now)
            w.send(msg.payload.reply_to, "restore_done", ShardOpReply(shard_id, w.worker_id))

        w.submit(w.cost.deserialize_time(len(store)), ready)
