"""Worker component: shard blob storage and the HOT/WARM residency tier.

Every path that turns a shard into bytes -- periodic checkpoints,
failover restore, migration transfer, replica seeding, and the residency
spill -- goes through one :class:`ShardStorage` per worker.
All five speak the same colframe blob (:func:`repro.cluster.wire.shard_to_wire`),
so a blob written by any path can be read by every other: a spill *is* a
checkpoint write, and a failover restore of a WARM shard is just a
decode of the blob the spill left behind.

The component owns the whole residency decision: the cold index, the
hot budget, the last-access times behind LRU victim choice, the lazy
rehydrate an op triggers, and the ``spill_shard`` / ``rehydrate_shard``
handlers of the manager-driven ops.  The host worker calls it through
:meth:`~ShardStorage.touch`, :meth:`~ShardStorage.ensure_hot` and
:meth:`~ShardStorage.enforce`, and reads :attr:`~ShardStorage.cold`.

Residency state machine (one shard, one owning worker)::

              spill (policy / budget)
        HOT ──────────────────────────▶ WARM
         ▲                               │
         └───────────────────────────────┘
              rehydrate (lazy on read/insert, or policy)

``HOT``  -- the live tree is in ``worker.shards``; full column arrays
resident.  ``WARM`` -- the tree has been released; only a
:class:`ColdEntry` (layer-map-style index record: bounding key, item
count, blob) remains, so routing and directory pruning keep working
and a query whose box misses the bounding key never touches the blob.
There is no third state: a rehydrate re-installs the decoded tree and
deletes the cold entry atomically (sim handlers are atomic), and a
crash drops both tiers -- WARM shards then restore from the checkpoint
blob the spill already wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..olap.keys import Box
from .transport import Message
from .wire import BoundingKey, ShardOpReply, shard_from_wire, shard_to_wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.base import ShardStore

__all__ = ["HOT", "WARM", "ColdEntry", "ShardStorage"]

#: residency tier names as published in the system image
HOT = "hot"
WARM = "warm"


@dataclass
class ColdEntry:
    """Layer-map index record for one spilled (WARM) shard.

    Keeps exactly what routing and planning need without the columns:
    the bounding key frozen at spill time (keys only grow on insert,
    and an insert rehydrates first, so the frozen key stays exact), the
    item count for stats/balancing, the pre-spill ``resident_bytes()``
    so policies can project how much memory a rehydrate will re-admit,
    and the encoded blob standing in for the on-disk frame.
    """

    shard_id: int
    key: BoundingKey
    items: int
    blob: bytes
    resident_estimate: int
    spilled_at: float

    @property
    def blob_bytes(self) -> int:
        return len(self.blob)

    @property
    def box(self) -> Box:
        """Single-box view of the bounding key (MBR of an MDS key)."""
        if isinstance(self.key, Box):
            return self.key
        return self.key.mbr()

    def intersects(self, box: Box) -> bool:
        """Directory pruning for WARM shards: does ``box`` touch this
        shard's data at all?  A miss means the shard contributes the
        empty aggregate and the blob is never read."""
        return self.box.intersects(box)


class ShardStorage:
    """One worker's blob codec plus its residency tier.

    The codec half (:meth:`encode` / :meth:`decode`) is the single
    funnel for all shard blobs -- checkpoint, restore, migrate,
    replica seed, spill, rehydrate.  The tier half moves shards between
    ``worker.shards`` (HOT) and :attr:`cold` (WARM) -- on the manager's
    request, lazily when an op touches a WARM shard, or on its own to
    hold :attr:`hot_budget_bytes` -- keeping the published system image
    in sync so servers keep routing to spilled shards.
    """

    def __init__(self, worker) -> None:
        self.w = worker
        #: shard id -> :class:`ColdEntry` for every WARM shard
        self.cold: dict[int, ColdEntry] = {}
        #: hot-memory budget in bytes; ``None`` disables autonomous
        #: spilling (classic all-hot behaviour)
        self.hot_budget_bytes: Optional[int] = None
        #: shard id -> virtual time of last access (LRU spill order)
        self._last_access: dict[int, float] = {}
        # residency counters (exported as volap_residency_* gauges)
        self.spills = 0
        self.rehydrates = 0
        self.spilled_bytes = 0
        self.rehydrated_bytes = 0
        # codec counters: every blob any path produced/consumed
        self.blobs_encoded = 0
        self.blobs_decoded = 0

    # -- the unified blob codec ----------------------------------------

    def encode(self, store: "ShardStore") -> bytes:
        """Shard -> colframe blob (checkpoint/migrate/replica/spill)."""
        blob = shard_to_wire(store)
        self.blobs_encoded += 1
        return blob

    def decode(self, blob: bytes) -> "ShardStore":
        """Colframe blob -> live shard (restore/migrate-in/replica
        install/rehydrate)."""
        w = self.w
        self.blobs_decoded += 1
        return shard_from_wire(w.store_cls, w.schema, blob, w.tree_config)

    # -- residency tier -------------------------------------------------

    def residency(self, shard_id: int) -> Optional[str]:
        if shard_id in self.w.shards:
            return HOT
        if shard_id in self.cold:
            return WARM
        return None

    def warm_items(self) -> int:
        return sum(e.items for e in self.cold.values())

    def spill(self, shard_id: int) -> ColdEntry:
        """HOT -> WARM: encode the shard, release the columns.

        The blob doubles as the shard's checkpoint (written through to
        the checkpoint store when one is configured), which is why the
        periodic checkpoint pass skips WARM shards -- their blob on
        disk *is* the checkpoint.  Frozen shards (mid-migration) never
        spill; the transfer owns them.
        """
        w = self.w
        store = w.shards.get(shard_id)
        if store is None:
            raise ValueError(f"shard {shard_id} is not HOT on worker {w.worker_id}")
        if shard_id in w.frozen:
            raise ValueError(f"shard {shard_id} is frozen; cannot spill")
        blob = self.encode(store)
        entry = ColdEntry(
            shard_id=shard_id,
            key=store.bounding_key(),
            items=len(store),
            blob=blob,
            resident_estimate=store.resident_bytes(),
            spilled_at=w.clock.now,
        )
        self.cold[shard_id] = entry
        del w.shards[shard_id]
        self._last_access.pop(shard_id, None)
        if w.checkpoints is not None:
            w.checkpoints.put(shard_id, blob, w.worker_id, w.clock.now)
        self.spills += 1
        self.spilled_bytes += len(blob)
        w.publish_shard(shard_id)
        return entry

    def rehydrate(self, shard_id: int) -> Optional["ShardStore"]:
        """WARM -> HOT: decode the blob, re-install the live tree.

        Idempotent: an already-HOT shard is returned as-is; an unknown
        shard returns ``None`` (it was dropped or migrated away between
        plan and dispatch).  Restores served by a rehydrate do *not*
        count as checkpoint deserializations -- the blob never left the
        worker.
        """
        w = self.w
        entry = self.cold.pop(shard_id, None)
        if entry is None:
            return w.shards.get(shard_id)
        store = self.decode(entry.blob)
        w.shards[shard_id] = store
        self.rehydrates += 1
        self.rehydrated_bytes += entry.blob_bytes
        self._last_access[shard_id] = w.clock.now
        w.publish_shard(shard_id)
        return store

    def drop(self, shard_id: int) -> bool:
        """Forget a WARM shard's cold entry (ownership moved away)."""
        return self.cold.pop(shard_id, None) is not None

    def clear(self) -> None:
        """Crash: both tiers are lost (WARM blobs survive only in the
        checkpoint store, exactly like HOT shards' periodic blobs)."""
        self.cold.clear()
        self._last_access.clear()

    # -- what the host calls on its data path ---------------------------

    def touch(self, shard_id: int) -> None:
        """Record an access for LRU spill-victim ordering."""
        if shard_id in self.w.shards:
            self._last_access[shard_id] = self.w.clock.now

    def ensure_hot(
        self, shard_id: int, trigger: str = "query"
    ) -> tuple[Optional["ShardStore"], float]:
        """Lazily pull a WARM shard back HOT because an op touched it.

        Returns ``(store, modeled seconds)``; the caller adds the
        seconds to the op's service time (rehydration is synchronous --
        the op waits for the blob decode).  Enforces the hot budget
        afterwards, protecting the shard just rehydrated (the ±1-shard
        hysteresis: an op never evicts its own working set mid-flight).
        """
        w = self.w
        entry = self.cold.get(shard_id)
        if entry is None:
            return w.shards.get(shard_id), 0.0
        obs = w.transport.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "worker.rehydrate", w.name, shard=shard_id, trigger=trigger
            )
        store = self.rehydrate(shard_id)
        service = w.cost.rehydrate_time(entry.items)
        if obs is not None:
            obs.registry.histogram(
                "volap_residency_rehydrate_seconds",
                help="modeled latency of lazy shard rehydrates",
            ).observe(service)
            obs.finish_span(span, items=entry.items)
        self.enforce(protect={shard_id})
        return store, service

    def enforce(self, protect: set = frozenset()) -> int:
        """Spill least-recently-used HOT shards until resident bytes
        fit :attr:`hot_budget_bytes`.  ``protect`` names shards the
        current op is touching -- they stay hot even while over budget.
        Frozen shards belong to the transfer protocol and never spill.
        """
        w = self.w
        if self.hot_budget_bytes is None or w.crashed:
            return 0
        spilled = 0
        while w.resident_bytes() > self.hot_budget_bytes:
            candidates = [
                sid
                for sid in w.shards
                if sid not in w.frozen and sid not in protect
            ]
            if not candidates:
                break
            self.spill(
                min(candidates, key=lambda s: (self._last_access.get(s, -1.0), s))
            )
            spilled += 1
        return spilled

    def add_stats(self, stats: dict) -> None:
        """Fold the tier's view into a ``/stats/workers`` payload."""
        w = self.w
        if self.cold:
            # WARM shards stay visible in "shards" (ownership and heal
            # checks key on it) at their spilled item counts
            for sid, entry in self.cold.items():
                stats["shards"][sid] = entry.items
            stats["warm"] = {
                sid: (e.items, e.resident_estimate) for sid, e in self.cold.items()
            }
        if self.hot_budget_bytes is not None or self.cold or self.spills:
            now = w.clock.now
            stats["resident_bytes"] = w.resident_bytes()
            stats["shard_bytes"] = {
                sid: s.resident_bytes() for sid, s in w.shards.items()
            }
            stats["idle"] = {
                sid: now - self._last_access.get(sid, now) for sid in w.shards
            }

    # -- manager-driven spill / rehydrate --------------------------------

    def _on_spill_shard(self, msg: Message) -> None:
        """Policy-driven spill: HOT -> WARM, releasing the columns.

        Idempotent: an already-WARM shard re-acks (a duplicated or
        retransmitted request changes nothing); absent or frozen shards
        fail so the manager retires the op and replans.
        """
        shard_id, reply_to = msg.payload.shard, msg.payload.reply_to
        w = self.w
        if shard_id in self.cold:
            w.send(reply_to, "spill_done", ShardOpReply(shard_id, w.worker_id))
            return
        store = w.shards.get(shard_id)
        if store is None or shard_id in w.frozen:
            w.send(reply_to, "spill_failed", ShardOpReply(shard_id, w.worker_id))
            return
        done = w.span("worker.spill", msg, shard=shard_id)

        def finish() -> None:
            # re-check: a migration may have frozen the shard, or an op
            # may have moved it, while the encode was in flight
            if shard_id in w.shards and shard_id not in w.frozen:
                self.spill(shard_id)
            ok = shard_id in self.cold
            done(ok=ok)
            w.send(
                reply_to,
                "spill_done" if ok else "spill_failed",
                ShardOpReply(shard_id, w.worker_id),
            )

        w.submit(w.cost.spill_time(len(store)), finish)

    def _on_rehydrate_shard(self, msg: Message) -> None:
        """Policy-driven rehydrate: pull a WARM shard HOT ahead of
        demand (the balancer found headroom).  Idempotent like spill."""
        shard_id, reply_to = msg.payload.shard, msg.payload.reply_to
        w = self.w
        if shard_id in w.shards:
            w.send(reply_to, "rehydrate_done", ShardOpReply(shard_id, w.worker_id))
            return
        entry = self.cold.get(shard_id)
        if entry is None:
            w.send(reply_to, "rehydrate_failed", ShardOpReply(shard_id, w.worker_id))
            return
        _store, service = self.ensure_hot(shard_id, trigger="policy")
        w.submit(
            service,
            lambda: w.send(
                reply_to, "rehydrate_done", ShardOpReply(shard_id, w.worker_id)
            ),
        )
