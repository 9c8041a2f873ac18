"""The manager: real-time load balancing (paper Section III-E).

A background process that periodically analyses the system state in
Zookeeper and initiates split and migration operations, coordinating
workers while the system continues to serve inserts and queries.  The
manager is deliberately *not* on the insert/query path -- it can reside
anywhere and is never a throughput bottleneck.

The manager itself is thin; the two interesting parts live next door:

* **deciding** is delegated to a pluggable
  :class:`~repro.cluster.balancer.BalancerPolicy` whose pure ``plan``
  turns a :class:`~repro.cluster.balancer.WorkerView` snapshot into
  split/migrate/spill/rehydrate actions (threshold or memory-pressure);
* **tracking** each started operation -- busy shards, per-kind in-flight
  budgets, give-up timers, obs spans -- is owned by the
  :class:`~repro.cluster.lifecycle.ShardOpMachine`.

What is left is the wire protocol of the seven shard ops (split,
migrate, restore, replicate, promote, spill, rehydrate), and it has one
skeleton: :meth:`Manager._dispatch` admits an op and sends
``<kind>_shard``; :meth:`Manager.receive` maps the ``<kind>_done`` /
``<kind>_failed`` reply back to its op kind, completes the op, and runs
that kind's ``_after_<kind>`` hook, which holds only the op's own side
effect.  Failure detection (heartbeats), healing (promote or restore)
and replica placement decide *which* ops to start.
"""

from __future__ import annotations

from typing import Optional

from .balancer import (
    BalancerPolicy,
    MigrateAction,
    RehydrateAction,
    SpillAction,
    WorkerView,
)
from .faults import CheckpointStore
from .image import owner_of
from .lifecycle import OP_KINDS, ShardOp, ShardOpMachine
from .simclock import SimClock
from .stats import ClusterStats
from .transport import Entity, Message, Transport
from .wire import SHARD_OPS, ReplicaRemove, ShardNotice, ShardOpReply
from .zookeeper import Zookeeper

__all__ = ["BalancerPolicy", "Manager"]

#: shard ids the manager mints start above this one
FIRST_SHARD_ID = 1_000

#: reply kind -> (op kind it answers, whether the op succeeded); a
#: restore has no failure reply (its target never refuses)
_REPLIES = {f"{kind}_done": (kind, True) for kind in OP_KINDS} | {
    f"{kind}_failed": (kind, False) for kind in OP_KINDS if kind != "restore"
}


class Manager(Entity):
    """The load-balancing coordinator."""

    def __init__(
        self,
        clock: SimClock,
        transport: Transport,
        zk: Zookeeper,
        workers: dict[int, Entity],
        policy: Optional[BalancerPolicy] = None,
        stats: Optional[ClusterStats] = None,
        checkpoints: Optional[CheckpointStore] = None,
        heartbeat_period: Optional[float] = None,
        heartbeat_miss_k: int = 4,
        replication_factor: int = 0,
    ):
        self.name = "manager"
        self.clock = clock
        self.transport = transport
        self.zk = zk
        self.workers = workers
        self.policy = policy if policy is not None else BalancerPolicy()
        self.stats = stats if stats is not None else ClusterStats()
        self.checkpoints = checkpoints
        #: failure detection is active iff workers heartbeat
        self.heartbeat_period = heartbeat_period
        self.heartbeat_miss_k = heartbeat_miss_k
        self.dead_workers: set[int] = set()
        #: worker id -> incarnation carried by the last beat seen
        self._incarnation: dict[int, int] = {}
        #: revived workers serving out their probation: worker id ->
        #: time the first post-death beat was seen.  A worker that was
        #: declared dead but heartbeats again (restart, or a partition
        #: that healed) is not trusted with placements until it has
        #: beaten steadily for ``quarantine_period`` -- long enough for
        #: its own reconcile pass to demote any stale primaries.
        self.quarantine: dict[int, float] = {}
        self.quarantine_period = (
            2 * heartbeat_period if heartbeat_period else 0.0
        )
        self.rejoins = 0
        #: asynchronous replicas per shard (0 = replication off)
        self.replication_factor = replication_factor
        #: shard id -> worker ids holding (or being seeded with) its
        #: replicas; the manager's source of truth for placement
        self.replica_sets: dict[int, set[int]] = {}
        self._replica_rr = 0
        self.promotions_done = 0
        #: shards awaiting a (re-)restore after their owner died
        self._pending_restores: set[int] = set()
        #: shard id -> worker that holds the accepted restored copy
        self._restored_to: dict[int, int] = {}
        self._restore_rr = 0
        self._next_shard_id = FIRST_SHARD_ID
        #: every in-flight op (busy tracking, budgets, timers, spans)
        self.lifecycle = ShardOpMachine(
            clock, transport, registry=self.stats.registry, entity_name=self.name
        )
        self.lifecycle.max_inflight = self.policy.max_inflight
        self.lifecycle.max_inflight_restores = self.policy.max_inflight_restores
        self.lifecycle.op_timeout = self.policy.op_timeout
        self.lifecycle.on_timeout = self._on_op_timeout
        #: op kind -> the hook holding that op's completion side effect
        self._after = {kind: getattr(self, f"_after_{kind}") for kind in OP_KINDS}
        self.failovers_handled = 0
        self.restores_done = 0
        self.spills_done = 0
        self.rehydrates_done = 0
        self.enabled = True
        clock.every(self.policy.scan_period, self.scan)

    def allocate_shard_id(self) -> int:
        self._next_shard_id += 1
        return self._next_shard_id

    def reserve_shard_ids(self, upto: int) -> None:
        """Ensure future allocations start above ``upto`` (bootstrap
        claims low ids for the initial shards)."""
        self._next_shard_id = max(self._next_shard_id, upto)

    # -- periodic decision loop -------------------------------------------

    def _worker_state(self) -> dict[int, dict]:
        state = {}
        for wid in self.workers:
            data = self.zk.get(f"/stats/workers/{wid}")
            if data is None:
                continue
            # overlay heartbeat-fresh resident bytes (beats run faster
            # than stats ticks); copy first -- the zk stand-in returns
            # the stored dict by reference
            beat = self.zk.get(f"/heartbeats/{wid}")
            if beat is not None:
                data = dict(data)
                data["resident_bytes"] = beat.resident_bytes
            state[wid] = data
        return state

    def scan(self) -> None:
        if not self.enabled:
            return
        self._check_failures()
        self._sync_worker_phases()
        # retry heals that stalled (promotion target or restore target
        # died mid-op, or no survivor existed at declaration time)
        for sid in sorted(self._pending_restores):
            if not self.lifecycle.busy(sid):
                self._heal_shard(sid)
        self._ensure_replication()
        if self.lifecycle.balance_inflight >= self.policy.max_inflight:
            return
        state = self._worker_state()
        state = {
            wid: d for wid, d in state.items() if wid not in self.dead_workers
        }
        if len(state) < 1:
            return
        view = WorkerView.from_stats(
            state,
            busy=self.lifecycle.busy_shards(),
            budget=self.policy.max_inflight - self.lifecycle.balance_inflight,
        )
        for action in self.policy.plan(view):
            if isinstance(action, MigrateAction):
                self._start_migration(action.src, action.dst, action.shard_id)
            elif isinstance(action, SpillAction):
                self._start_spill(action.worker_id, action.shard_id)
            elif isinstance(action, RehydrateAction):
                self._start_rehydrate(action.worker_id, action.shard_id)
            else:
                self._start_split(action.worker_id, action.shard_id)

    def _sync_worker_phases(self) -> None:
        """Fold worker-reported transfer phases (published best-effort
        under ``/lifecycle/``) into the active ops, so the machine's
        history shows the same ``INSTALLING``/``CUTOVER`` states the
        worker-side :class:`~repro.cluster.transfer.ShardTransfer` went
        through.  Purely observational: reads schedule no events."""
        for sid in list(self.lifecycle.ops):
            data = self.zk.get(f"/lifecycle/{sid}")
            if data is not None:
                self.lifecycle.advance(sid, data[0])

    # -- failure detection / recovery (heartbeats + checkpoints) ----------

    def _beating(self, wid: int) -> bool:
        """Whether ``wid``'s ephemeral heartbeat znode is currently
        live.  Guards promote/restore targets against the scan-order
        race where two workers die in the same detection window: the
        first ``_declare_dead`` heals shards before the second corpse
        is declared, and would otherwise pick it as a destination (the
        op then only unwinds via its timeout).  With heartbeats
        disabled nobody is ever declared dead, so everyone counts."""
        if self.heartbeat_period is None:
            return True
        return self.zk.get(f"/heartbeats/{wid}") is not None

    def _check_failures(self) -> None:
        """Declare workers dead when their ephemeral heartbeat znode has
        expired (K missed beats) or carries a new incarnation, then
        re-home their shards."""
        if self.heartbeat_period is None:
            return
        for wid in list(self.workers):
            beat = self.zk.get(f"/heartbeats/{wid}")
            if beat is not None:
                reborn = self._incarnation.get(wid, beat.incarnation) != beat.incarnation
                self._incarnation[wid] = beat.incarnation
                if wid in self.dead_workers:
                    # the worker is heartbeating again: either it
                    # restarted empty, or it was alive all along behind
                    # a partition that healed.  Either way it rejoins
                    # only after its probation (see ``quarantine``).
                    if wid not in self.quarantine:
                        self.quarantine[wid] = self.clock.now
                    elif (
                        self.clock.now - self.quarantine[wid]
                        >= self.quarantine_period
                    ):
                        self.dead_workers.discard(wid)
                        del self.quarantine[wid]
                        self.rejoins += 1
                elif reborn:
                    # a live beat from a new incarnation: the worker
                    # crashed and restarted before its old beat expired.
                    # The beat never lapsed, but its shards are gone
                    self._declare_dead(wid)
                continue
            # its beat lapsed (again): probation, if any, starts over
            self.quarantine.pop(wid, None)
            if wid in self._incarnation and wid not in self.dead_workers:
                self._declare_dead(wid)

    def _declare_dead(self, wid: int) -> None:
        self.dead_workers.add(wid)
        self.failovers_handled += 1
        self.zk.delete(f"/stats/workers/{wid}")
        # stop counting the dead worker as a replica holder, and detach
        # it from every live primary's stream (best effort)
        for sid, holders in self.replica_sets.items():
            if wid not in holders:
                continue
            holders.discard(wid)
            owner = owner_of(self.zk, sid)
            if (
                owner is not None
                and owner in self.workers
                and owner not in self.dead_workers
            ):
                self.transport.send(
                    self.workers[owner],
                    Message("replica_remove", ReplicaRemove(sid, wid), sender=self),
                )
        lost = [
            int(name)
            for name in self.zk.ls("/shards")
            if owner_of(self.zk, int(name)) == wid
        ]
        self.stats.record_failover(self.clock.now, wid, len(lost))
        for sid in sorted(lost):
            self._pending_restores.add(sid)
            self._restored_to.pop(sid, None)
            self._heal_shard(sid)

    def _heal_shard(self, sid: int) -> None:
        """Re-home a shard whose primary died: promote the freshest live
        replica (a metadata flip, no checkpoint deserialization), or
        fall back to a checkpoint restore when no live replica exists.
        A no-op when the shard is busy; the periodic scan retries."""
        if self.lifecycle.busy(sid):
            return
        owner = owner_of(self.zk, sid)
        if owner is not None:
            owner_stats = self.zk.get(f"/stats/workers/{owner}")
            if (
                owner not in self.dead_workers
                and self.zk.get(f"/heartbeats/{owner}") is not None
                and owner_stats is not None
                and sid in owner_stats.get("shards", {})
            ):
                # already healed (e.g. a promote_done was lost in
                # flight but the metadata flip itself landed): the
                # named owner is alive and really holds the shard -- a
                # restarted-empty owner would not list it
                self._pending_restores.discard(sid)
                return
        cands = [
            w
            for w in sorted(self.replica_sets.get(sid, ()))
            if w in self.workers
            and w not in self.dead_workers
            and w not in self.quarantine
            and self._beating(w)
        ]
        if not cands:
            self._try_restore(sid)
            return
        if (
            self.lifecycle.restore_inflight
            >= self.lifecycle.max_inflight_restores
        ):
            return  # promotion shares the failover budget

        def freshness(w: int) -> tuple:
            wm = self.zk.get(f"/replicas/{sid}/{w}")
            if wm is None:
                return (-1, -1.0, -w)
            return (wm.frontier, wm.wm_time, -w)

        best = max(cands, key=freshness)
        new_epoch = (self.zk.get(f"/epochs/{sid}") or 0) + 1
        if self._dispatch("promote", sid, best, (new_epoch,), dst=best) is None:
            return
        # the shard's epoch moves *now*: it fences the dead primary's
        # other replicas (and the primary itself, should the partition
        # heal) even if this promotion attempt later times out
        self.zk.set(f"/epochs/{sid}", new_epoch)
        self.replica_sets[sid].discard(best)

    def _try_restore(self, sid: int) -> None:
        """Send the shard's checkpoint to an alive worker.  A no-op when
        no survivor exists or the restore budget is exhausted; the
        periodic scan retries once a slot (or survivor) appears."""
        if self.lifecycle.busy(sid):
            return
        if (
            self.lifecycle.restore_inflight
            >= self.lifecycle.max_inflight_restores
        ):
            return
        targets = sorted(
            w
            for w in self.workers
            if w not in self.dead_workers
            and w not in self.quarantine
            and self._beating(w)
        )
        if not targets:
            return
        self._restore_rr += 1
        dst_id = targets[self._restore_rr % len(targets)]
        ck = self.checkpoints.get(sid) if self.checkpoints else None
        blob = ck[0] if ck is not None else None
        if self._dispatch("restore", sid, dst_id, (blob,), dst=dst_id) is not None:
            # fence any copy from the previous ownership epoch
            self.zk.set(f"/epochs/{sid}", (self.zk.get(f"/epochs/{sid}") or 0) + 1)

    # -- replication ------------------------------------------------------

    def _ensure_replication(self) -> None:
        """Keep every settled shard at ``replication_factor`` replicas:
        prune holders that died, then seed missing copies round-robin
        over eligible workers (never the primary, never dead or
        quarantined workers).  One seeding op per shard at a time, all
        drawing from the dedicated ``replicate`` budget."""
        if self.replication_factor <= 0:
            return
        for name in self.zk.ls("/shards"):
            sid = int(name)
            if self.lifecycle.busy(sid):
                continue
            owner = owner_of(self.zk, sid)
            if (
                owner is None
                or owner in self.dead_workers
                or owner in self.quarantine
                or owner not in self.workers
            ):
                continue
            holders = self.replica_sets.setdefault(sid, set())
            for w in list(holders):
                if (
                    w in self.dead_workers
                    or w not in self.workers
                    or w == owner
                ):
                    holders.discard(w)
            if len(holders) >= self.replication_factor:
                continue
            if (
                self.lifecycle.replica_inflight
                >= self.lifecycle.max_inflight_replications
            ):
                return
            cands = [
                w
                for w in sorted(self.workers)
                if w != owner
                and w not in holders
                and w not in self.dead_workers
                and w not in self.quarantine
            ]
            if not cands:
                continue
            self._replica_rr += 1
            dst = cands[self._replica_rr % len(cands)]
            peer = (self.workers[dst], dst)
            if self._dispatch("replicate", sid, owner, peer, src=owner, dst=dst) is None:
                return

    def _reset_replicas(self, sid: int, keep: Optional[int] = None) -> None:
        """Invalidate a shard's replica set (the stream epoch moved on:
        promotion, migration, or split); survivors are told to discard
        their copies and the scan re-seeds from the new primary."""
        for w in self.replica_sets.pop(sid, set()):
            if w != keep and w in self.workers and w not in self.dead_workers:
                self.transport.send(
                    self.workers[w],
                    Message("drop_replica", ShardNotice(sid), sender=self),
                )

    # -- the shard-op skeleton: dispatch, reply, completion hook -------------

    def _dispatch(
        self,
        kind: str,
        shard_id: int,
        to: int,
        args: tuple = (),
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> Optional[ShardOp]:
        """Start one shard op: admit it (busy check, budget, give-up
        timer, span), send ``<kind>_shard`` -- the kind's declaration in
        :data:`~repro.cluster.wire.SHARD_OPS` of ``(shard_id, *args,
        reply handle)`` -- to worker ``to`` under the op's span context,
        and mark it dispatched.  ``None``, with nothing sent, when the
        shard is busy or the kind's budget is spent."""
        op = self.lifecycle.admit(kind, shard_id, src=src, dst=dst)
        if op is None:
            return None
        self.transport.send(
            self.workers[to],
            Message(
                f"{kind}_shard",
                SHARD_OPS[kind](shard_id, *args, self),
                sender=self,
                ctx=op.span.ctx if op.span is not None else None,
            ),
        )
        self.lifecycle.dispatched(shard_id)
        return op

    def receive(self, msg: Message) -> None:
        """Every message the manager gets answers one of its ops."""
        reply = _REPLIES.get(msg.kind)
        if reply is None:
            raise ValueError(f"manager: unknown message {msg.kind!r}")
        kind, ok = reply
        shard_id = msg.payload.shard
        op = self.lifecycle.active(shard_id)
        if not self.lifecycle.complete(shard_id, kind, ok=ok):
            # stale or duplicated: its op timed out, or the shard is
            # busy with a different kind of op -- nothing was released
            op = None
        self._after[kind](op, ok, msg.payload)


    def _on_op_timeout(self, op: ShardOp) -> None:
        """Protocol unwind after the machine's give-up timer fired."""
        if op.kind == "migrate" and op.src is not None:
            # unwedge the frozen source shard
            self.transport.send(
                self.workers[op.src],
                Message("migrate_abort", ShardNotice(op.shard_id), sender=self),
            )
        if op.kind == "restore" and op.shard_id in self._pending_restores:
            self._heal_shard(op.shard_id)  # pick another survivor
        if op.kind == "replicate" and op.dst is not None:
            # the seed may be half-landed: discard the copy and detach
            # the stream; the scan re-seeds from scratch
            holders = self.replica_sets.get(op.shard_id)
            if holders is not None:
                holders.discard(op.dst)
            if op.dst in self.workers and op.dst not in self.dead_workers:
                self.transport.send(
                    self.workers[op.dst],
                    Message("drop_replica", ShardNotice(op.shard_id), sender=self),
                )
            if (
                op.src is not None
                and op.src in self.workers
                and op.src not in self.dead_workers
            ):
                self.transport.send(
                    self.workers[op.src],
                    Message(
                        "replica_remove", ReplicaRemove(op.shard_id, op.dst), sender=self
                    ),
                )
        if op.kind == "promote" and op.shard_id in self._pending_restores:
            # the chosen replica never flipped (crashed mid-promotion,
            # or the message was lost): try the next-freshest, or fall
            # back to a checkpoint restore
            self._heal_shard(op.shard_id)

    def _start_split(self, worker_id: int, shard_id: int) -> None:
        ids = (self.allocate_shard_id(), self.allocate_shard_id())
        self._dispatch("split", shard_id, worker_id, ids, src=worker_id)

    def _start_migration(self, src: int, dst: int, shard_id: int) -> None:
        self._dispatch("migrate", shard_id, src, (self.workers[dst],), src=src, dst=dst)

    def _start_spill(self, worker_id: int, shard_id: int) -> None:
        """Policy-driven spill (draws from the residency pool, so
        memory relief is never queued behind migrations)."""
        self._dispatch("spill", shard_id, worker_id, src=worker_id)

    def _start_rehydrate(self, worker_id: int, shard_id: int) -> None:
        self._dispatch("rehydrate", shard_id, worker_id, src=worker_id)

    # -- completion hooks -----------------------------------------------------
    #
    # ``_after_<kind>(op, ok, payload)``: ``op`` is the op the reply
    # completed, or ``None`` when it matched no active op of this kind.

    def _after_split(self, op, ok: bool, payload: ShardOpReply) -> None:
        if op is not None and ok:
            self.stats.record_split(self.clock.now)
            # the children start unreplicated; the parent's replicas
            # hold a dead id
            self._reset_replicas(op.shard_id)

    def _after_migrate(self, op, ok: bool, payload: ShardOpReply) -> None:
        if op is not None and ok:
            self.stats.record_migration(self.clock.now)
            # the stream did not follow the move: re-seed
            self._reset_replicas(op.shard_id)

    def _after_replicate(self, op, ok: bool, payload: ShardOpReply) -> None:
        if op is None:
            return
        if ok:
            self.replica_sets.setdefault(op.shard_id, set()).add(payload.worker)
        else:
            self.replica_sets.get(op.shard_id, set()).discard(op.dst)

    def _after_promote(self, op, ok: bool, payload: ShardOpReply) -> None:
        if op is None:
            return
        shard_id = op.shard_id
        if ok:
            self._pending_restores.discard(shard_id)
            self.promotions_done += 1
            self.stats.record_promotion(self.clock.now, shard_id, payload.worker)
            # surviving replicas carry the dead epoch: re-seed them
            # from the new primary
            self._reset_replicas(shard_id, keep=payload.worker)
        elif shard_id in self._pending_restores:
            self._heal_shard(shard_id)

    def _after_spill(self, op, ok: bool, payload: ShardOpReply) -> None:
        if op is not None and ok:
            self.spills_done += 1

    def _after_rehydrate(self, op, ok: bool, payload: ShardOpReply) -> None:
        if op is not None and ok:
            self.rehydrates_done += 1

    def _after_restore(self, op, ok: bool, payload: ShardOpReply) -> None:
        # honoured even when its op already timed out: the worker did
        # install and publish the shard
        shard_id, wid = payload.shard, payload.worker
        if shard_id in self._pending_restores:
            self._pending_restores.discard(shard_id)
            self.restores_done += 1
        # any replica that outlived the old primary is fenced by the
        # restore's epoch bump: drop and re-seed
        self._reset_replicas(shard_id)
        # a timed-out attempt may have been re-issued and both copies
        # completed: keep the one the system image names, drop the other
        owner = owner_of(self.zk, shard_id)
        if owner is not None and owner != wid:
            self._drop_copy(wid, shard_id)
        else:
            prev = self._restored_to.get(shard_id)
            if prev is not None and prev != wid:
                self._drop_copy(prev, shard_id)
            self._restored_to[shard_id] = wid

    def _drop_copy(self, wid: int, shard_id: int) -> None:
        if wid in self.workers and wid not in self.dead_workers:
            self.transport.send(
                self.workers[wid],
                Message("drop_shard", ShardNotice(shard_id), sender=self),
            )
