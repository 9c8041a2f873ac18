"""QueryRouter: the server-side rollup tier and adaptive read routing.

Each server owns one router (when ``ClusterConfig.rollup`` is set; the
default ``None`` keeps every query on the classic tree path with zero
added state or events).  The router maintains a
:class:`~repro.olap.rollup_store.RollupStore` of materialized cubes and
answers eligible queries straight from server memory -- no worker
fan-out at all -- falling back per *shard* to the tree when a shard's
cube data is missing or too stale for the query's budget ("hybrid").

Freshness reuses the replication stream wholesale
(:mod:`repro.cluster.stream` is the protocol).  The router subscribes to
a shard's acknowledged insert stream as one more peer of the primary's
sender log (its subscriber id is ``-(server_id + 1)``, a namespace real
workers never use, and it writes no ``/replicas`` znodes, so manager
pruning and replica read routing never see it) and follows it with the
same :class:`~repro.cluster.stream.Cursor` a replica uses.  The
primary's seq-numbered ``replica_batch`` messages, cumulative
``replica_ack`` trimming, 0.1 s retransmits, and ``/repl/heads`` beacons
all apply unchanged; per-shard staleness is the one
:func:`~repro.cluster.stream.lag`, and epochs fence streams across
promote/restore just as they fence replicas.

Seeding a cube is a ``rollup_sync`` round trip: the worker registers
the subscriber at its current stream head, folds the shard's rows into
one dense slab per requested cube key, and replies ``rollup_cells``
carrying ``(epoch, head, slabs)``.  Batches that arrive while a sync is
in flight are retained in a bounded tail and replayed over the
freshly installed slab, so the slab lands exactly contiguous with the
live stream -- a torn join (tail overflow, stale epoch) just drops the
slab and re-requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.aggregates import Aggregate
from ..olap.keys import Box
from ..olap.rollup import CubeKey, accumulate_cells, cube_candidate
from ..olap.rollup_store import RollupStore
from .stream import FENCED, NEW, STALE, Cursor, lag
from .transport import Message
from .wire import ReplicaAck, ReplicaRemove, RollupSync

__all__ = ["RollupConfig", "QueryResult", "RoutePlan", "QueryRouter"]

#: re-request a rollup_sync that got no reply after this long
SYNC_TIMEOUT = 0.5
#: period of the reconcile tick (sync scheduling, stream teardown)
RECONCILE_PERIOD = 0.25
#: max stream batches retained for replay while a sync is in flight;
#: overflow tears the join and the sync is re-requested
TAIL_LIMIT = 512


@dataclass(frozen=True)
class RollupConfig:
    """Tuning of the per-server rollup tier."""

    #: resident-bytes envelope for all cube slabs on one server
    budget_bytes: int = 32 << 20
    #: refuse cubes with more cells than this (a cube approaching the
    #: raw data size stops being a summary)
    max_cells: int = 1 << 16
    #: decayed misses for one candidate key before it is materialized
    admit_after: int = 2


@dataclass
class QueryResult:
    """What ``cluster.execute`` returns per query."""

    value: Aggregate
    #: achieved coverage fraction (1.0 = complete answer)
    coverage: float
    #: achieved read staleness (seconds; 0.0 = primary-fresh)
    staleness: float
    #: which tier answered: "tree", "rollup", or "hybrid"
    source: str
    shards_searched: int
    op_id: int = -1


@dataclass
class RoutePlan:
    """A routing decision: the cube-served part of a query's answer
    plus the shards that still need the tree path."""

    source: str  # "rollup" (all shards cube-served) | "hybrid"
    agg: Aggregate
    staleness: float
    #: total cube cells sliced (drives the hit's service time)
    cells: int
    #: shards whose cube data is missing/too stale: tree fan-out
    stale_infos: list = field(default_factory=list)
    #: shards answered from cube slabs
    cube_served: int = 0


@dataclass
class _Stream:
    """The router's end of one shard's stream."""

    #: position in the stream; ``None`` until a sync reply seeds it
    cursor: Optional[Cursor] = None
    #: the worker the seed came from
    owner: Optional[int] = None
    #: seq -> (coords, measures, creation time), retained for replay
    #: while a sync is in flight
    tail: dict = field(default_factory=dict)
    #: the epoch the pre-seed tail was retained from
    tail_epoch: Optional[int] = None
    #: the tail overflowed: it cannot cover a join any more
    torn: bool = False


@dataclass
class _Sync:
    """A ``rollup_sync`` in flight (its presence switches on tail
    retention)."""

    keys: set
    sent: float


class QueryRouter:
    """Rollup tier of one server: cube store, stream state, routing."""

    def __init__(self, server, config: RollupConfig):
        self.server = server
        self.cfg = config
        self.store = RollupStore(
            server.schema,
            budget_bytes=config.budget_bytes,
            max_cells=config.max_cells,
            admit_after=config.admit_after,
        )
        #: stream-peer id on the primaries; negative so it can never
        #: collide with a real worker id
        self.sub_id = -(server.server_id + 1)
        self._streams: dict[int, _Stream] = {}
        self._pending_sync: dict[int, _Sync] = {}
        #: cluster metrics registry, shared in by the cluster wiring;
        #: None (standalone servers) keeps counters local-only
        self.registry = None
        self.hits = {"rollup": 0, "hybrid": 0}
        self.misses = {"no_cube": 0, "stale": 0}
        self.sync_failures = 0
        self.rows_applied = 0
        self.batches_applied = 0
        self._evictions_seen = 0
        lo = np.zeros(server.schema.num_dims, dtype=np.int64)
        self._full_box = Box(lo, server.schema.leaf_limits.copy(), copy=False)
        server.clock.every(RECONCILE_PERIOD, self.reconcile)

    # -- metrics ------------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        if self.registry is not None:
            self.registry.counter(
                name, server=self.server.server_id, **labels
            ).inc()

    def _flush_evictions(self) -> None:
        new = self.store.evictions - self._evictions_seen
        self._evictions_seen = self.store.evictions
        for _ in range(new):
            self._count("volap_rollup_evictions_total")

    # -- staleness ----------------------------------------------------------

    def shard_lag(self, cube, info, now: float) -> Optional[float]:
        """Estimated staleness of the cube's view of one shard, or
        ``None`` when it cannot be cube-served at all (no slab, torn or
        unseeded stream, owner moved, epoch fenced)."""
        sid = info.shard_id
        st = self._streams.get(sid)
        if sid not in cube.slabs or st is None or st.cursor is None:
            return None
        if not self._current(st, info):
            return None
        return lag(st.cursor, self.server.zk.get(f"/repl/heads/{sid}"), now)

    def _current(self, st: _Stream, info) -> bool:
        """Whether a seeded stream still follows the shard's owner and
        ownership epoch."""
        return st.owner == info.worker_id and st.cursor.epoch == (
            self.server.zk.get(f"/epochs/{info.shard_id}") or 0
        )

    def max_lag(self, now: float) -> float:
        """Worst current stream lag (the staleness-lag gauge)."""
        zk = self.server.zk
        return max(
            (
                lag(st.cursor, zk.get(f"/repl/heads/{sid}"), now)
                for sid, st in self._streams.items()
                if st.cursor is not None
            ),
            default=0.0,
        )

    # -- routing ------------------------------------------------------------

    def plan(self, query, infos: list, now: float) -> Optional[RoutePlan]:
        """Decide how to serve ``query`` over ``infos``.

        ``None`` means the classic tree path.  Budget-less queries
        (no per-query ``max_staleness``, no server default) are *never*
        routed through cubes unless ``routing="rollup"`` forces it:
        with no staleness budget the caller asked for primary-fresh
        data, and the tree path is the only source that guarantees it.
        """
        routing = getattr(query, "routing", "auto") or "auto"
        if routing == "tree":
            return None
        budget = getattr(query, "max_staleness", None)
        if budget is None:
            budget = self.server.max_staleness
        if routing == "rollup":
            budget = float("inf")  # forced: serve from cubes regardless
        elif budget is None:
            return None
        m = self.store.match(query.box)
        if m is None:
            self.misses["no_cube"] += 1
            self._count("volap_rollup_misses_total", reason="no_cube")
            self._note_demand(query.box, now, len(infos))
            return None
        cube, ranges = m
        fresh: list[int] = []
        stale_infos: list = []
        staleness = 0.0
        for info in infos:
            shard_lag = self.shard_lag(cube, info, now)
            if shard_lag is None or shard_lag > budget:
                stale_infos.append(info)
            else:
                fresh.append(info.shard_id)
                staleness = max(staleness, shard_lag)
        if not fresh:
            self.misses["stale"] += 1
            self._count("volap_rollup_misses_total", reason="stale")
            return None
        agg, missing = self.store.cube_answer(cube, ranges, fresh)
        if missing:  # pragma: no cover - shard_lag already requires slabs
            by_sid = {i.shard_id: i for i in infos}
            stale_infos.extend(by_sid[s] for s in missing)
        cells = 1
        for lo, hi in ranges:
            cells *= hi - lo + 1
        self.store.touch(cube.key, now)
        source = "hybrid" if stale_infos else "rollup"
        self.hits[source] += 1
        self._count("volap_rollup_hits_total", source=source)
        return RoutePlan(
            source,
            agg,
            staleness,
            cells * len(fresh),
            stale_infos,
            len(fresh),
        )

    def _note_demand(self, box: Box, now: float, shard_count: int) -> None:
        key = cube_candidate(self.server.schema, box)
        if not self.store.admissible(key):
            return
        if self.store.note_miss(key, now):
            self.materialize(key, shard_count=shard_count)

    def materialize(self, key: CubeKey, shard_count: int = 0) -> bool:
        """Admit ``key`` (evicting as needed) and kick off its shard
        syncs; also the test/bench hook for explicit pinning."""
        now = self.server.clock.now
        if shard_count <= 0:
            shard_count = max(1, len(self.server.image.search(self._full_box)))
        cube = self.store.admit(key, now, shard_count=shard_count)
        self._flush_evictions()
        if cube is None:
            return False
        self.reconcile()
        return True

    # -- stream plumbing ----------------------------------------------------

    def _reset_stream(self, sid: int) -> None:
        """Tear a shard's stream down to unseeded and drop its slabs:
        the next reconcile re-syncs from the current owner."""
        self._streams[sid] = _Stream()
        self._pending_sync.pop(sid, None)
        self.store.drop_shard(sid)

    def _drop_shard(self, sid: int) -> None:
        st = self._streams.pop(sid, None)
        self._pending_sync.pop(sid, None)
        self.store.drop_shard(sid)
        if st is not None and st.owner is not None:
            worker = self.server.workers.get(st.owner)
            if worker is not None:
                self._send(worker, "replica_remove", (sid, self.sub_id))

    def _send(self, dst, kind: str, payload) -> None:
        self.server.transport.send(dst, Message(kind, payload, sender=self.server))

    def on_shard_event(self, sid: int, info) -> None:
        """Image watch hook (called by the server's ``/shards`` watch):
        a removed shard drops its stream and slabs immediately; a new
        or re-homed shard is left to the reconcile tick."""
        if info is None:
            if sid in self._streams or sid in self.store.shard_ids():
                self._drop_shard(sid)
            return
        st = self._streams.get(sid)
        if st is not None and st.owner not in (None, info.worker_id):
            # migrated or promoted away: the old stream is dead and the
            # new owner's store may include rows it never carried
            self._reset_stream(sid)

    def reconcile(self) -> None:
        """Periodic truth-sync: request slabs every cube is missing,
        re-request timed-out syncs, fence moved epochs, and tear down
        streams for shards (or cubes) that no longer exist."""
        now = self.server.clock.now
        if not self.store.cubes:
            for sid in list(self._streams):
                self._drop_shard(sid)
            return
        infos = {
            i.shard_id: i for i in self.server.image.search(self._full_box)
        }
        for sid in list(self._streams):
            if sid not in infos:
                self._drop_shard(sid)
        for sid, info in infos.items():
            st = self._streams.get(sid)
            if st is not None and st.cursor is not None and not self._current(st, info):
                self._reset_stream(sid)
            pending = self._pending_sync.get(sid)
            if pending is not None and now - pending.sent < SYNC_TIMEOUT:
                continue
            needed = {
                key
                for key, cube in self.store.cubes.items()
                if sid not in cube.slabs
            }
            if pending is not None:
                needed |= pending.keys
            if not needed:
                continue
            self._send_sync(sid, info, needed, now)

    def _send_sync(
        self, sid: int, info, keys: set, now: float
    ) -> None:
        worker = self.server.workers.get(info.worker_id)
        if worker is None:
            return
        self._streams.setdefault(sid, _Stream())
        self._pending_sync[sid] = _Sync(set(keys), now)
        self._send(
            worker,
            "rollup_sync",
            RollupSync(
                sid,
                self.sub_id,
                [k.to_wire() for k in sorted(keys, key=lambda k: k.to_wire())],
                self.server,
            ),
        )

    # -- stream message handlers --------------------------------------------

    def on_replica_batch(self, msg: Message) -> None:
        p = msg.payload
        sid, epoch, seq = p.m.tolist()
        t_created = float(p.g[0])
        st = self._streams.get(sid)
        if st is None:
            # not subscribed (anymore): stop the primary's retransmits
            self._send(p.primary, "replica_remove", ReplicaRemove(sid, self.sub_id))
            return
        if st.cursor is None:
            # pre-seed: retain for post-install replay, ack nothing.
            # The tail is epoch-tagged so a fenced stream can never
            # replay a dead primary's lineage over a fresh slab.
            if sid in self._pending_sync:
                if st.tail_epoch != epoch:
                    st.tail.clear()
                    st.tail_epoch = epoch
                self._retain(st, seq, p.c, p.v, t_created)
            return
        verdict = self._apply_batch(sid, st, epoch, seq, p.c, p.v, t_created)
        if verdict == STALE:
            self._send(p.primary, "replica_remove", ReplicaRemove(sid, self.sub_id))
            return
        if verdict == FENCED:
            self._reset_stream(sid)  # reconcile re-syncs
            return

        def ack() -> None:
            cur = self._streams.get(sid)
            if cur is not None and cur.cursor is not None and cur.cursor.epoch == epoch:
                self._ack_frontier(sid, cur, p.primary)

        self.server.pool.submit(self.server.cost.rollup_apply_time(len(p.v)), ack)

    def _retain(self, st: _Stream, seq: int, coords, measures, t_created: float) -> None:
        st.tail[seq] = (coords, measures, t_created)
        if len(st.tail) > TAIL_LIMIT:
            st.tail.clear()
            st.torn = True

    def _apply_batch(
        self, sid: int, st: _Stream, epoch: int, seq: int, coords, measures, t_created
    ) -> str:
        """Offer one stream batch to the shard's cursor and, when it is
        new, fold it into every installed slab of the shard (duplicates
        from retransmits are no-ops).  Returns the cursor's verdict."""
        verdict = st.cursor.offer(epoch, seq, t_created)
        if verdict != NEW:
            return verdict
        for cube in self.store.cubes.values():
            slab = cube.slabs.get(sid)
            if slab is not None:
                accumulate_cells(
                    self.server.schema, cube.key, coords, measures, into=slab
                )
        if sid in self._pending_sync:
            self._retain(st, seq, coords, measures, t_created)
        self.rows_applied += len(measures)
        self.batches_applied += 1
        return verdict

    def on_rollup_cells(self, msg: Message) -> None:
        """A worker's sync reply: install the slabs and splice them
        onto the live stream (replaying retained tail batches past the
        reply's head, or tearing the join if the tail cannot cover the
        gap)."""
        p = msg.payload
        sid, epoch, head, pairs, wid = p.shard, p.epoch, p.head, p.pairs, p.worker
        st = self._streams.get(sid)
        pending = self._pending_sync.get(sid)
        if st is None or pending is None:
            return  # shard dropped, or a duplicate of a finished sync
        if st.cursor is not None and epoch < st.cursor.epoch:
            return  # stale reply from before a fence; retry will re-ask
        if st.cursor is not None and epoch > st.cursor.epoch:
            self._reset_stream(sid)
            st = self._streams[sid]
        keys = [CubeKey.from_wire(kw) for kw, _ in pairs]
        if st.cursor is None:
            st.cursor = Cursor(epoch, head, self.server.clock.now)
            st.owner = wid
            self._install(sid, pairs)
            self._finish_sync(sid, pending, keys)
            # replay everything retained past the snapshot head (only
            # if it was retained from this same epoch's stream)
            if st.tail_epoch not in (None, epoch) or st.torn:
                st.tail.clear()
            tail = dict(st.tail)  # replaying may retain into st.tail again
            st.tail_epoch = None
            st.torn = False
            for seq in sorted(tail):
                coords, measures, t = tail[seq]
                self._apply_batch(sid, st, epoch, seq, coords, measures, t)
            if sid not in self._pending_sync:
                st.tail.clear()
            worker = self.server.workers.get(wid)
            if worker is not None:
                self._ack_frontier(sid, st, worker)
            return
        # same-epoch late join: the slab snapshot covers seqs <= head;
        # everything this stream already applied past head must come
        # from the retained tail, else the join is torn
        needed = st.cursor.applied_after(head)
        torn, st.torn = st.torn, False
        if torn or any(s not in st.tail for s in needed):
            pending.sent = -1e18  # force an immediate re-request
            return
        self._install(sid, pairs)
        for s in needed:
            coords, measures, _t = st.tail[s]
            for key in keys:
                cube = self.store.cubes.get(key)
                if cube is None or sid not in cube.slabs:
                    continue
                accumulate_cells(
                    self.server.schema,
                    key,
                    coords,
                    measures,
                    into=cube.slabs[sid],
                )
        self._finish_sync(sid, pending, keys)
        if sid not in self._pending_sync:
            st.tail.clear()

    def _install(self, sid: int, pairs) -> None:
        for kw, cells in pairs:
            cube = self.store.cubes.get(CubeKey.from_wire(kw))
            if cube is not None:
                cube.slabs[sid] = cells

    def _finish_sync(self, sid: int, pending: _Sync, keys) -> None:
        pending.keys -= set(keys)
        if not pending.keys:
            self._pending_sync.pop(sid, None)

    def _ack_frontier(self, sid: int, st: _Stream, primary) -> None:
        self._send(
            primary,
            "replica_ack",
            ReplicaAck(sid, st.cursor.epoch, st.cursor.frontier, self.sub_id),
        )

    def on_rollup_sync_failed(self, msg: Message) -> None:
        """The worker couldn't seed (shard frozen or moved): leave the
        sync pending; the timeout re-requests from the current owner."""
        self.sync_failures += 1
