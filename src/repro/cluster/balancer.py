"""Pluggable load-balancing policies (paper Section III-E).

The manager's periodic scan separates *deciding* from *doing*: it
snapshots per-worker state out of Zookeeper into a :class:`WorkerView`,
asks its policy's :meth:`BalancerPolicy.plan` for a list of
:class:`PlanAction` rows, and executes them through the shard-op
lifecycle machine.  ``plan`` is a **pure function** of the view -- no
clock, no transport, no Zookeeper -- so every policy is unit-testable
without instantiating the simulator.

Two policies ship:

* :class:`ThresholdPolicy` (the default; ``BalancerPolicy`` itself
  keeps the same greedy behaviour for backward compatibility): split
  any shard above ``max_shard_items``; while the most loaded worker
  exceeds ``imbalance_ratio`` times the least loaded, migrate the
  largest shard that fits half the gap, splitting when nothing fits
  (paper III-E: "a shard can also be split if the load balancer
  requires smaller shards for migration").
* :class:`MemoryPressurePolicy`: the paper's framing -- "the manager
  may identify a worker that is overloaded and about to run out of
  memory".  Workers have an item capacity; any worker above the high
  watermark sheds shards to the least-pressured worker until it
  projects below the low watermark.  Given a byte budget it plans on
  measured resident bytes instead and spills before it migrates.

Both run the same greedy migration loop (:meth:`BalancerPolicy.plan`);
a policy only says how many items may move from the most to the least
loaded worker (:meth:`BalancerPolicy._move_limit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Union

__all__ = [
    "SplitAction",
    "MigrateAction",
    "SpillAction",
    "RehydrateAction",
    "PlanAction",
    "WorkerView",
    "BalancerPolicy",
    "ThresholdPolicy",
    "MemoryPressurePolicy",
]


@dataclass(frozen=True)
class SplitAction:
    """Split ``shard_id`` in place on ``worker_id``."""

    worker_id: int
    shard_id: int
    kind: ClassVar[str] = "split"


@dataclass(frozen=True)
class MigrateAction:
    """Move ``shard_id`` from worker ``src`` to worker ``dst``."""

    src: int
    dst: int
    shard_id: int
    kind: ClassVar[str] = "migrate"


@dataclass(frozen=True)
class SpillAction:
    """Spill ``shard_id`` on ``worker_id`` from HOT to WARM (release
    its columns; the blob on disk keeps serving through the cold
    index).  Draws from the lifecycle's residency pool, not the
    split/migrate budget -- memory-pressure relief is cheaper than a
    migration and must never be starved by one."""

    worker_id: int
    shard_id: int
    kind: ClassVar[str] = "spill"


@dataclass(frozen=True)
class RehydrateAction:
    """Pull WARM ``shard_id`` on ``worker_id`` back HOT ahead of demand
    (the worker has durable headroom below the low watermark)."""

    worker_id: int
    shard_id: int
    kind: ClassVar[str] = "rehydrate"


PlanAction = Union[SplitAction, MigrateAction, SpillAction, RehydrateAction]


@dataclass(frozen=True)
class WorkerView:
    """Pure snapshot of cluster state a policy plans against.

    Dict iteration order is meaningful (it is the manager's worker
    registration order) and ties in size comparisons resolve to the
    first worker in that order, exactly as the pre-refactor greedy
    scan did.
    """

    #: worker id -> total stored items (shards + insertion queues)
    sizes: dict
    #: worker id -> {shard id -> item count}
    shards: dict
    #: shard ids with an in-flight lifecycle op (never planned again)
    busy: frozenset = frozenset()
    #: remaining split+migration admission slots this scan
    budget: int = 1
    #: worker id -> measured hot resident bytes (heartbeat-fresh when
    #: available, stats-fresh otherwise); empty for pre-residency
    #: payloads, and item-count planning still works then (back-compat)
    resident_bytes: dict = field(default_factory=dict)
    #: worker id -> {hot shard id -> resident bytes}
    shard_bytes: dict = field(default_factory=dict)
    #: worker id -> {WARM shard id -> (items, pre-spill resident bytes)}
    warm: dict = field(default_factory=dict)
    #: worker id -> {hot shard id -> seconds since last access}
    idle: dict = field(default_factory=dict)

    @classmethod
    def from_stats(cls, state: dict, busy, budget: int) -> "WorkerView":
        """Build a view from the ``/stats/workers/*`` znode payloads."""
        return cls(
            sizes={wid: d.get("items", 0) for wid, d in state.items()},
            shards={wid: dict(d.get("shards", {})) for wid, d in state.items()},
            busy=frozenset(busy),
            budget=budget,
            resident_bytes={
                wid: d["resident_bytes"]
                for wid, d in state.items()
                if "resident_bytes" in d
            },
            shard_bytes={
                wid: dict(d.get("shard_bytes", {})) for wid, d in state.items()
            },
            warm={
                wid: {sid: tuple(v) for sid, v in d.get("warm", {}).items()}
                for wid, d in state.items()
            },
            idle={wid: dict(d.get("idle", {})) for wid, d in state.items()},
        )

    def hot_shards(self, worker_id: int) -> dict:
        """The worker's shard sizes minus WARM shards: split and
        migrate candidates must be HOT (a WARM shard is not frozen, so
        a transfer would find it absent and fail -- harmless but a
        wasted scan)."""
        warm = self.warm.get(worker_id, {})
        return {
            sid: size
            for sid, size in self.shards.get(worker_id, {}).items()
            if sid not in warm
        }


@dataclass(frozen=True)
class BalancerPolicy:
    """Strategy interface plus the knobs every policy shares.

    Subclasses override :meth:`plan` or just :meth:`_move_limit`.  The
    base class implements the classic threshold-greedy behaviour so
    existing code constructing ``BalancerPolicy(...)`` directly keeps
    working bit-for-bit; :class:`ThresholdPolicy` is the explicit name
    for that default.
    """

    #: split any shard above this size
    max_shard_items: int = 8000
    #: migrate when max worker load exceeds this multiple of the min
    imbalance_ratio: float = 1.4
    #: never migrate shards smaller than this
    min_migrate_items: int = 200
    #: manager scan period (virtual seconds)
    scan_period: float = 1.0
    #: in-flight budget for splits + migrations
    max_inflight: int = 4
    #: in-flight budget for failover restores (separate pool, so a mass
    #: failover cannot stampede one survivor with deserialize work)
    max_inflight_restores: int = 8
    #: give up on a split/migration/restore that produced no reply
    #: (e.g. the destination died mid-transfer) after this many virtual
    #: seconds
    op_timeout: float = 10.0

    # -- strategy ---------------------------------------------------------

    def plan(self, view: WorkerView) -> list:
        """Return the actions to start this scan (pure, in order):
        oversize splits, then greedy migrations from the most to the
        least loaded worker for as long as :meth:`_move_limit` allows,
        planned against projected sizes so several moves per scan
        converge instead of overshooting."""
        actions: list = []
        budget = view.budget
        if budget <= 0 or not view.sizes:
            return actions
        busy = set(view.busy)
        budget = self._plan_oversize_splits(view, actions, busy, budget)
        if budget <= 0 or len(view.sizes) < 2:
            return actions
        sizes = dict(view.sizes)
        shards = {wid: view.hot_shards(wid) for wid in view.shards}
        while budget > 0:
            src = max(sizes, key=sizes.get)
            dst = min(sizes, key=sizes.get)
            limit = None if src == dst else self._move_limit(sizes[src], sizes[dst])
            if limit is None:
                break
            # move the largest shard within the limit
            candidates = [
                (size, sid)
                for sid, size in shards[src].items()
                if sid not in busy and self.min_migrate_items <= size <= limit
            ]
            if not candidates:
                self._split_for_migration(shards[src], src, busy, actions)
                break
            size, sid = max(candidates)
            actions.append(MigrateAction(src, dst, sid))
            busy.add(sid)
            budget -= 1
            sizes[src] -= size
            sizes[dst] += size
            del shards[src][sid]
            shards[dst][sid] = size
        return actions

    def _move_limit(self, src_size: int, dst_size: int) -> Optional[float]:
        """How many items may move from the most loaded worker to the
        least loaded one, or ``None`` when nothing should.  Threshold:
        half the gap -- the move keeps ``dst`` below ``src`` -- while
        the imbalance exceeds ``imbalance_ratio``."""
        if src_size <= self.imbalance_ratio * max(dst_size, self.min_migrate_items):
            return None
        return (src_size - dst_size) / 2

    # -- shared building blocks -------------------------------------------

    def _plan_oversize_splits(self, view, actions, busy, budget) -> int:
        """Split every non-busy HOT shard above ``max_shard_items``."""
        for wid in view.shards:
            for sid, size in view.hot_shards(wid).items():
                if size > self.max_shard_items and sid not in busy and budget > 0:
                    actions.append(SplitAction(wid, sid))
                    busy.add(sid)
                    budget -= 1
        return budget

    def _split_for_migration(self, shards_of_src, src, busy, actions) -> None:
        """No movable shard fits: split the largest splittable one so
        the next scan has migratable pieces (paper III-E)."""
        splittable = [
            (size, sid)
            for sid, size in shards_of_src.items()
            if sid not in busy and size >= 2 * self.min_migrate_items
        ]
        if splittable:
            _, sid = max(splittable)
            actions.append(SplitAction(src, sid))


@dataclass(frozen=True)
class ThresholdPolicy(BalancerPolicy):
    """The default greedy policy (explicit name for the base behaviour):
    size-threshold splits plus imbalance-ratio-driven migrations."""


@dataclass(frozen=True)
class MemoryPressurePolicy(BalancerPolicy):
    """The paper's memory-pressure policy: act when a worker is
    "overloaded and about to run out of memory".

    Each worker has an item capacity.  A worker whose utilisation
    exceeds ``high_watermark`` sheds shards to the least-utilised
    worker until its projected utilisation is back below
    ``low_watermark`` (hysteresis, so one borderline worker does not
    oscillate).  Oversize shards still split (a shard larger than
    ``max_shard_items`` is itself a memory hazard).
    """

    #: items one worker can hold before it is "out of memory"
    worker_capacity_items: int = 20_000
    #: utilisation fraction above which a worker must shed load
    high_watermark: float = 0.85
    #: shed until the worker projects below this fraction
    low_watermark: float = 0.60
    #: per-worker hot-memory budget in *bytes*.  When set (and workers
    #: report measured ``resident_bytes``), the policy plans on real
    #: memory instead of item counts and prefers **spill before
    #: migrate**: releasing a cold shard's columns relieves pressure
    #: without moving a byte across the wire.  ``None`` keeps the
    #: classic item-count behaviour bit-for-bit.
    worker_budget_bytes: Optional[int] = None

    def plan(self, view: WorkerView) -> list:
        if self.worker_budget_bytes is not None and view.resident_bytes:
            return self._plan_bytes(view)
        return super().plan(view)

    def _move_limit(self, src_size: int, dst_size: int) -> Optional[float]:
        """Only a worker above the high watermark sheds: enough to get
        it under the low watermark, but never so much that the receiver
        itself crosses the high one."""
        cap = self.worker_capacity_items
        if src_size <= self.high_watermark * cap:
            return None  # nobody is under pressure
        return min(
            src_size - self.low_watermark * cap, self.high_watermark * cap - dst_size
        )

    def _plan_bytes(self, view: WorkerView) -> list:
        """Byte-mode plan: measured resident bytes against the worker
        budget, spill before migrate.

        Per over-watermark worker, the coldest HOT shards (most idle,
        then largest) are spilled until the projection drops below the
        low watermark; only when nothing spillable remains does the
        policy fall back to migrating a shard away.  WARM shards are
        rehydrated ahead of demand only on workers projecting below
        the low watermark *after* the rehydrate -- the hysteresis band
        between the watermarks keeps a borderline shard from
        ping-ponging between tiers."""
        actions: list = []
        busy = set(view.busy)
        budget = self._plan_oversize_splits(view, actions, busy, view.budget)
        cap = self.worker_budget_bytes
        used = dict(view.resident_bytes)
        for wid in list(used):
            if used[wid] <= self.high_watermark * cap:
                continue
            idle = view.idle.get(wid, {})
            candidates = sorted(
                (
                    (idle.get(sid, 0.0), sbytes, sid)
                    for sid, sbytes in view.shard_bytes.get(wid, {}).items()
                    if sid not in busy
                ),
                reverse=True,
            )
            for _idle_t, sbytes, sid in candidates:
                if used[wid] <= self.low_watermark * cap:
                    break
                # spills draw from the lifecycle's residency pool, not
                # the split/migrate budget
                actions.append(SpillAction(wid, sid))
                busy.add(sid)
                used[wid] -= sbytes
            if (
                used[wid] > self.high_watermark * cap
                and budget > 0
                and len(used) > 1
            ):
                # spill exhausted but still over the watermark: shed a
                # shard to the emptiest worker (migrate after spill)
                dst = min(
                    (w for w in used if w != wid), key=lambda w: used[w]
                )
                movable = [
                    (sbytes, sid)
                    for sid, sbytes in view.shard_bytes.get(wid, {}).items()
                    if sid not in busy
                    and view.shards.get(wid, {}).get(sid, 0)
                    >= self.min_migrate_items
                ]
                if movable and used[dst] < self.high_watermark * cap:
                    sbytes, sid = max(movable)
                    actions.append(MigrateAction(wid, dst, sid))
                    busy.add(sid)
                    budget -= 1
                    used[wid] -= sbytes
                    used[dst] += sbytes
        for wid, warm in view.warm.items():
            u = used.get(wid, 0)
            for sid in sorted(warm):
                if sid in busy:
                    continue
                _items, wbytes = warm[sid]
                if u + wbytes <= self.low_watermark * cap:
                    actions.append(RehydrateAction(wid, sid))
                    busy.add(sid)
                    u += wbytes
            used[wid] = u
        return actions
