"""Shard-op lifecycle: machine unit tests and chaos invariants.

The :class:`~repro.cluster.lifecycle.ShardOpMachine` owns every
in-flight split/migrate/restore -- busy tracking, per-kind budgets,
give-up timers, kind-matched release, spans.  The first half drives the
machine directly (no cluster); the second half asserts its invariants
end to end under chaos: no shard stays busy past its timeout, budgets
return to zero at quiescence, every ``manager.*`` span is finished or
reported open, and mapping-table chains stay acyclic and resolvable.
"""

import collections
import sys

import numpy as np
import pytest

from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    FaultPlan,
    Message,
    ShardOpMachine,
    VOLAPCluster,
)

from repro.cluster.lifecycle import (
    ABORTED,
    CUTOVER,
    DONE,
    INSTALLING,
    PLANNED,
    TIMED_OUT,
    TRANSFERRING,
)
from repro.cluster.cost import CostModel
from repro.cluster.simclock import SimClock
from repro.cluster.transport import LatencyModel
from repro.cluster.wire import ShardOpReply
from repro.cluster.worker import Worker
from repro.core import TreeConfig
from repro.core.base import ShardStore
from repro.hilbert.id_expansion import HilbertKeyMapper
from repro.obs import Observability
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch
from .test_chaos import CHAOS_RETRY
from .test_sim_fingerprint import _cluster as fingerprint_cluster
from .test_sim_fingerprint import _ops as fingerprint_ops

#: deterministic-replay and model-timer assertions; see conftest
pytestmark = pytest.mark.sim_only


class _Transport:
    """The only transport surface the machine touches is ``obs``."""

    def __init__(self, obs=None):
        self.obs = obs


def make_machine(obs=None, **knobs):
    clock = SimClock()
    m = ShardOpMachine(clock, _Transport(obs))
    for k, v in knobs.items():
        setattr(m, k, v)
    return clock, m


# -- machine unit tests ----------------------------------------------------


def test_happy_path_records_transitions():
    clock, m = make_machine()
    op = m.admit("split", 7, src=0)
    assert op is not None and m.busy(7) and m.balance_inflight == 1
    m.dispatched(7)
    assert op.state == TRANSFERRING
    assert m.complete(7, "split", ok=True)
    assert op.state == DONE and op.terminal
    assert m.quiescent() and m.balance_inflight == 0
    assert [s for _, s in op.history] == [PLANNED, TRANSFERRING, DONE]
    assert m.log == [op]


def test_busy_shard_rejects_second_op():
    _, m = make_machine()
    assert m.admit("split", 7) is not None
    assert m.admit("migrate", 7) is None
    assert m.admit("restore", 7) is None
    assert m.started == {
        "split": 1,
        "migrate": 0,
        "restore": 0,
        "replicate": 0,
        "promote": 0,
        "spill": 0,
        "rehydrate": 0,
    }


def admit_dispatched(m, kind, sid, **kw):
    """Admit + dispatch, the way the manager always pairs them."""
    op = m.admit(kind, sid, **kw)
    if op is not None:
        m.dispatched(sid)
    return op


def test_balance_budget_is_enforced():
    _, m = make_machine(max_inflight=2)
    assert admit_dispatched(m, "split", 1) is not None
    assert admit_dispatched(m, "migrate", 2) is not None
    assert admit_dispatched(m, "split", 3) is None  # pool exhausted
    assert m.complete(2, "migrate")
    assert admit_dispatched(m, "split", 3) is not None  # slot freed


def test_restore_budget_is_a_separate_pool():
    _, m = make_machine(max_inflight=1, max_inflight_restores=2)
    assert admit_dispatched(m, "split", 1) is not None  # balance pool full
    assert admit_dispatched(m, "restore", 2) is not None
    assert admit_dispatched(m, "restore", 3) is not None
    assert admit_dispatched(m, "restore", 4) is None  # restore pool full
    assert admit_dispatched(m, "migrate", 5) is None  # balance still full
    assert m.balance_inflight == 1 and m.restore_inflight == 2
    assert m.complete(3, "restore")
    assert admit_dispatched(m, "restore", 4) is not None


def test_stale_done_of_wrong_kind_is_ignored():
    """Regression: a stale/duplicated ``split_done`` for a shard that is
    now busy with a *restore* must release nothing (the old ``_release``
    ignored its ``expected_kind`` and popped the restore's entry)."""
    _, m = make_machine()
    op = admit_dispatched(m, "restore", 7)
    assert m.complete(7, "split") is False
    assert m.complete(7, "migrate") is False
    assert m.active(7) is op and op.state == TRANSFERRING
    assert m.restore_inflight == 1 and m.balance_inflight == 0
    assert m.complete(7, "restore") is True
    assert m.restore_inflight == 0


def test_timeout_fires_and_late_ack_is_ignored():
    clock, m = make_machine(op_timeout=2.0)
    fired = []
    m.on_timeout = fired.append
    op = m.admit("migrate", 7, src=1, dst=2)
    m.dispatched(7)
    clock.run_until(1.9)
    assert m.busy(7) and not fired
    clock.run_until(2.1)
    assert not m.busy(7)
    assert op.state == TIMED_OUT and m.timed_out == 1
    assert m.balance_inflight == 0
    assert fired == [op]
    # the straggler ack that eventually arrives releases nothing
    assert m.complete(7, "migrate") is False
    assert m.timed_out == 1 and m.balance_inflight == 0


def test_completion_disarms_timeout():
    clock, m = make_machine(op_timeout=2.0)
    m.admit("split", 7)
    m.dispatched(7)
    assert m.complete(7, "split")
    clock.run_until(5.0)
    assert m.timed_out == 0
    # the shard can go busy again without the old timer interfering
    op2 = m.admit("split", 7)
    clock.run_until(6.0)
    assert m.active(7) is op2


def test_failure_ack_records_aborted():
    _, m = make_machine()
    op = m.admit("split", 7)
    m.dispatched(7)
    assert m.complete(7, "split", ok=False)
    assert op.state == ABORTED


def test_worker_phases_advance_in_order():
    _, m = make_machine()
    op = m.admit("migrate", 7, src=0, dst=1)
    m.dispatched(7)
    m.advance(7, INSTALLING)
    m.advance(7, INSTALLING)  # repeat is a no-op, not an error
    m.advance(7, CUTOVER)
    assert m.complete(7, "migrate")
    assert [s for _, s in op.history] == [
        PLANNED,
        TRANSFERRING,
        INSTALLING,
        CUTOVER,
        DONE,
    ]


def test_illegal_transition_raises():
    _, m = make_machine()
    op = m.admit("split", 7)
    with pytest.raises(ValueError):
        m._transition(op, INSTALLING)  # PLANNED cannot skip TRANSFERRING


def test_spans_open_and_close_with_ops():
    clock = SimClock()
    obs = Observability(clock, profile_trees=False)
    m = ShardOpMachine(clock, _Transport(obs))
    m.op_timeout = 1.0
    m.admit("split", 1)
    m.dispatched(1)
    m.admit("restore", 2)
    m.dispatched(2)
    m.complete(1, "split", ok=True)
    clock.run_until(2.0)  # restore times out
    spans = {s.name: s for s in obs.tracer.spans}
    assert spans["manager.split"].closed and spans["manager.split"].tags["ok"]
    timed = spans["manager.restore"]
    assert timed.closed and timed.tags["timeout"] and not timed.tags["ok"]
    assert obs.tracer.open_spans() == []


def test_transition_counters_land_in_registry():
    clock = SimClock()
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    m = ShardOpMachine(clock, _Transport(), registry=reg)
    m.admit("split", 1)
    m.dispatched(1)
    m.complete(1, "split")
    fam = reg.snapshot()["counters"]["volap_lifecycle_transitions_total"]
    rows = {
        (s["labels"]["kind"], s["labels"]["state"]): s["value"]
        for s in fam["series"]
    }
    assert rows[("split", PLANNED)] == 1
    assert rows[("split", TRANSFERRING)] == 1
    assert rows[("split", DONE)] == 1


# -- manager-level regression (satellite: kind-matched release) ------------


def failover_cluster(schema, seed=3, shards_per_worker=2, **balancer_kw):
    kw = dict(max_shard_items=100_000, scan_period=0.1, op_timeout=2.0)
    kw.update(balancer_kw)
    cfg = ClusterConfig(
        num_workers=3,
        num_servers=1,
        tree_config=TreeConfig(leaf_capacity=32, fanout=8),
        balancer=BalancerPolicy(**kw),
        retry=CHAOS_RETRY,
        heartbeat_period=0.1,
        heartbeat_miss_k=3,
        checkpoint_period=0.3,
        seed=seed,
    )
    cluster = VOLAPCluster(schema, cfg)
    cluster.bootstrap(
        random_batch(schema, 1500, seed=seed),
        shards_per_worker=shards_per_worker,
    )
    return cluster


def wait_for_restore(cluster, max_steps=200_000):
    for _ in range(max_steps):
        active = [
            op
            for op in cluster.manager.lifecycle.ops.values()
            if op.kind == "restore"
        ]
        if active:
            return active[0]
        if not cluster.clock.step():
            break
    raise AssertionError("no restore op became active")


@pytest.mark.parametrize("stale_kind", ["split_done", "migrate_done"])
def test_stale_done_cannot_corrupt_inflight_restore(stale_kind):
    schema = make_schema()
    cluster = failover_cluster(schema)
    cluster.run_for(1.0)
    cluster.crash_worker(0)
    op = wait_for_restore(cluster)
    sid = op.shard_id
    splits, migrations = cluster.stats.splits, cluster.stats.migrations
    cluster.manager.receive(Message(stale_kind, ShardOpReply(sid, 0), sender=None))
    lc = cluster.manager.lifecycle
    assert lc.active(sid) is op, "stale ack released an in-flight restore"
    assert (cluster.stats.splits, cluster.stats.migrations) == (
        splits,
        migrations,
    ), "stale ack was recorded as a completed balancing op"
    assert lc.balance_inflight == 0, "stale ack corrupted the budget"
    cluster.run_for(15.0)
    assert cluster.manager._pending_restores == set()
    assert lc.quiescent()
    assert lc.balance_inflight == 0 and lc.restore_inflight == 0


def test_restore_budget_bounds_mass_failover():
    """Satellite: restores draw from ``max_inflight_restores``, so a
    mass failover cannot stampede one survivor with deserialize work."""
    schema = make_schema()
    cluster = failover_cluster(
        schema, shards_per_worker=6, max_inflight_restores=2
    )
    cluster.run_for(1.0)
    lc = cluster.manager.lifecycle
    cluster.crash_worker(0)  # owns 6 shards; the restore budget is 2
    peak = 0
    horizon = cluster.clock.now + 30.0
    # sample after every event so no transient in-flight state is missed
    while cluster.clock.now < horizon:
        if not cluster.clock.step():
            break
        peak = max(peak, lc.restore_inflight)
        if peak and not cluster.manager._pending_restores and lc.quiescent():
            break
    assert peak == 2, f"restore pool peaked at {peak}, budget is 2"
    assert cluster.manager._pending_restores == set()
    assert cluster.manager.restores_done == 6
    assert lc.quiescent() and lc.restore_inflight == 0


# -- chaos invariant suite -------------------------------------------------


def resolve_chain(worker, sid, limit=128):
    """Resolve a mapping chain by hand with a hard step bound, so a
    cyclic or unbounded chain fails the test instead of hanging it."""
    out, stack, steps = [], [sid], 0
    while stack:
        steps += 1
        assert steps <= limit, f"mapping chain from {sid} too deep or cyclic"
        s = stack.pop()
        entry = worker.mapping.get(s)
        if entry is None:
            out.append(s)
        else:
            _, low, high = entry
            stack.append(high)
            stack.append(low)
    return out


def assert_lifecycle_invariants(cluster):
    lc = cluster.manager.lifecycle
    now = cluster.clock.now
    # 1. no shard stays busy past its give-up timer
    for op in lc.ops.values():
        assert now - op.started_at <= lc.op_timeout + 1e-9, (
            f"{op.kind} of shard {op.shard_id} busy past its timeout"
        )
    # 2. the budget pools always equal the live op counts
    kinds = [op.kind for op in lc.ops.values()]
    assert lc.balance_inflight == sum(k in ("split", "migrate") for k in kinds)
    assert lc.restore_inflight == sum(k in ("restore", "promote") for k in kinds)
    assert lc.replica_inflight == sum(k == "replicate" for k in kinds)
    assert lc.residency_inflight == sum(
        k in ("spill", "rehydrate") for k in kinds
    )
    assert 0 <= lc.balance_inflight <= lc.max_inflight
    assert 0 <= lc.restore_inflight <= lc.max_inflight_restores
    assert 0 <= lc.replica_inflight <= lc.max_inflight_replications
    assert 0 <= lc.residency_inflight <= lc.max_inflight_residency
    # 3. mapping chains stay acyclic and resolve to known shard ids
    known = set()
    for w in cluster.workers.values():
        known |= set(w.shards) | set(w.queues) | set(w.mapping)
    known |= {int(name) for name in cluster.zk.ls("/shards")}
    for w in cluster.workers.values():
        for sid in list(w.mapping):
            for leaf in resolve_chain(w, sid):
                assert leaf in known, (
                    f"mapping chain from {sid} ends at unknown shard {leaf}"
                )


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_lifecycle_invariants_under_chaos(seed):
    """Fuzz: splits + migrations + crash/restart under drop, duplicate
    and delay faults on the balancing protocol, with invariants checked
    throughout and at quiescence."""
    schema = make_schema()
    cfg = ClusterConfig(
        num_workers=3,
        num_servers=1,
        tree_config=TreeConfig(leaf_capacity=32, fanout=8),
        balancer=BalancerPolicy(
            max_shard_items=300,
            imbalance_ratio=1.2,
            min_migrate_items=50,
            scan_period=0.1,
            op_timeout=2.0,
        ),
        retry=CHAOS_RETRY,
        heartbeat_period=0.1,
        heartbeat_miss_k=3,
        checkpoint_period=0.3,
        seed=seed,
    )
    cluster = VOLAPCluster(schema, cfg)
    cluster.observe(profile_trees=False)
    cluster.bootstrap(random_batch(schema, 1200, seed=seed), shards_per_worker=2)
    cluster.inject_faults(
        FaultPlan()
        .drop(
            0.08,
            kinds={"split_done", "migrate_done", "migrate_in", "restore_shard"},
        )
        .duplicate(
            0.3, kinds={"split_done", "migrate_done", "restore_done"}
        )
        .delay(0.15, extra=0.5),
        seed=seed * 13 + 1,
    )
    sess = cluster.session(0, concurrency=4)
    extra = random_batch(schema, 150, seed=seed + 100)
    sess.run_stream(
        [
            Operation("insert", coords=extra.coords[i], measure=1.0)
            for i in range(len(extra))
        ]
    )
    for i in range(40):
        cluster.run_for(0.25)
        if i == 8:
            cluster.crash_worker(seed % 3)
        if i == 24:
            cluster.restart_worker(seed % 3)
        assert_lifecycle_invariants(cluster)
    cluster.clear_faults()
    cluster.run_until_clients_done(max_virtual=120.0)
    # drain to quiescence: no op outlives faults by more than a timeout
    for _ in range(200):
        cluster.run_for(0.25)
        assert_lifecycle_invariants(cluster)
        if (
            cluster.manager.lifecycle.quiescent()
            and not cluster.manager._pending_restores
        ):
            break
    lc = cluster.manager.lifecycle
    assert lc.quiescent(), "in-flight ops never drained"
    assert lc.balance_inflight == 0 and lc.restore_inflight == 0
    # every op ever admitted reached a terminal state
    assert all(op.terminal for op in lc.log)
    done = sum(op.state == DONE for op in lc.log)
    assert done > 0, "chaos run never completed a single op"
    # every manager.* span is finished or reported open
    obs = cluster.obs
    open_ids = {id(s) for s in obs.tracer.open_spans()}
    for span in obs.tracer.spans:
        if span.name.startswith("manager."):
            assert span.closed or id(span) in open_ids
    assert not any(
        s.name.startswith("manager.") for s in obs.tracer.open_spans()
    ), "a manager span leaked past quiescence"


# -- one write path ----------------------------------------------------------


def test_every_applied_row_goes_through_one_batched_apply(monkeypatch):
    """One seeded run with a bulk load, splits, a migration whose queue
    is handed off, an aborted migration and a primary hand-off: every
    row reaches a store through ``Worker.apply`` -- called from all five
    sites -- and no store ever sees a per-row ``insert``."""
    inserts = []
    stores = [ShardStore]
    while stores:
        cls = stores.pop()
        stores += cls.__subclasses__()
        if "insert" in vars(cls):
            monkeypatch.setattr(
                cls,
                "insert",
                lambda self, *a, _f=cls.insert: inserts.append(a) or _f(self, *a),
            )
    callers = collections.Counter()
    apply = Worker.apply

    def spy(self, shard_ids, *args):
        if len(shard_ids):
            site = sys._getframe(1).f_code.co_name
            if site == "_fold":
                site = sys._getframe(2).f_code.co_name
            callers[site] += 1
        return apply(self, shard_ids, *args)

    monkeypatch.setattr(Worker, "apply", spy)
    schema = make_schema()
    cluster = fingerprint_cluster(
        schema,
        1500,
        num_workers=3,
        latency=LatencyModel(base=0.01, bandwidth=2e5, jitter=1e-3),
        balancer=BalancerPolicy(
            max_shard_items=400, imbalance_ratio=100.0, scan_period=0.1,
            op_timeout=1.0,
        ),
        replication_factor=1,
        batch_size=8,
        # splits and transfers slow enough for inserts to queue behind
        cost=CostModel(split_item=1e-3, serialize_item=1e-3),
    )
    cluster.run_for(2.0)  # replicas seed
    cluster.bulk_load(random_batch(schema, 300, seed=29), chunk=64)
    sess = cluster.session(0, concurrency=16)
    sess.run_stream(fingerprint_ops(schema, 900, seed=19, query_every=25))
    cluster.run_for(0.2)
    cluster.manager._start_migration(1, 2, sorted(cluster.workers[1].shards)[0])
    cluster.run_for(0.3)
    now = cluster.clock.now
    cluster.inject_faults(
        FaultPlan()
        .drop(1.0, kinds={"migrate_in"}, end=now + 2.0)
        .partition("worker-0", "zookeeper", end=now + 0.8)
        .partition("worker-0", "worker-*", end=now + 0.8)
        .partition("worker-0", "manager", end=now + 0.8),
        seed=7,
    )
    cluster.manager._start_migration(2, 1, sorted(cluster.workers[2].shards)[0])
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(5.0)
    assert inserts == []
    assert set(callers) == {
        "_on_insert_batch", "_on_bulk_insert", "cancel",
        "_on_queue_transfer", "split_cutover", "_on_primary_handoff",
    }
    assert cluster.stats.failures == 0
    assert cluster.total_items() == 1500 + 300 + 900


def test_every_apply_computes_its_keys_once(monkeypatch):
    """One Hilbert key kernel call per ``Worker.apply`` that places rows
    -- online inserts, queue folds and split drains alike -- and the key
    words the leaves keep are the kernel's words for their rows."""
    kernel = HilbertKeyMapper.key_words
    inside: list[int] = []  # kernel calls of each apply in progress

    def counted(self, coords):
        if inside:
            inside[-1] += 1
        return kernel(self, coords)

    monkeypatch.setattr(HilbertKeyMapper, "key_words", counted)
    per_apply = collections.defaultdict(list)
    apply = Worker.apply

    def spy(self, shard_ids, *args):
        site = sys._getframe(1).f_code.co_name
        if site == "_fold":
            site = sys._getframe(2).f_code.co_name
        inside.append(0)
        try:
            done = apply(self, shard_ids, *args)
        finally:
            calls = inside.pop()
        if len(shard_ids) > len(done.unplaced):
            per_apply[site].append(calls)
        return done

    monkeypatch.setattr(Worker, "apply", spy)
    schema = make_schema()
    cluster = fingerprint_cluster(
        schema,
        1500,
        num_workers=3,
        latency=LatencyModel(base=0.01, bandwidth=2e5, jitter=1e-3),
        balancer=BalancerPolicy(
            max_shard_items=400, imbalance_ratio=100.0, scan_period=0.1,
            op_timeout=1.0,
        ),
        batch_size=8,
        # splits and transfers slow enough for inserts to queue behind
        cost=CostModel(split_item=1e-3, serialize_item=1e-3),
    )
    sess = cluster.session(0, concurrency=16)
    sess.run_stream(fingerprint_ops(schema, 900, seed=19, query_every=25))
    cluster.run_for(0.2)
    now = cluster.clock.now
    cluster.inject_faults(
        FaultPlan().drop(1.0, kinds={"migrate_in"}, end=now + 2.0), seed=7
    )
    cluster.manager._start_migration(2, 1, sorted(cluster.workers[2].shards)[0])
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(5.0)
    assert {"_on_insert_batch", "cancel", "split_cutover"} <= set(per_apply)
    assert {n for calls in per_apply.values() for n in calls} == {1}
    for w in cluster.workers.values():
        for tree in w.shards.values():
            for leaf in tree._iter_leaves(tree.root):
                assert np.array_equal(
                    tree.arena.hwords(leaf.slot),
                    kernel(tree.mapper, tree.arena.coords(leaf.slot)),
                )
