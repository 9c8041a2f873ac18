"""Chaos suite: deterministic fault injection against the full cluster.

Exercises the failure-handling layer end to end: message drop /
duplication with exactly-once acknowledged inserts, worker crash ->
heartbeat expiry -> checkpoint restore, degraded (deadline-bounded)
queries with achieved-coverage reporting, partitions that heal, and the
zero-overhead guarantee when no fault plan is installed.
"""

import numpy as np
import pytest

from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    FaultPlan,
    RetryPolicy,
    VOLAPCluster,
)
from repro.cluster.faults import FaultInjector
from repro.cluster.simclock import SimClock
from repro.cluster.transport import LatencyModel, Message
from repro.cluster.wire import ShardNotice
from repro.core import TreeConfig
from repro.olap.query import full_query
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch

#: deterministic-replay and model-timer assertions; see conftest
pytestmark = pytest.mark.sim_only


INSERT_KINDS = {
    "client_insert_batch", "insert_batch", "insert_batch_ack", "insert_done_batch",
}

#: tight timers so chaos runs converge in little virtual time
CHAOS_RETRY = RetryPolicy(
    timeout=0.4,
    max_attempts=12,
    insert_timeout=0.1,
    max_insert_retries=8,
    query_deadline=0.3,
    backoff_base=0.02,
    backoff_factor=1.5,
    backoff_jitter=0.005,
)


def chaos_cluster(
    schema,
    n_items=2000,
    workers=3,
    servers=1,
    seed=3,
    heartbeat_period=0.1,
    heartbeat_miss_k=3,
    checkpoint_period=0.4,
    retry=CHAOS_RETRY,
    max_shard_items=100_000,  # keep the balancer quiet unless wanted
    replication_factor=0,
    max_staleness=None,
):
    cfg = ClusterConfig(
        num_workers=workers,
        num_servers=servers,
        tree_config=TreeConfig(leaf_capacity=32, fanout=8),
        balancer=BalancerPolicy(
            max_shard_items=max_shard_items, scan_period=0.1, op_timeout=2.0
        ),
        retry=retry,
        heartbeat_period=heartbeat_period,
        heartbeat_miss_k=heartbeat_miss_k,
        checkpoint_period=checkpoint_period,
        replication_factor=replication_factor,
        max_staleness=max_staleness,
        seed=seed,
    )
    cluster = VOLAPCluster(schema, cfg)
    batch = random_batch(schema, n_items, seed=seed)
    cluster.bootstrap(batch, shards_per_worker=2)
    return cluster, batch


def insert_ops(batch):
    return [
        Operation(
            "insert", coords=batch.coords[i], measure=float(batch.measures[i])
        )
        for i in range(len(batch))
    ]


def run_one_query(cluster, schema, server_index=0):
    sess = cluster.session(server_index, concurrency=1)
    out = []
    sess.on_complete = out.append
    sess.run_stream([Operation("query", query=full_query(schema))])
    cluster.run_until_clients_done(max_virtual=120.0)
    return out[-1]


@pytest.fixture
def schema():
    return make_schema()


class TestDropAndDuplicate:
    def test_acked_inserts_exactly_once(self, schema):
        """10% drop + 10% duplication on the whole insert path: every
        acknowledged insert lands exactly once in the global count."""
        cluster, batch = chaos_cluster(schema, n_items=1500, seed=3)
        extra = random_batch(schema, 250, seed=17)
        inj = cluster.inject_faults(
            FaultPlan()
            .drop(0.10, kinds=INSERT_KINDS)
            .duplicate(0.10, kinds=INSERT_KINDS),
            seed=7,
        )
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=300.0)

        acked = [r for r in cluster.stats.select(kind="insert") if r.ok]
        assert len(acked) + cluster.stats.failures == len(extra)
        # faults actually fired, and retransmits were deduplicated
        assert inj.dropped > 0 and inj.duplicated > 0
        dedup = sum(w.dedup_hits for w in cluster.workers.values())
        assert dedup > 0
        # exactly-once: the store grew by precisely the acked inserts
        assert cluster.total_items() == len(batch) + len(acked)
        # retransmits happened (some ops needed more than one attempt)
        assert max(r.attempts for r in acked) >= 1
        assert cluster.stats.failures == 0  # retry budget suffices here

    def test_same_seed_same_outcome(self, schema):
        """The whole chaos run is deterministic: same seeds, same counts."""

        def run():
            cluster, batch = chaos_cluster(schema, n_items=800, seed=5)
            extra = random_batch(schema, 120, seed=23)
            inj = cluster.inject_faults(
                FaultPlan().drop(0.15, kinds=INSERT_KINDS).duplicate(0.1),
                seed=11,
            )
            sess = cluster.session(0, concurrency=3)
            sess.run_stream(insert_ops(extra))
            cluster.run_until_clients_done(max_virtual=300.0)
            return (
                cluster.total_items(),
                cluster.transport.messages_sent,
                inj.dropped,
                inj.duplicated,
                cluster.stats.failures,
                round(cluster.clock.now, 9),
            )

        assert run() == run()


class TestCrashFailover:
    def test_crash_restore_and_degraded_window(self, schema):
        """After a worker crash the manager restores its shards from
        checkpoints; queries degrade (achieved < 1) only while the
        worker's shards are missing, then recover to full coverage."""
        cluster, batch = chaos_cluster(schema, n_items=2000, seed=3)
        cluster.run_for(1.0)  # let checkpoints cover every shard
        assert len(cluster.checkpoints) == cluster.shard_count()

        lost = cluster.workers[0].total_items()
        assert lost > 0
        cluster.crash_worker(0)
        t_crash = cluster.clock.now

        # a query inside the recovery window: the dead worker misses the
        # per-worker deadline, so the reply is partial but prompt
        rec = run_one_query(cluster, schema)
        assert rec.ok
        assert rec.achieved < 1.0
        assert rec.latency <= CHAOS_RETRY.query_deadline + 0.1
        assert rec.result_count == len(batch) - lost

        # heartbeat TTL (0.3s) expires, the manager scan (0.1s) fires,
        # blobs transfer and deserialize: give it a generous window
        cluster.run_for(2.0)
        assert len(cluster.stats.failovers) == 1
        _, dead_wid, n_lost = cluster.stats.failovers[0]
        assert dead_wid == 0 and n_lost > 0
        assert cluster.worker_sizes()[0] == 0  # crashed stays empty
        assert cluster.total_items() == len(batch)  # nothing lost

        # post-recovery: full coverage again, no degradation
        rec2 = run_one_query(cluster, schema)
        assert rec2.achieved == 1.0
        assert rec2.result_count == len(batch)
        # degraded replies happened only inside the recovery window
        assert all(
            t_crash <= r.submit_time for r in cluster.stats.degraded()
        )
        assert not cluster.stats.degraded(since=t_crash + 2.0)

    def test_inserts_survive_crash_via_retry(self, schema):
        """Inserts aimed at a crashed worker retry until the restored
        mapping converges; acknowledged ones are never lost."""
        cluster, batch = chaos_cluster(schema, n_items=1200, seed=3)
        cluster.run_for(1.0)
        cluster.crash_worker(1)
        extra = random_batch(schema, 150, seed=31)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=300.0)
        acked = [r for r in cluster.stats.select(kind="insert") if r.ok]
        # exactly-once accounting against whatever was acknowledged,
        # minus pre-crash items that the checkpoint had not yet covered
        checkpoint_gap = 0  # ran quiesced: checkpoints were current
        assert cluster.total_items() == len(batch) + len(acked) - checkpoint_gap
        assert len(acked) == len(extra)  # retries rode out the crash

    def test_total_loss_heals_after_restart(self, schema):
        """Both workers die (the first restore targets a corpse, the
        second has no survivors at all); restarting one worker lets the
        manager re-issue every pending restore until the full database
        is back, and mid-recovery queries report honest coverage."""
        cluster, batch = chaos_cluster(schema, n_items=800, seed=3, workers=2)
        cluster.run_for(1.0)
        cluster.crash_worker(0)
        cluster.crash_worker(1)
        cluster.run_for(2.0)
        assert cluster.total_items() == 0
        rec = run_one_query(cluster, schema)
        assert rec.ok and rec.achieved == 0.0 and rec.result_count == 0
        cluster.restart_worker(0)
        cluster.run_for(8.0)  # scan retries + op_timeout (2s) re-issues
        assert cluster.manager._pending_restores == set()
        assert cluster.total_items() == len(batch)
        rec2 = run_one_query(cluster, schema)
        assert rec2.achieved == 1.0 and rec2.result_count == len(batch)

    def test_restarted_worker_rejoins(self, schema):
        cluster, _ = chaos_cluster(schema, n_items=600, seed=3)
        cluster.run_for(1.0)
        cluster.crash_worker(2)
        cluster.run_for(2.0)  # declared dead, shards restored elsewhere
        assert 2 in cluster.manager.dead_workers
        cluster.restart_worker(2)
        cluster.run_for(1.0)  # fresh heartbeats clear the death record
        assert 2 not in cluster.manager.dead_workers

    @pytest.mark.parametrize("k", [0, 1])
    def test_restart_inside_heartbeat_ttl_heals(self, schema, k):
        """A worker that crashes and restarts before its ephemeral beat
        expires never lapses -- yet its shards are gone.  The beat's
        incarnation tells the manager, which re-homes them: from
        checkpoints with no replicas (K=0), by promotion without
        touching a checkpoint blob with K=1."""
        cluster, batch = chaos_cluster(
            schema, n_items=1500, seed=3, replication_factor=k
        )
        cluster.run_for(2.0)  # checkpoints written, replicas seeded
        lost = len(cluster.workers[0].shards)
        assert lost
        cluster.crash_worker(0)
        cluster.run_for(0.1)  # well inside the 0.3 s ttl
        cluster.restart_worker(0)
        # healed before the restarted worker's probation ends (after it,
        # the balancer starts migrating shards back onto the empty worker)
        cluster.run_for(0.15)
        assert cluster.total_items() == len(batch)
        assert_single_primary(cluster)
        m = cluster.manager
        assert m.failovers_handled == 1 and m._pending_restores == set()
        assert 0 in m.quarantine and m.lifecycle.quiescent()
        deserialized = sum(
            w.transfer.checkpoint_deserializations for w in cluster.workers.values()
        )
        if k:
            assert (m.promotions_done, m.restores_done, deserialized) == (lost, 0, 0)
        else:
            assert (m.promotions_done, m.restores_done, deserialized) == (0, lost, lost)
        rec = run_one_query(cluster, schema)
        assert rec.achieved == 1.0 and rec.result_count == len(batch)


class TestPartition:
    def test_partition_heals(self, schema):
        """A 0.3s server<->worker partition: inserts stall, retry with
        backoff, and all complete exactly once after healing."""
        cluster, batch = chaos_cluster(schema, n_items=900, seed=3)
        start = cluster.clock.now
        cluster.inject_faults(
            FaultPlan().partition(
                "server-0", "worker-*", start=start, end=start + 0.3
            ),
            seed=13,
        )
        extra = random_batch(schema, 80, seed=41)
        sess = cluster.session(0, concurrency=2)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=300.0)
        assert cluster.stats.failures == 0
        assert cluster.total_items() == len(batch) + len(extra)
        # the partition really blocked traffic: retransmits happened
        assert sess.retries + cluster.servers[0].insert_timeouts > 0

    def test_healed_partition_cannot_yield_two_primaries(self, schema):
        """A partitioned-but-alive primary is declared dead and its
        replicas are promoted; when the partition heals the old primary
        notices the lapse, sees the new epochs, demotes itself, and
        rejoins through quarantine -- never serving as a second primary."""
        cluster, batch = chaos_cluster(
            schema, n_items=1000, seed=3, replication_factor=1
        )
        cluster.run_for(2.0)  # replicas seeded
        drain_replication(cluster)
        held = set(cluster.workers[0].shards)
        assert held
        start = cluster.clock.now
        cluster.inject_faults(
            FaultPlan().isolate("worker-0", start=start, end=start + 1.2),
            seed=43,
        )
        cluster.run_for(1.2)
        # behind the partition: heartbeats lapsed, death declared, and
        # every shard worker 0 owned now runs on a promoted replica
        assert 0 in cluster.manager.dead_workers
        assert cluster.manager.promotions_done >= len(held)
        # ...but worker 0 itself is alive and still holds its copies
        assert not cluster.workers[0].crashed
        # partition heals: the next beat detects the lapse, reconciles
        # against the flipped znodes, and steps down everywhere
        cluster.run_for(2.0)
        assert cluster.workers[0].replication.demotions == len(held)
        assert not (held & set(cluster.workers[0].shards))
        assert_single_primary(cluster)
        # quarantine probation elapsed on steady beats: full member again
        assert 0 not in cluster.manager.dead_workers
        assert cluster.manager.rejoins >= 1
        assert cluster.total_items() == len(batch)
        rec = run_one_query(cluster, schema)
        assert rec.achieved == 1.0 and rec.result_count == len(batch)


#: the shard-migration protocol surface, for fault plans.  The one-shot
#: ``queue_transfer`` hand-off is deliberately excluded: it is sent
#: exactly once inside the cut-over (the fault-tolerance boundary is
#: the manager's retry of the whole migration op, not that message).
MIGRATE_KINDS = {
    "migrate_shard",
    "migrate_in",
    "migrate_ready",
    "migrate_done",
    "migrate_failed",
    "migrate_abort",
    "drop_shard",
}


class TestMigrateWhileQuerying:
    def test_columnar_transfer_survives_drop_duplicate(self, schema, monkeypatch):
        """Scale-up migrations race live inserts and queries while the
        migration control surface suffers 10% drop + 10% duplication.

        Every shard blob and handed-off insertion queue crosses the
        wire as a column frame (spied via the worker's codec entry
        points); despite the faults, migrations complete, no
        acknowledged insert is lost or doubled, and post-chaos queries
        see the full database from exactly one primary per shard."""
        from repro.cluster import transfer as transfer_mod
        from repro.olap.colframe import is_column_frame

        sent_frames = []
        decoded_frames = []
        real_to = transfer_mod.batch_to_wire
        real_from = transfer_mod.batch_from_wire

        def spy_to(batch, **kw):
            blob = real_to(batch, **kw)
            assert is_column_frame(blob)
            sent_frames.append(len(blob))
            return blob

        def spy_from(blob):
            assert is_column_frame(blob)
            decoded_frames.append(len(blob))
            return real_from(blob)

        monkeypatch.setattr(transfer_mod, "batch_to_wire", spy_to)
        monkeypatch.setattr(transfer_mod, "batch_from_wire", spy_from)

        cfg = ClusterConfig(
            num_workers=2,
            num_servers=1,
            tree_config=TreeConfig(leaf_capacity=32, fanout=8),
            # a slow WAN-ish link: shard blobs take real virtual time to
            # cross, so migration freeze windows are wide enough for the
            # insert stream to pile rows into the hand-off queues
            latency=LatencyModel(base=0.01, bandwidth=2e5, jitter=1e-3),
            balancer=BalancerPolicy(
                max_shard_items=100_000,
                imbalance_ratio=1.2,
                min_migrate_items=50,
                scan_period=0.2,
                op_timeout=2.0,
            ),
            retry=CHAOS_RETRY,
            heartbeat_period=0.1,
            heartbeat_miss_k=3,
            checkpoint_period=0.4,
            seed=3,
        )
        cluster = VOLAPCluster(schema, cfg)
        batch = random_batch(schema, 2000, seed=3)
        cluster.bootstrap(batch, shards_per_worker=2)
        inj = cluster.inject_faults(
            FaultPlan()
            .drop(0.20, kinds=MIGRATE_KINDS)
            .duplicate(0.20, kinds=MIGRATE_KINDS),
            seed=7,
        )
        cluster.add_workers(2)  # imbalance: the balancer starts migrating
        extra = random_batch(schema, 600, seed=17)
        sess = cluster.session(0, concurrency=4)
        # drip the inserts so the stream spans the whole rebalancing
        # phase -- inserts that land on a frozen (mid-migration) shard
        # pile into its hand-off queue, which must then cross the wire
        ops = insert_ops(extra)
        step = 25
        for lo in range(0, len(ops), step):
            sess.run_stream(ops[lo : lo + step])
            cluster.run_for(0.25)
        cluster.run_until_clients_done(max_virtual=300.0)
        acked = [r for r in cluster.stats.select(kind="insert") if r.ok]
        assert len(acked) == len(extra)
        cluster.run_for(10.0)  # let aborted/timed-out ops retry and settle
        cluster.clear_faults()
        cluster.run_for(5.0)

        assert inj.dropped > 0 and inj.duplicated > 0
        assert cluster.stats.migrations > 0, "no migration ever completed"
        # the hand-off path ran, and everything sent was frame-decoded
        assert sent_frames, "no insertion queue was ever handed off"
        assert decoded_frames == sent_frames
        # exactly-once through all of it
        assert cluster.manager.lifecycle.quiescent()
        assert_single_primary(cluster)
        assert cluster.total_items() == len(batch) + len(acked)
        rec = run_one_query(cluster, schema)
        assert rec.achieved == 1.0
        assert rec.result_count == len(batch) + len(acked)

    def test_checkpoint_restore_promote_is_pickle_free(self, schema, monkeypatch):
        """The whole recovery hot path -- periodic checkpoints, crash
        restore, replica seeding and promotion -- moves shards only as
        column frames.  Poisoning :mod:`pickle` proves it: any stray
        ``dumps``/``loads`` anywhere in the cycle fails the run."""
        import pickle

        cluster, batch = chaos_cluster(
            schema, n_items=1000, seed=3, replication_factor=1
        )

        def poisoned(*a, **kw):  # pragma: no cover - must never run
            raise AssertionError("pickle used on the shard hot path")

        for name in ("dumps", "loads", "dump", "load"):
            monkeypatch.setattr(pickle, name, poisoned)
        cluster.run_for(2.0)  # checkpoints written, replicas seeded
        drain_replication(cluster)
        assert cluster.manager.checkpoints.puts > 0
        cluster.crash_worker(1)
        cluster.run_for(4.0)  # death declared; restore + promote cycle
        assert cluster.manager.promotions_done > 0
        assert_single_primary(cluster)
        assert cluster.total_items() == len(batch)
        rec = run_one_query(cluster, schema)
        assert rec.achieved == 1.0 and rec.result_count == len(batch)


#: the whole replication / failover protocol surface, for fault plans
REPL_KINDS = {
    "replicate_shard",
    "replica_install",
    "replica_batch",
    "replica_ack",
    "replicate_done",
    "promote_shard",
    "promote_done",
    "primary_handoff",
    "handoff_ack",
}


def live_primaries(cluster, sid):
    """Live workers currently serving ``sid`` as a primary."""
    return [
        wid
        for wid, w in cluster.workers.items()
        if not w.crashed and sid in w.shards
    ]


def assert_single_primary(cluster):
    """Every published shard is primaried by exactly one live worker."""
    for name in cluster.zk.ls("/shards"):
        sid = int(name)
        owners = live_primaries(cluster, sid)
        assert len(owners) == 1, f"shard {sid} primaried by {owners}"
        assert cluster.zk.get(f"/shards/{sid}")[2] == owners[0]


def drain_replication(cluster, max_virtual=10.0):
    """Run until every primary's replication log is fully acked."""
    horizon = cluster.clock.now + max_virtual
    while cluster.clock.now < horizon:
        logs = [
            log.batches
            for w in cluster.workers.values()
            if not w.crashed
            for log in w.replication.streams.values()
        ]
        if logs and all(not batches for batches in logs):
            return
        cluster.run_for(0.1)
    raise AssertionError("replication stream never drained")


class TestReplication:
    def test_replicas_seed_and_stream_catches_up(self, schema):
        """Every settled shard gets K=1 async replicas seeded from the
        live insert stream; after quiescing, each replica's watermark
        frontier has caught the primary's head."""
        cluster, batch = chaos_cluster(
            schema, n_items=1200, seed=3, replication_factor=1
        )
        cluster.run_for(2.0)  # seed replicas
        assert {int(s) for s in cluster.zk.ls("/shards")} == set(
            cluster.manager.replica_sets
        )
        assert all(
            len(h) == 1 for h in cluster.manager.replica_sets.values()
        )
        extra = random_batch(schema, 200, seed=17)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=120.0)
        drain_replication(cluster)
        cluster.run_for(0.3)  # one more beat publishes final watermarks
        applied = sum(w.replication.rows_applied for w in cluster.workers.values())
        assert applied == len(extra)  # streamed exactly once, no re-seeds
        assert sum(w.replication.batches_sent for w in cluster.workers.values()) > 0
        for sid in cluster.manager.replica_sets:
            head = cluster.zk.get(f"/repl/heads/{sid}")
            (holder,) = cluster.manager.replica_sets[sid]
            wm = cluster.zk.get(f"/replicas/{sid}/{holder}")
            assert wm is not None and head is not None
            assert wm.epoch == head.epoch
            assert wm.frontier >= head.seq  # caught the head
        # replica copies hold exactly the primary's data
        for wid, w in cluster.workers.items():
            for sid, store in w.replication.replicas.items():
                owner = cluster.zk.get(f"/shards/{sid}")[2]
                assert len(store) == len(cluster.workers[owner].shards[sid])

    def test_aborted_migration_keeps_replicas_in_step(self, schema):
        """Inserts acknowledged while a shard is frozen for migration
        wait in its insertion queue, off the replication stream.  When
        the migration is aborted and the queue folds back into the
        primary, those rows must reach the replicas too: after a
        settle every replica holds exactly its primary's rows, so a
        bounded-staleness read never under-counts for good and a crash
        -> promotion cannot lose an acknowledged insert."""
        cluster, batch = chaos_cluster(
            schema, n_items=2000, seed=3, replication_factor=1
        )
        cluster.run_for(2.0)  # seed replicas
        w0 = cluster.workers[0]
        frozen = sorted(w0.shards)
        assert len(frozen) == 2
        for sid in frozen:
            assert w0.transfer.begin(sid) is not None
        extra = random_batch(schema, 600, seed=23)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=120.0)
        acked = [r for r in cluster.stats.select(kind="insert") if r.ok]
        assert len(acked) == len(extra)
        assert sum(len(w0.queues[sid]) for sid in frozen) > 50  # acked, queued
        for sid in frozen:
            cluster.transport.send(w0, Message("migrate_abort", ShardNotice(sid)))
        cluster.run_for(5.0)
        drain_replication(cluster)
        assert not w0.frozen and not w0.queues
        assert cluster.total_items() == len(batch) + len(extra)
        box = full_query(schema).box
        checked = 0
        for sid, holders in cluster.manager.replica_sets.items():
            owner = cluster.zk.get(f"/shards/{sid}")[2]
            primary = cluster.workers[owner].shards[sid]
            for holder in holders:
                replica = cluster.workers[holder].replication.replicas[sid]
                assert len(replica) == len(primary), f"shard {sid} forked"
                assert replica.query(box)[0].approx_equal(primary.query(box)[0])
                checked += 1
        assert checked == len(cluster.zk.ls("/shards"))

    def test_crash_promotes_replica_without_checkpoints(self, schema):
        """Primary death heals by promoting the freshest replica: a
        metadata flip with zero checkpoint deserializations, after which
        reads see the full database again."""
        cluster, batch = chaos_cluster(
            schema, n_items=1500, seed=3, replication_factor=1
        )
        cluster.run_for(2.0)
        extra = random_batch(schema, 150, seed=19)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=120.0)
        drain_replication(cluster)  # no acked row may ride only on w0
        lost = set(cluster.workers[0].shards)
        assert lost
        cluster.crash_worker(0)
        cluster.run_for(3.0)
        assert cluster.manager.promotions_done == len(lost)
        assert len(cluster.stats.promotions) == len(lost)
        assert (
            sum(w.transfer.checkpoint_deserializations for w in cluster.workers.values())
            == 0
        ), "promotion path touched a checkpoint blob"
        assert cluster.manager._pending_restores == set()
        assert_single_primary(cluster)
        assert cluster.total_items() == len(batch) + len(extra)
        rec = run_one_query(cluster, schema)
        assert rec.achieved == 1.0
        assert rec.result_count == len(batch) + len(extra)

    def test_no_replica_falls_back_to_restore(self, schema):
        """With replication off the heal path degrades gracefully to the
        checkpoint restore of the seed code path."""
        cluster, batch = chaos_cluster(
            schema, n_items=1000, seed=3, replication_factor=0
        )
        cluster.run_for(1.0)
        cluster.crash_worker(0)
        cluster.run_for(3.0)
        assert cluster.manager.promotions_done == 0
        assert (
            sum(w.transfer.checkpoint_deserializations for w in cluster.workers.values())
            > 0
        )
        assert cluster.manager._pending_restores == set()
        assert cluster.total_items() == len(batch)
        assert_single_primary(cluster)

    def test_bounded_staleness_reads_offload_to_replicas(self, schema):
        """Under sustained insert load, queries carrying a staleness
        budget offload to less-loaded replicas; every recorded query's
        achieved staleness stays within the budget."""
        from repro.olap.query import full_query as fq

        budget = 1.0
        cluster, batch = chaos_cluster(
            schema, n_items=1500, seed=3, replication_factor=1
        )
        cluster.run_for(2.0)
        extra = random_batch(schema, 400, seed=23)
        writer = cluster.session(0, concurrency=16)
        writer.run_stream(insert_ops(extra))
        reader = cluster.session(0, concurrency=2)
        queries = []
        for _ in range(30):
            q = fq(schema)
            q.max_staleness = budget
            queries.append(Operation("query", query=q))
        reader.run_stream(queries)
        cluster.run_until_clients_done(max_virtual=300.0)
        recs = cluster.stats.select(kind="query")
        assert len(recs) == 30
        assert all(r.staleness <= budget + 1e-9 for r in recs)
        served = cluster.servers[0].replica_reads
        assert served > 0, "no query ever offloaded to a replica"
        assert any(r.staleness > 0.0 for r in recs)
        # queries without a budget never touch replicas: primaries only
        assert all(
            r.staleness == 0.0
            for r in cluster.stats.select(kind="insert")
        )

    def test_crash_during_promotion_single_primary(self, schema):
        """The full fault matrix (drop + duplicate + delay on the whole
        replication surface) plus a crash of the promotion target itself:
        the manager falls to the next-freshest replica or a checkpoint,
        and at quiescence every shard has exactly one primary and no
        acknowledged insert is lost."""
        cluster, batch = chaos_cluster(
            schema, n_items=1200, seed=3, replication_factor=2
        )
        cluster.run_for(2.5)  # seed two replicas of every shard
        cluster.inject_faults(
            FaultPlan()
            .drop(0.08, kinds=REPL_KINDS)
            .duplicate(0.15, kinds=REPL_KINDS)
            .delay(0.10, extra=0.05),
            seed=29,
        )
        extra = random_batch(schema, 120, seed=31)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=300.0)
        drain_replication(cluster, max_virtual=30.0)
        cluster.crash_worker(0)
        # catch the heal mid-flight and kill the promotion target too
        target = None
        for _ in range(500_000):
            ops = [
                op
                for op in cluster.manager.lifecycle.ops.values()
                if op.kind == "promote"
            ]
            if ops:
                target = ops[0].dst
                break
            if not cluster.clock.step():
                break
        assert target is not None, "no promotion was ever attempted"
        cluster.crash_worker(target)
        cluster.run_for(10.0)
        cluster.clear_faults()
        cluster.run_for(8.0)
        assert cluster.manager._pending_restores == set()
        assert cluster.manager.lifecycle.quiescent()
        assert_single_primary(cluster)
        acked = [r for r in cluster.stats.select(kind="insert") if r.ok]
        assert cluster.total_items() == len(batch) + len(acked)
        rec = run_one_query(cluster, schema)
        assert rec.achieved == 1.0
        assert rec.result_count == len(batch) + len(acked)


class TestZeroOverhead:
    def test_no_plan_is_byte_identical(self, schema):
        """With no FaultPlan installed, the transport's behaviour (and
        hence the whole simulation) is identical to the seed code path;
        an installed-but-empty plan also changes nothing."""

        def run(with_empty_plan):
            cluster, batch = chaos_cluster(schema, n_items=700, seed=9)
            if with_empty_plan:
                cluster.inject_faults(FaultPlan(), seed=99)
            extra = random_batch(schema, 60, seed=51)
            sess = cluster.session(0, concurrency=2)
            sess.run_stream(insert_ops(extra))
            cluster.run_until_clients_done(max_virtual=120.0)
            lat = [r.latency for r in cluster.stats.select()]
            return (
                cluster.clock.now,
                cluster.transport.messages_sent,
                cluster.transport.bytes_sent,
                lat,
            )

        base = run(False)
        empty = run(True)
        assert base[0] == empty[0]
        assert base[1] == empty[1]
        assert base[2] == empty[2]
        assert base[3] == pytest.approx(empty[3])


class TestFaultPlanUnit:
    def test_windows_and_kind_filters(self):
        clock = SimClock()
        plan = (
            FaultPlan()
            .drop(1.0, kinds={"insert"}, start=1.0, end=2.0)
            .delay(1.0, extra=0.5, dst="worker-0")
        )
        inj = FaultInjector(plan, clock, seed=0)

        class Named:
            def __init__(self, name):
                self.name = name

        class Msg:
            def __init__(self, kind, sender=None):
                self.kind = kind
                self.sender = sender

        w0 = Named("worker-0")
        other = Named("server-0")
        # outside the window: not dropped, but delayed toward worker-0
        assert inj.plan_delivery(Msg("insert"), w0) == [0.5]
        assert inj.plan_delivery(Msg("insert"), other) == [0.0]
        clock.now = 1.5  # inside the drop window
        assert inj.plan_delivery(Msg("insert"), other) == []
        assert inj.plan_delivery(Msg("query"), other) == [0.0]
        assert inj.dropped == 1 and inj.delayed == 1

    def test_partition_requires_matching_pair(self):
        clock = SimClock()
        inj = FaultInjector(
            FaultPlan().partition("server-0", "worker-1"), clock, seed=0
        )

        class Named:
            def __init__(self, name):
                self.name = name

        class Msg:
            kind = "insert"

            def __init__(self, sender):
                self.sender = sender

        s0, w1, w2 = Named("server-0"), Named("worker-1"), Named("worker-2")
        assert inj.plan_delivery(Msg(s0), w1) == []  # s0 -> w1 cut
        assert inj.plan_delivery(Msg(w1), s0) == []  # reverse cut too
        assert inj.plan_delivery(Msg(s0), w2) == [0.0]  # unaffected pair

    def test_insert_failed_frees_client_slot(self, schema):
        """Satellite: nack exhaustion must produce an explicit
        insert_failed (counted) instead of silently leaking the slot."""
        from repro.cluster.image import ShardInfo
        from repro.cluster.server import Server
        from repro.cluster.transport import LatencyModel, Transport
        from repro.cluster.worker import Worker
        from repro.cluster.zookeeper import Zookeeper
        from repro.cluster.client import ClientSession
        from repro.cluster.stats import ClusterStats
        from repro.olap.keys import Box

        clock = SimClock()
        transport = Transport(clock, LatencyModel(jitter=0.0))
        zk = Zookeeper(clock)
        w = Worker(0, clock, transport, zk, schema)
        # the system image claims worker 0 owns shard 1, but it doesn't:
        # every route resolves stale and nacks
        info = ShardInfo(
            1,
            Box(np.zeros(schema.num_dims, dtype=np.int64), schema.leaf_limits),
            0,
            10,
        )
        zk.set("/shards/1", info.to_wire())
        policy = RetryPolicy(
            timeout=50.0,
            max_attempts=1,
            insert_timeout=10.0,
            max_insert_retries=2,
            backoff_base=0.01,
            backoff_jitter=0.0,
        )
        server = Server(0, clock, transport, zk, schema, {0: w}, retry=policy)
        server.load_image()
        stats = ClusterStats()
        sess = ClientSession(
            0, transport, server, stats, concurrency=1, retry=policy
        )
        coords = np.zeros(schema.num_dims, dtype=np.int64)
        sess.run_stream(
            [Operation("insert", coords=coords, measure=1.0) for _ in range(2)]
        )
        clock.run_until(40.0)
        assert sess.done  # both slots were released
        assert sess.completed == 2
        assert stats.failures == 2
        assert server.insert_failures == 2
        assert all(not r.ok for r in stats.ops)
