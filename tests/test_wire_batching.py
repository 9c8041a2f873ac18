"""Wire-level batching: one message family whatever ``batch_size`` is,
and exactly-once delivery of batched inserts under network faults.

Batching changes only the framing: with the same seeded workload, a
cluster running ``batch_size > 1`` must end with aggregates
identical to the ``batch_size=1`` cluster (integer-valued measures make
sums order-proof), the same completed-op and failure counts, and fewer
messages on the wire.  Dropping or duplicating any of the message
kinds must never lose or double-apply a record -- a retransmit is the
op alone in a one-row batch and workers dedup per ``op_id``.
"""

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig, VOLAPCluster
from repro.cluster.faults import FaultPlan, RetryPolicy
from repro.cluster.transport import Message
from repro.core.aggregates import Aggregate
from repro.core.array_store import ArrayStore
from repro.olap.keys import Box
from repro.olap.query import Query
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch, random_boxes


def int_batch(schema, n, seed):
    b = random_batch(schema, n, seed=seed)
    b.measures[:] = np.floor(b.measures * 100.0)
    return b


def insert_ops(batch):
    return [
        Operation(
            "insert", coords=batch.coords[i], measure=float(batch.measures[i])
        )
        for i in range(len(batch))
    ]


def full_box(schema):
    lo = np.zeros(schema.num_dims, dtype=np.int64)
    hi = np.asarray(schema.leaf_limits, dtype=np.int64)
    return Box(lo, hi)


def cluster_aggregate(cluster, schema):
    """Ground truth straight off the shards (and insertion queues)."""
    total = Aggregate.empty()
    box = full_box(schema)
    for w in cluster.workers.values():
        for s in w.shards.values():
            agg, _ = s.query(box)
            total.merge(agg)
        for q in w.queues.values():
            agg, _ = q.query(box)
            total.merge(agg)
    return total


def query_ops(boxes):
    return [Operation("query", query=Query(b)) for b in boxes]


def run_cluster(schema, boot, stream, *, batch_size, faults=None, retry=None,
                concurrency=64, num_workers=3):
    kwargs = dict(
        num_workers=num_workers,
        num_servers=2,
        seed=5,
        batch_size=batch_size,
        batch_linger=5e-4,
    )
    if retry is not None:
        kwargs["retry"] = retry
    cluster = VOLAPCluster(schema, ClusterConfig(**kwargs))
    cluster.bootstrap(boot)
    if faults is not None:
        cluster.inject_faults(faults)
    sess = cluster.session(concurrency=concurrency)
    sess.run_stream(insert_ops(stream))
    cluster.run_until_clients_done()
    return cluster, sess


def run_query_cluster(schema, boot, boxes, *, batch_size, faults=None,
                      retry=None, concurrency=32, num_workers=3,
                      heartbeat_period=None, crash=None):
    """Bootstrap static data, then drive a pure query stream."""
    kwargs = dict(
        num_workers=num_workers,
        num_servers=2,
        seed=5,
        batch_size=batch_size,
        batch_linger=5e-4,
    )
    if retry is not None:
        kwargs["retry"] = retry
    if heartbeat_period is not None:
        kwargs["heartbeat_period"] = heartbeat_period
    cluster = VOLAPCluster(schema, ClusterConfig(**kwargs))
    cluster.bootstrap(boot, shards_per_worker=2)
    if crash is not None:
        cluster.crash_worker(crash)
    if faults is not None:
        cluster.inject_faults(faults)
    recs = []
    sess = cluster.session(concurrency=concurrency)
    sess.on_complete = recs.append
    sess.run_stream(query_ops(boxes))
    cluster.run_until_clients_done(max_virtual=300.0)
    return cluster, sess, recs


SURVIVING_KINDS = {
    "client_insert_batch", "insert_batch", "insert_batch_ack",
    "insert_done_batch", "insert_failed",
    "client_query_batch", "query_batch", "query_result_batch", "query_done",
    "bulk_insert", "bulk_ack",
}

REMOVED_KINDS = {
    "client_insert", "insert", "insert_ack", "insert_nack", "insert_done",
    "client_query", "query", "query_result",
}

class TestWireEquivalence:
    def test_batched_equals_unbatched(self):
        schema = make_schema()
        boot = int_batch(schema, 800, seed=1)
        stream = int_batch(schema, 1200, seed=2)
        plain, sp = run_cluster(schema, boot, stream, batch_size=1)
        batched, sb = run_cluster(schema, boot, stream, batch_size=32)
        a = cluster_aggregate(plain, schema)
        b = cluster_aggregate(batched, schema)
        assert a.count == b.count == len(boot) + len(stream)
        assert a.total == b.total
        assert plain.stats.failures == batched.stats.failures == 0
        assert sp.completed == sb.completed == len(stream)
        assert len(plain.stats.ops) == len(batched.stats.ops)
        assert sb.batches_sent > 0
        assert batched.transport.messages_sent < plain.transport.messages_sent

    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_one_message_family_whatever_the_batch_size(self, batch_size):
        """Every data-plane message the transport carries is a
        surviving kind, and the per-op kinds are gone for good: sending
        one raises the entities' unknown-message ``ValueError``."""
        schema = make_schema()
        boot = int_batch(schema, 300, seed=3)
        stream = int_batch(schema, 200, seed=4)
        cluster = VOLAPCluster(
            schema,
            ClusterConfig(num_workers=3, num_servers=2, seed=5,
                          batch_size=batch_size, batch_linger=5e-4),
        )
        cluster.bootstrap(boot)
        cluster.observe(spans=False, profile_trees=False)
        sess = cluster.session(concurrency=64)
        sess.run_stream(
            insert_ops(stream) + query_ops(random_boxes(schema, 40, seed=5))
        )
        cluster.run_until_clients_done()
        assert cluster.stats.failures == 0
        assert sess.completed == len(stream) + 40
        if batch_size == 1:  # a single op is a batch of one
            assert sess.batches_sent == len(stream)
            assert sess.query_batches_sent == 40
        else:
            assert 0 < sess.batches_sent < len(stream)
            assert 0 < sess.query_batches_sent < 40

        series = cluster.metrics.snapshot()["counters"]["volap_messages_total"]
        carried = {row["labels"]["kind"] for row in series["series"]}
        assert not carried & REMOVED_KINDS
        data_plane = {
            k for k in carried
            if k.startswith(("client_", "insert", "query", "bulk"))
        }
        assert data_plane == SURVIVING_KINDS - {"insert_failed", "bulk_insert", "bulk_ack"}

        entities = (cluster.servers[0], cluster.workers[0], sess)
        for kind in sorted(REMOVED_KINDS):
            for entity in entities:
                with pytest.raises(ValueError, match="unknown message"):
                    entity.receive(Message(kind, ()))


BATCH_KINDS = {
    "client_insert_batch",
    "insert_batch",
    "insert_batch_ack",
    "insert_done_batch",
}


@pytest.mark.sim_only
class TestBatchingUnderFaults:
    def _chaos_retry(self):
        return RetryPolicy(
            timeout=0.2,
            max_attempts=8,
            insert_timeout=0.1,
            max_insert_retries=8,
            backoff_base=0.02,
            backoff_jitter=0.005,
        )

    @pytest.mark.parametrize("action", ["drop", "duplicate"])
    def test_faulted_batches_apply_exactly_once(self, action):
        """Lost/duplicated batch messages never lose or double a record.

        One worker, so per-worker ``op_id`` dedup is globally complete:
        with several workers a server retry can re-route an already
        applied row to a *different* worker (stale-image residue of the
        retry protocol since PR 1), which is not what this test
        is about -- it pins the batching machinery itself.
        """
        schema = make_schema()
        boot = int_batch(schema, 400, seed=6)
        stream = int_batch(schema, 600, seed=7)
        plan = FaultPlan()
        if action == "drop":
            plan.drop(0.3, kinds=BATCH_KINDS, end=0.5)
        else:
            plan.duplicate(0.5, kinds=BATCH_KINDS, end=0.5)
        cluster, sess = run_cluster(
            schema, boot, stream, batch_size=32,
            faults=plan, retry=self._chaos_retry(), num_workers=1,
        )
        agg = cluster_aggregate(cluster, schema)
        # exactly once: every record applied, none twice, despite the
        # retransmits (drop) or duplicate deliveries
        assert agg.count == len(boot) + len(stream)
        assert agg.total == float(boot.measures.sum() + stream.measures.sum())
        assert sess.completed == len(stream)
        assert cluster.stats.failures == 0
        if action == "drop":
            assert cluster.transport.faults.dropped > 0
        else:
            assert cluster.transport.faults.duplicated > 0
            assert sum(w.dedup_hits for w in cluster.workers.values()) > 0


@pytest.mark.sim_only
def test_lone_retransmit_of_a_flushed_batch_row_applies_exactly_once():
    """One row of an already-flushed 32-row batch loses its ack (the
    only row routed to worker 1; that worker's ``insert_batch_ack`` is
    dropped), times out at the client, is retransmitted alone as a
    one-row ``client_insert_batch``, and the worker's dedup re-acks it
    without applying it twice."""
    schema = make_schema()
    boot = int_batch(schema, 600, seed=6)
    retry = RetryPolicy(
        timeout=0.2, max_attempts=8, insert_timeout=30.0,
        backoff_base=0.02, backoff_jitter=0.0,
    )
    cluster = VOLAPCluster(
        schema,
        ClusterConfig(num_workers=2, num_servers=1, seed=5, retry=retry,
                      batch_size=32, batch_linger=5e-4),
    )
    cluster.bootstrap(boot)
    # 31 rows the image routes to worker 0 and one it routes to worker 1
    image = cluster.servers[0].image
    owner = [image.route_insert(c[None]).worker_id for c in boot.coords]
    picks = [i for i, w in enumerate(owner) if w == 0][:31]
    picks.append(owner.index(1))
    ops = [
        Operation("insert", coords=boot.coords[i], measure=7.0) for i in picks
    ]
    cluster.inject_faults(
        FaultPlan().drop(
            1.0, src="worker-1", kinds={"insert_batch_ack"}, end=0.1
        )
    )
    sent_rows = []
    send = cluster.transport.send

    def recording_send(dst, msg):
        if msg.kind == "client_insert_batch":
            sent_rows.append(len(msg.payload.o))
        send(dst, msg)

    cluster.transport.send = recording_send
    recs = []
    sess = cluster.session(concurrency=32)
    sess.on_complete = recs.append
    sess.run_stream(ops)
    cluster.run_until_clients_done()

    assert sent_rows == [32, 1]  # the flush, then the row alone
    assert sess.batches_sent == 2
    assert sess.timeouts == 1 and sess.retries == 1
    assert sess.completed == 32 and cluster.stats.failures == 0
    assert sorted(r.attempts for r in recs) == [1] * 31 + [2]
    assert cluster.transport.faults.dropped == 1
    assert cluster.workers[1].dedup_hits == 1  # re-acked, not re-applied
    assert cluster.workers[0].dedup_hits == 0
    agg = cluster_aggregate(cluster, schema)
    assert agg.count == len(boot) + 32
    assert agg.total == float(boot.measures.sum()) + 32 * 7.0


QUERY_BATCH_KINDS = {
    "client_query_batch",
    "query_batch",
    "query_result_batch",
}


def test_timeout_timers_die_with_their_ops():
    """Under the default ``RetryPolicy`` (60 s client, 30 s server
    timeouts, 30 s query deadline) every op used to leave two dead
    timers queued long after its reply.  Once everything has completed
    the clock holds the periodic timers (heartbeats and their TTLs,
    sync, scan, stats, checkpoints) and little else."""
    schema = make_schema()
    cluster, inserts = run_cluster(
        schema, int_batch(schema, 400, 1), int_batch(schema, 2000, 2),
        batch_size=16,
    )
    queries = cluster.session(concurrency=8)
    queries.run_stream(query_ops(random_boxes(schema, 200, seed=3)))
    cluster.run_until_clients_done()
    assert inserts.completed == 2000 and queries.completed == 200
    assert cluster.stats.failures == 0
    assert cluster.clock.pending < 200  # was 2 * 2000 + 2 * 200 + periodic
    cluster.close()


def oracle_counts(schema, boot, boxes):
    oracle = ArrayStore.from_batch(schema, boot, None)
    return [oracle.query(b)[0].count for b in boxes]


class TestQueryBatching:
    def test_batched_equals_unbatched_queries(self):
        """Same boxes over the same static data: batch_size=32 must
        answer exactly like batch_size=1, with fewer wire messages."""
        schema = make_schema()
        boot = int_batch(schema, 1500, seed=1)
        boxes = random_boxes(schema, 80, seed=9)
        want = sorted(oracle_counts(schema, boot, boxes))

        plain, sp, rp = run_query_cluster(schema, boot, boxes, batch_size=1)
        batched, sb, rb = run_query_cluster(schema, boot, boxes, batch_size=32)
        assert sp.completed == sb.completed == len(boxes)
        assert plain.stats.failures == batched.stats.failures == 0
        assert sp.query_batches_sent == len(boxes)  # each a batch of one
        assert 0 < sb.query_batches_sent < len(boxes)
        assert sorted(r.result_count for r in rp) == want
        assert sorted(r.result_count for r in rb) == want
        assert all(r.achieved == 1.0 for r in rb)
        assert batched.transport.messages_sent < plain.transport.messages_sent

    def test_cluster_execute_convenience(self):
        """``VOLAPCluster.execute`` returns ordered, oracle-exact
        results with full coverage."""
        schema = make_schema()
        boot = int_batch(schema, 1200, seed=2)
        boxes = random_boxes(schema, 30, seed=11)
        oracle = ArrayStore.from_batch(schema, boot, None)

        cluster = VOLAPCluster(
            schema,
            ClusterConfig(num_workers=3, num_servers=2, seed=5,
                          batch_size=16, batch_linger=5e-4),
        )
        cluster.bootstrap(boot)
        results = cluster.execute([Query(b) for b in boxes])
        assert len(results) == len(boxes)
        for box, res in zip(boxes, results):
            want, _ = oracle.query(box)
            assert res.value.count == want.count
            assert res.value.total == want.total
            assert res.coverage == 1.0
            assert res.source == "tree"
            assert res.staleness == 0.0

    def test_ops_total_counts_logical_queries(self):
        """Batched queries are recorded one per op: the
        ``volap_ops_total`` query series grows by one per *logical*
        query, not one per wire batch."""
        schema = make_schema()
        boot = int_batch(schema, 600, seed=3)
        boxes = random_boxes(schema, 48, seed=13)
        cluster, sess, recs = run_query_cluster(
            schema, boot, boxes, batch_size=16
        )
        assert sess.completed == len(boxes)
        assert sess.query_batches_sent < len(boxes)
        snap = cluster.metrics.snapshot()
        series = snap["counters"]["volap_ops_total"]["series"]
        qcount = sum(
            s["value"]
            for s in series
            if s["labels"].get("kind") == "query"
            and s["labels"].get("ok") in ("true", "True")
        )
        assert qcount == len(boxes)
        assert len(cluster.stats.select(kind="query")) == len(boxes)


class TestQueryBatchingUnderFaults:
    @pytest.mark.parametrize("action", ["drop", "duplicate"])
    def test_faulted_query_batches_stay_exact(self, action):
        """Dropping or duplicating any batched-query message kind must
        neither lose a query (a retransmit is the query alone in a
        one-row batch) nor skew a result (duplicate worker results are counted
        once per token)."""
        schema = make_schema()
        boot = int_batch(schema, 900, seed=6)
        boxes = random_boxes(schema, 60, seed=17)
        want = sorted(oracle_counts(schema, boot, boxes))
        plan = FaultPlan()
        if action == "drop":
            plan.drop(0.3, kinds=QUERY_BATCH_KINDS, end=0.5)
        else:
            plan.duplicate(0.5, kinds=QUERY_BATCH_KINDS, end=0.5)
        retry = RetryPolicy(
            timeout=0.2,
            max_attempts=8,
            insert_timeout=0.1,
            max_insert_retries=8,
            backoff_base=0.02,
            backoff_jitter=0.005,
        )
        cluster, sess, recs = run_query_cluster(
            schema, boot, boxes, batch_size=16, faults=plan, retry=retry
        )
        assert sess.completed == len(boxes)
        assert cluster.stats.failures == 0
        assert all(r.ok for r in recs)
        assert sorted(r.result_count for r in recs) == want
        if action == "drop":
            assert cluster.transport.faults.dropped > 0
        else:
            assert cluster.transport.faults.duplicated > 0

    def test_crashed_worker_degrades_batched_queries(self):
        """With failover disabled and one worker down, batched queries
        still answer within the deadline -- as degraded partials with
        ``achieved < 1`` -- instead of hanging."""
        schema = make_schema()
        boot = int_batch(schema, 900, seed=8)
        # full-domain boxes are guaranteed to fan out to every worker,
        # including the dead one
        boxes = [full_box(schema) for _ in range(12)]
        retry = RetryPolicy(timeout=60.0, query_deadline=0.5)
        cluster, sess, recs = run_query_cluster(
            schema, boot, boxes, batch_size=8, retry=retry,
            heartbeat_period=0, crash=0,
        )
        assert sess.completed == len(boxes)
        assert all(r.ok for r in recs)
        assert all(r.achieved < 1.0 for r in recs)
        assert cluster.stats.degraded()
        # the live workers' shards were still searched
        assert all(r.shards_searched > 0 for r in recs)
