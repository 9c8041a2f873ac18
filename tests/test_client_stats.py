"""Tests for client sessions, cluster statistics, and bench tables."""

import gc
import weakref

import numpy as np
import pytest

from repro.bench.tables import render_series, render_table
from repro.cluster.client import ClientSession
from repro.cluster.simclock import SimClock
from repro.cluster.stats import ClusterStats, InsertRecord, OpRecord
from repro.cluster.transport import Entity, LatencyModel, Message, Transport
from repro.cluster.wire import InsertDoneBatch, QueryDone
from repro.workloads.streams import Operation


class EchoServer(Entity):
    """Fake server acking everything after a fixed delay."""

    name = "echo"

    def __init__(self, clock, transport, delay=0.01):
        self.clock = clock
        self.transport = transport
        self.delay = delay
        self.seen = 0

    def receive(self, msg):
        from repro.core.aggregates import Aggregate

        self.seen += 1
        if msg.kind == "client_insert_batch":
            client = msg.payload.reply_to
            replies = [Message("insert_done_batch", InsertDoneBatch(msg.payload.o))]
        elif msg.kind == "client_query_batch":
            client = msg.payload.reply_to
            replies = [
                Message(
                    "query_done",
                    QueryDone(op_id, self.clock.now, Aggregate.of_value(1.0), 2,
                              query.coverage, 1.0, 0.0, "tree"),
                )
                for op_id, query in zip(msg.payload.x[:, 0].tolist(), msg.payload.queries)
            ]
        else:
            raise ValueError(f"echo: unknown message {msg.kind!r}")
        for reply in replies:
            self.clock.after(
                self.delay, lambda reply=reply: client.receive(reply)
            )


def make_rig(delay=0.01):
    clock = SimClock()
    transport = Transport(clock, LatencyModel(base=0.0, jitter=0.0))
    server = EchoServer(clock, transport, delay)
    stats = ClusterStats()
    return clock, transport, server, stats


def insert_ops(n):
    return [
        Operation("insert", coords=np.zeros(2, dtype=np.int64), measure=1.0)
        for _ in range(n)
    ]


class TestClientSession:
    def test_completes_all_ops(self):
        clock, transport, server, stats = make_rig()
        c = ClientSession(0, transport, server, stats, concurrency=4)
        c.run_stream(insert_ops(20))
        clock.run()
        assert c.done
        assert c.completed == 20
        assert len(stats.ops) == 20

    def test_batched_session_completes_all_ops(self):
        """Coalesced inserts: fewer wire messages, same per-op records."""
        clock, transport, server, stats = make_rig()
        c = ClientSession(
            0, transport, server, stats, concurrency=16,
            batch_size=8, batch_linger=1e-3,
        )
        c.run_stream(insert_ops(40))
        clock.run()
        assert c.done
        assert c.completed == 40
        assert len(stats.ops) == 40  # per-record accounting survives
        assert all(r.ok for r in stats.ops)
        assert c.batches_sent > 0
        assert server.seen < 40  # coalescing actually happened

    def test_acked_insert_record_is_small_and_reads_like_an_op_record(self):
        """Every acked row keeps its record for the life of the cluster:
        an acked insert's is an ``InsertRecord`` of its times and
        attempts, and every ``OpRecord`` field reads as on an
        ``OpRecord`` built from the same three values."""
        import math
        import sys

        clock, transport, server, stats = make_rig()
        c = ClientSession(0, transport, server, stats, concurrency=4, batch_size=4)
        c.run_stream(insert_ops(8))
        clock.run()
        assert c.completed == 8
        for rec in stats.ops:
            assert isinstance(rec, InsertRecord)
            assert sys.getsizeof(rec) < sys.getsizeof(
                OpRecord("insert", 0.0, 0.0)
            ) // 2
            want = OpRecord("insert", rec.submit_time, rec.complete_time,
                            attempts=rec.attempts)
            for field in OpRecord.__slots__:
                a, b = getattr(rec, field), getattr(want, field)
                assert a == b or (math.isnan(a) and math.isnan(b)), field
            assert rec.latency == want.latency > 0
        out = stats.latency_stats(stats.select(kind="insert"))
        assert out["mean"] == pytest.approx(np.mean([r.latency for r in stats.ops]))

    def test_linger_flushes_short_batches(self):
        """A window smaller than the batch never fills it; the linger
        timer must flush anyway."""
        clock, transport, server, stats = make_rig()
        c = ClientSession(
            0, transport, server, stats, concurrency=2,
            batch_size=64, batch_linger=1e-3,
        )
        c.run_stream(insert_ops(6))
        clock.run()
        assert c.done and c.completed == 6
        assert c.batches_sent >= 3  # ~window-sized flushes

    def test_completed_ops_are_not_retained(self):
        """A long-lived session (closed-loop top-ups) must not keep the
        ``Operation`` objects it has already delivered records for."""
        clock, transport, server, stats = make_rig()
        c = ClientSession(0, transport, server, stats, concurrency=4)
        ops = insert_ops(30)
        first = weakref.ref(ops[0])
        c.run_stream(ops[:20])
        c.run_stream(ops[20:])  # a top-up while the first stream runs
        del ops
        assert len(c._ops) == 30 - 4 and first() is not None
        clock.run()
        assert c.done and c.completed == 30
        assert len(c._ops) == 0 and not c._pending
        gc.collect()
        assert first() is None

    def test_concurrency_bounds_outstanding(self):
        clock, transport, server, stats = make_rig()
        c = ClientSession(0, transport, server, stats, concurrency=3)
        c.run_stream(insert_ops(10))
        assert c._outstanding == 3  # only the window is in flight

    def test_closed_loop_pacing(self):
        """With concurrency 1 and service delay d, ops complete serially."""
        clock, transport, server, stats = make_rig(delay=0.5)
        c = ClientSession(0, transport, server, stats, concurrency=1)
        c.run_stream(insert_ops(4))
        clock.run()
        completes = sorted(r.complete_time for r in stats.ops)
        gaps = np.diff(completes)
        assert (gaps >= 0.5 - 1e-9).all()

    def test_on_done_callback(self):
        clock, transport, server, stats = make_rig()
        c = ClientSession(0, transport, server, stats, concurrency=2)
        fired = []
        c.on_done = lambda: fired.append(clock.now)
        c.run_stream(insert_ops(5))
        clock.run()
        assert len(fired) == 1

    def test_query_records_coverage(self):
        from repro.olap.query import Query
        from repro.olap.keys import Box

        clock, transport, server, stats = make_rig()
        c = ClientSession(0, transport, server, stats, concurrency=1)
        q = Query(Box(np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64)))
        q.coverage = 0.42
        c.run_stream([Operation("query", query=q)])
        clock.run()
        rec = stats.ops[0]
        assert rec.kind == "query"
        assert rec.coverage == 0.42
        assert rec.shards_searched == 2

    def test_bad_concurrency(self):
        clock, transport, server, stats = make_rig()
        with pytest.raises(ValueError):
            ClientSession(0, transport, server, stats, concurrency=0)


class TestClusterStats:
    def test_select_filters(self):
        s = ClusterStats()
        s.record_op(OpRecord("insert", 0.0, 1.0))
        s.record_op(OpRecord("query", 2.0, 3.0, coverage=0.5))
        s.record_op(OpRecord("query", 4.0, 5.0, coverage=0.9))
        assert len(s.select(kind="insert")) == 1
        assert len(s.select(kind="query", coverage_band=(0.8, 1.0))) == 1
        assert len(s.select(since=1.5)) == 2
        assert len(s.select(until=1.0)) == 1

    def test_throughput(self):
        s = ClusterStats()
        for i in range(10):
            s.record_op(OpRecord("insert", i * 0.1, i * 0.1 + 0.05))
        recs = s.select()
        assert s.throughput(recs) == pytest.approx(10 / 0.95)
        assert s.throughput([]) == 0.0

    def test_latency_stats(self):
        s = ClusterStats()
        s.record_op(OpRecord("insert", 0.0, 0.2))
        s.record_op(OpRecord("insert", 0.0, 0.4))
        out = s.latency_stats(s.select())
        assert out["mean"] == pytest.approx(0.3)
        assert out["max"] == pytest.approx(0.4)
        assert np.isnan(s.latency_stats([])["mean"])

    def test_latency_stats_empty_has_same_keys(self):
        """Regression: the empty-input dict used to miss the "max" key,
        so ``latency_stats(recs)["max"]`` blew up on quiet windows."""
        s = ClusterStats()
        empty = s.latency_stats([])
        s.record_op(OpRecord("insert", 0.0, 0.2))
        full = s.latency_stats(s.select())
        assert set(empty) == set(full)
        assert all(np.isnan(v) for v in empty.values())

    def test_balance_series(self):
        s = ClusterStats()
        s.snapshot_workers(0.0, {0: 100, 1: 50})
        s.record_migration(0.5)
        s.snapshot_workers(1.0, {0: 80, 1: 70})
        rows = s.balance_series()
        assert rows[0] == (0.0, 50, 100, 0)
        assert rows[1] == (1.0, 70, 80, 1)

    def test_split_and_migration_counters(self):
        s = ClusterStats()
        s.record_split(1.0)
        s.record_migration(2.0)
        s.record_migration(3.0)
        assert s.splits == 1
        assert s.migrations == 2
        assert len(s.balance_events) == 3


class TestTables:
    def test_render_table_alignment(self):
        out = render_table("T", ["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_render_table_empty(self):
        out = render_table("T", ["x"], [])
        assert "x" in out

    def test_render_series(self):
        out = render_series("S", {"line": [(1, 2.0), (3, 4.0)]})
        assert "-- line" in out
        assert "1" in out

    def test_float_formatting(self):
        out = render_table("T", ["v"], [[123456.789], [0.00012], [3.14159]])
        assert "123,457" in out
        assert "0.00012" in out
        assert "3.14" in out
