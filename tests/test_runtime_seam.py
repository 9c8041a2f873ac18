"""Runtime seam tests: frame codec, timers, fault aliasing, backends.

Covers the PR 9 surface: the column-frame wire codec and its exact
sizing, timer ordering/cancellation on both clock implementations, the
defensive-copy fix for fault-duplicated deliveries, sim-vs-asyncio
outcome equivalence, the chaos matrix on the asyncio backend, and an
mp smoke test asserting the zero-pickling data plane; and the one drive
loop of the wall-clock backends (no starvation, errors from handlers
and timers, delivery order) with the mp process boundary (a child that
is not read from, a reply that ends the loop's wait, a close before any
drive, a child that dies).
"""

import multiprocessing
import os
import signal
import socket
import time
from typing import get_type_hints

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    FaultInjector,
    FaultPlan,
    LatencyModel,
    RetryPolicy,
    VOLAPCluster,
)
from repro.cluster import wire
from repro.cluster.client import query_batch
from repro.cluster.simclock import SimClock
from repro.cluster.transport import Entity, Message, Transport
from repro.cluster.wire import f64, i64
from repro.cluster.worker import WORKER_THREADS, Worker
from repro.cluster.zookeeper import Zookeeper
from repro.core import HilbertPDCTree, TreeConfig
from repro.core.aggregates import Aggregate
from repro.olap.colframe import decode_columns, measure_columns
from repro.olap.query import full_query
from repro.olap.rollup import CubeCells
from repro.runtime import frames, make_runtime
from repro.runtime import mp as mp_rt
from repro.runtime.asyncio_rt import WallClock
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch, timer_program

INSERT_KINDS = {
    "client_insert_batch", "insert_batch", "insert_batch_ack", "insert_done_batch",
}

#: retry timers for wall-clock chaos runs.  On a real runtime, model
#: time also elapses while handlers burn real CPU (real seconds /
#: time_scale), so model timeouts must stay well above the chain's
#: real processing time -- unlike the sim, where handlers are free.
#: At time_scale=0.01, a ~2ms real insert chain costs ~0.2 model
#: seconds; 5-second timeouts keep healthy attempts from tripping.
FAST_RETRY = RetryPolicy(
    timeout=5.0,
    max_attempts=8,
    insert_timeout=2.0,
    max_insert_retries=6,
    query_deadline=5.0,
    backoff_base=0.2,
    backoff_factor=1.5,
    backoff_jitter=0.05,
)


class _Sink(Entity):
    name = "sink"

    def __init__(self):
        self.got = []

    def receive(self, msg):
        self.got.append(msg)


def _insert_ops(batch):
    return [
        Operation("insert", coords=batch.coords[i], measure=float(batch.measures[i]))
        for i in range(len(batch))
    ]


def small_config(runtime, **kw):
    kw.setdefault("num_workers", 2)
    kw.setdefault("num_servers", 1)
    kw.setdefault("tree_config", TreeConfig(leaf_capacity=32, fanout=8))
    kw.setdefault("time_scale", 0.01)
    return ClusterConfig(runtime=runtime, **kw)


# -------------------------------------------------------------------------
# frame codec
# -------------------------------------------------------------------------


def _payload(kind, n, sink):
    """A payload of ``n`` rows for one of the kinds declared in
    ``wire.PAYLOADS``, built the way the entities build it."""
    rng = np.random.default_rng(n)
    coords = rng.integers(0, 1 << 20, size=(n, 3)).astype(np.int64)
    values = rng.random(n)
    token = (1 << 32) | 7  # server 1's token space: needs all 64 bits
    # every fourth row has no op id (0), like a bulk row on the stream
    ops = i64([((3 << 24) | i) if i % 4 else 0 for i in range(n)])
    if kind == "client_insert_batch":
        return wire.ClientInsertBatch(ops, coords, values, sink)
    if kind == "insert_batch":
        x = i64([(i % 5, token + i, ops[i]) for i in range(n)])
        return wire.InsertBatch(x, coords, values, sink)
    if kind == "bulk_insert":
        return wire.BulkInsert(i64([7, (0xBBB << 32) | n]), coords, values, sink)
    if kind == "query_batch":
        # ragged shard lists, the empty one included
        x = i64([(token + i, i % 3, *coords[i], *(coords[i] + i)) for i in range(n)])
        s = i64([sid for i in range(n) for sid in range(i % 3)])
        return wire.QueryBatch(x, s, sink)
    if kind == "insert_batch_ack":
        return wire.InsertBatchAck(
            i64([token + i for i in range(n)]),
            i64([(token + n + i, i % 5) for i in range(n // 2)]).reshape(-1, 2),
            i64([2]),
        )
    if kind == "insert_done_batch":
        return wire.InsertDoneBatch(ops)
    if kind == "bulk_ack":
        return wire.BulkAck(i64([(0xBBB << 32) | n, 1]), i64(range(0, n, 3)))
    if kind == "query_result_batch":
        return wire.QueryResultBatch(
            i64([(token + i, i, i % 4, i % 2, 1) for i in range(n)]),
            f64([(values[i], -1.5, float("inf")) for i in range(n)]),
        )
    if kind == "replica_batch":
        return wire.ReplicaBatch(coords, values, ops, i64([7, 2, 5]), f64([1.5]), sink)
    if kind == "primary_handoff":
        return wire.PrimaryHandoff(coords, values, ops, i64([7]), sink)
    if kind == "install_shard":
        return wire.InstallShard(i64([7]), coords, values)
    if kind == "barrier":
        return wire.Barrier(i64([token]), sink)
    if kind == "barrier_ack":
        sizes = i64([(sid, sid * 100) for sid in range(n // 2)]).reshape(-1, 2)
        return wire.BarrierAck(i64([token, 3 * n, n // 4]), sizes, f64([0.25]))
    raise AssertionError(f"no sample payload for kind {kind!r}")


def _same(a, b):
    """Field-by-field payload equality (arrays by dtype, shape, value)."""
    assert type(a) is type(b)
    for name, x, y in zip(a._fields, a, b):
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray), name
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert np.array_equal(x, y), name
        else:
            assert x is y, name
    return True


def _array_fields(cls):
    return [f for f, t in get_type_hints(cls).items() if t is np.ndarray]


def _envelope_len(payload, route):
    """u8 kind | u8 len | route | u8 len | name of the reply_to entity."""
    reply = getattr(payload, "reply_to", None)
    return 3 + len(route) + (len(reply.name) if reply is not None else 0)


class TestFrames:
    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("kind", sorted(frames.PIPE_KINDS))
    def test_round_trip_is_exact_and_sized(self, kind, n):
        sink = _Sink()
        route = "server-0" if kind in frames.REPLY_KINDS else "worker-0"
        payload = _payload(kind, n, sink)
        blob = frames.encode(kind, payload, route=route)
        assert frames.wire_size(kind, payload, route) == len(blob)
        got_kind, got, got_route = frames.decode(blob, lambda name: sink)
        assert (got_kind, got_route) == (kind, route)
        assert _same(got, payload)
        # every array field of the declaration is a column of the
        # frame, in declared order, and nothing else is
        columns = decode_columns(blob[_envelope_len(payload, route) :])
        assert list(columns) == _array_fields(type(payload))

    @pytest.mark.parametrize("kind", sorted(wire.PAYLOADS))
    def test_declared_arrays_are_the_sized_columns(self, kind):
        """The declaration is the schema, for the kinds that are only
        sized too: the array fields, and only they, are arrays, and the
        message weighs its envelope plus exactly those columns."""
        sink = _Sink()
        payload = _payload(kind, 5, sink)
        cls = wire.PAYLOADS[kind]
        assert type(payload) is cls
        arrays = _array_fields(cls)
        assert [
            f for f, v in zip(cls._fields, payload) if isinstance(v, np.ndarray)
        ] == arrays
        assert frames.wire_size(kind, payload, "dst-0") == _envelope_len(
            payload, "dst-0"
        ) + measure_columns([(f, getattr(payload, f)) for f in arrays])

    @pytest.mark.parametrize(
        "kind, dst, sizes",
        [
            ("replica_batch", "worker-1", {1: 303, 64: 1807}),
            ("primary_handoff", "worker-1", {1: 255, 64: 1759}),
            ("client_insert_batch", "server-0", {1: 215, 64: 1719}),
            ("insert_done_batch", "client-0", {1: 95, 64: 343}),
        ],
    )
    def test_parent_only_kinds_keep_their_size(self, kind, dst, sizes):
        """Sizes of the row carriers that never leave the parent, pinned
        to what the hand-written builders measured for the same rows
        before the declarations replaced them (the sim's bandwidth
        delays must not move)."""
        sink = _Sink()
        sink.name = "worker-0"
        for n, size in sizes.items():
            assert frames.wire_size(kind, _payload(kind, n, sink), dst) == size

    def test_data_kinds_are_the_batch_family(self):
        """The worker pipe carries the batch family, bootstrap shards and
        the barrier, and nothing else."""
        assert frames.PIPE_KINDS == {
            "insert_batch", "bulk_insert", "query_batch",
            "insert_batch_ack", "bulk_ack", "query_result_batch",
            "install_shard", "barrier", "barrier_ack",
        }

    def test_non_data_kind_raises_and_trips_spy(self):
        before = frames.codec_stats()["data_pickled"]
        with pytest.raises(ValueError):
            frames.encode("split_shard", (1, 2, 3))
        assert frames.codec_stats()["data_pickled"] == before + 1

    def test_control_declarations_weigh_envelope_plus_planned_fields(self):
        """Every declaration outside ``PAYLOADS`` weighs its envelope
        plus its fields by the one plan: 8 bytes a scalar (32 a nested
        ``Aggregate``), a blob or string its length, an entity its name,
        arrays their columns, a list each item."""
        sink, worker = _Sink(), _Sink()
        worker.name = "worker-1"
        blob = b"x" * 1000
        key = (("d0", 1), ("d1", 2))
        cells = CubeCells(4)
        query = full_query(make_schema())
        batch = query_batch([5], [query], sink)
        slab = measure_columns([(f, getattr(cells, f)) for f in ("counts", "sums", "mins", "maxs")])
        samples = [
            (wire.SplitShard(1, 2, 3, sink), 3 * 8),
            (wire.MigrateShard(1, worker, sink), 8 + 8),
            (wire.RestoreShard(1, blob, sink), 8 + 1000),
            (wire.RestoreShard(1, None, sink), 8),
            (wire.ReplicateShard(1, worker, 1, sink), 2 * 8 + 8),
            (wire.PromoteShard(1, 2, sink), 2 * 8),
            (wire.ShardRequest(1, sink), 8),
            (wire.ShardOpReply(1, 2), 2 * 8),
            (wire.ShardNotice(1), 8),
            (wire.MigrateIn(1, blob, worker, sink), 8 + 1000 + 8),
            (wire.MigrateReady(1, worker, sink), 8 + 8),
            (wire.QueueTransfer(1, blob), 8 + 1000),
            (wire.ReplicaInstall(1, 2, 3, blob, worker, sink), 3 * 8 + 1000 + 8),
            (wire.ReplicaAck(1, 2, 3, 4), 4 * 8),
            (wire.ReplicaRemove(1, -1), 2 * 8),
            (wire.RollupSync(1, -1, [key], sink), 2 * 8 + 2 * (2 + 8)),
            (wire.RollupCells(1, 2, 3, [(key, cells)], 0), 4 * 8 + 2 * (2 + 8) + 8 + slab),
            (batch, measure_columns([("x", batch.x), ("g", batch.g)])),
            (
                wire.QueryDone(1, 0.5, Aggregate(3, 1.0, 0.0, 1.0), 2, 1.0, 1.0, 0.0, "hybrid"),
                6 * 8 + 4 * 8 + len("hybrid"),
            ),
            (wire.InsertFailed(1), 8),
        ]
        control = set(wire.MESSAGES.values()) - set(wire.PAYLOADS.values())
        assert {type(p) for p, _ in samples} == control
        for payload, fields in samples:
            kind = next(k for k, cls in wire.MESSAGES.items() if cls is type(payload))
            size = frames.wire_size(kind, payload, "worker-0")
            assert size == _envelope_len(payload, "worker-0") + fields, type(payload)

    @pytest.mark.parametrize(
        "kind, make",
        [
            ("restore_shard", lambda blob, w, s: wire.RestoreShard(1, blob, s)),
            ("migrate_in", lambda blob, w, s: wire.MigrateIn(1, blob, w, s)),
            ("queue_transfer", lambda blob, w, s: wire.QueueTransfer(1, blob)),
            ("replica_install", lambda blob, w, s: wire.ReplicaInstall(1, 0, 0, blob, w, s)),
        ],
    )
    def test_blob_kinds_weigh_their_blob_unasked(self, kind, make):
        """Sent with no ``size``, a blob-carrying message is charged at
        least its blob: no call site has to say so."""
        clock = SimClock()
        transport = Transport(clock)
        sink = _Sink()
        blob = b"\0" * (1 << 20)
        msg = Message(kind, make(blob, sink, sink))
        transport.send(sink, msg)
        assert msg.size >= len(blob)
        assert transport.bytes_sent == msg.size

    def test_positional_payload_cannot_be_sized(self):
        with pytest.raises(TypeError):
            frames.wire_size("split_shard", (1, 2, 3))


# -------------------------------------------------------------------------
# timers: ordering and cancellation on both clock implementations
# -------------------------------------------------------------------------


def _drain_wall(clock, deadline=5.0):
    import time as _t

    end = _t.monotonic() + deadline
    while clock.next_deadline() is not None:
        clock.fire_due()
        _t.sleep(0.0002)
        if _t.monotonic() > end:  # pragma: no cover - hang guard
            raise RuntimeError("wall clock did not drain")


@pytest.mark.parametrize("impl", ["sim", "wall"])
class TestTimers:
    def make(self, impl):
        if impl == "sim":
            clock = SimClock()
            return clock, clock.run
        # 0.01: model delays run 100x compressed -- small enough that
        # the test is fast, large enough that scheduling overhead (a
        # few microseconds real) cannot reorder 0.1-model-second gaps
        clock = WallClock(time_scale=0.01)
        clock.start()
        return clock, lambda: _drain_wall(clock)

    def test_ordering_and_fifo_ties(self, impl):
        clock, drain = self.make(impl)
        fired = []
        # absolute deadlines off one anchor: on the wall clock a loaded
        # host can stall between registration calls, and relative
        # after() offsets would then skew against each other
        t0 = clock.now
        clock.at(t0 + 0.3, lambda: fired.append("late"))
        clock.at(t0 + 0.1, lambda: fired.append("a"))
        clock.at(t0 + 0.1, lambda: fired.append("b"))
        clock.at(t0 + 0.2, lambda: fired.append("mid"))
        drain()
        assert fired == ["a", "b", "mid", "late"]

    def test_cancellation(self, impl):
        clock, drain = self.make(impl)
        fired = []
        keep = clock.after(0.2, lambda: fired.append("keep"))
        kill = clock.after(0.1, lambda: fired.append("kill"))
        kill.cancel()
        drain()
        assert fired == ["keep"]
        assert keep is not None

    def test_every_cancel_stops_recurrence(self, impl):
        clock, drain = self.make(impl)
        ticks = []
        handle = clock.every(0.05, lambda: ticks.append(clock.now))

        def stop():
            handle.cancel()

        clock.after(0.17, stop)
        drain()
        # exact counts differ with wall sleep granularity; the property
        # is that the recurrence fired and then stopped for good
        assert 1 <= len(ticks) <= 4
        n = len(ticks)
        drain()
        assert len(ticks) == n

    def test_reclaim_never_reorders(self, impl):
        clock, drain = self.make(impl)
        ref, ref_drain = self.make(impl)
        ref._note_cancelled = lambda: None  # cancelled entries stay queued
        fired, queued = timer_program(clock, drain, 11, reschedule=False)
        want, ref_queued = timer_program(ref, ref_drain, 11, reschedule=False)
        assert fired == want and len(fired) > 50
        assert queued < ref_queued == 500

    def test_cancelled_timers_are_reclaimed(self, impl):
        clock, drain = self.make(impl)
        fired = []
        clock.after(0.3, lambda: fired.append("live"))
        for _ in range(10_000):
            clock.after(60.0, lambda: fired.append("dead")).cancel()
            assert clock.pending <= 3
        drain()
        assert fired == ["live"] and clock.pending == 0

    def test_cancel_after_firing_and_twice(self, impl):
        clock, drain = self.make(impl)
        fired = []
        done = clock.after(0.1, lambda: fired.append("done"))
        drain()
        for i in range(4):
            clock.after(0.1 * (i + 2), lambda i=i: fired.append(i))
        twice = clock.after(0.1, lambda: fired.append("twice"))
        for _ in range(10):
            done.cancel()  # fired: no longer queued, counts nothing
            twice.cancel()  # counts once
        # one cancelled entry beside four live ones: nothing to reclaim
        # yet; a miscount would have "outnumbered" them and shown 4
        assert clock.pending == 5
        drain()
        assert fired == ["done", 0, 1, 2, 3]

    def test_pool_seam(self, impl):
        clock, drain = self.make(impl)
        pool = clock.make_pool(4)
        done = []
        pool.submit(0.01, lambda: done.append(1))
        pool.submit(0.02, lambda: done.append(2))
        drain()
        assert sorted(done) == [1, 2]
        assert pool.jobs == 2
        assert pool.busy_time == pytest.approx(0.03)


def test_wallclock_pauses_between_drives():
    import time as _t

    clock = WallClock(time_scale=1.0)
    clock.start()
    _t.sleep(0.02)
    clock.stop()
    frozen = clock.now
    _t.sleep(0.03)
    assert clock.now == frozen  # time does not pass while stopped
    assert frozen >= 0.02


# -------------------------------------------------------------------------
# the one drive loop: handlers run inside fire_due
# -------------------------------------------------------------------------

#: size / bandwidth is all that is left: under a nanosecond a message
NO_LATENCY = LatencyModel(base=0.0, jitter=0.0)


class _Echo(Entity):
    """Answers every message with another one to itself: a closed loop
    of one, with a delivery due whenever the drive loop looks."""

    name = "echo"

    def __init__(self, transport):
        self.transport = transport
        self.got = 0
        self.give_up = time.monotonic() + 10.0

    def receive(self, msg):
        # a starved drive loop never returns: fail instead of hanging
        assert time.monotonic() < self.give_up, "the drive loop is starved"
        self.got += 1
        self.transport.send(self, Message("ping", None, size=1))


@pytest.mark.parametrize("kind", ["asyncio", "mp"])
def test_always_due_timer_does_not_starve_the_drive_loop(kind):
    rt = make_runtime(kind, latency=NO_LATENCY, time_scale=1.0)
    try:
        echo = _Echo(rt.transport)
        echo.receive(None)
        rt.drive(lambda: echo.got >= 200, idle_break=False)
        assert echo.got == 200  # one round, one look at the predicate
        t = rt.clock.now + 0.05
        t0 = time.monotonic()
        rt.run_until(t)
        assert t <= rt.clock.now < t + 0.5
        assert time.monotonic() - t0 < 1.0 and echo.got > 200
    finally:
        rt.close()


class _Raiser(Entity):
    name = "raiser"

    def __init__(self, exc):
        self.exc = exc

    def receive(self, msg):
        raise self.exc


@pytest.mark.parametrize("source", ["receive", "timer"])
@pytest.mark.parametrize("kind", ["asyncio", "mp"])
def test_handler_and_timer_errors_surface_once_from_drive(kind, source):
    rt = make_runtime(kind, latency=NO_LATENCY, time_scale=1.0)
    try:
        boom = ValueError("boom")
        raiser, sink, behind = _Raiser(boom), _Sink(), []
        # the clock stands still until the drive: equal deadlines, FIFO
        if source == "receive":
            rt.transport.send(raiser, Message("note", None, size=0))
        else:
            rt.clock.after(0.0, lambda: raiser.receive(None))
        rt.clock.after(0.0, lambda: behind.append(1))
        with pytest.raises(RuntimeError, match="entity handler failed") as err:
            rt.drive(lambda: False, desc="doomed")
        assert err.value.__cause__ is boom and "doomed" in str(err.value)
        assert behind == []  # the round ended at the failure ...
        rt.drive(lambda: False)  # ... once: nothing is raised again
        assert behind == [1]  # and what was due behind it was not lost
        rt.transport.send(sink, Message("note", "after", size=1))
        rt.drive(lambda: bool(sink.got))
        assert [m.payload for m in sink.got] == ["after"]
    finally:
        rt.close()


def _delivery_sequence(kind, plan=None):
    """Payloads in arrival order of 40 equal-size messages sent back to
    back while the clock stands still (so both clocks schedule the same
    deadlines), optionally through a fault plan."""
    rt = make_runtime(kind, latency=LatencyModel(jitter=0.0), time_scale=0.01)
    try:
        src, sink = _Sink(), _Sink()
        if plan is not None:
            rt.transport.faults = FaultInjector(plan, rt.clock, seed=7)
        for i in range(40):
            rt.transport.send(sink, Message("note", i, sender=src, size=100))
        rt.drive(lambda: False, horizon=60.0)  # until nothing is scheduled
        return [m.payload for m in sink.got]
    finally:
        rt.close()


@pytest.mark.parametrize("kind", ["sim", "asyncio"])
def test_equal_size_messages_arrive_in_send_order(kind):
    assert _delivery_sequence(kind) == list(range(40))


def test_fault_plan_yields_the_same_delivery_sequence_on_sim_and_asyncio():
    def plan():
        return FaultPlan().duplicate(0.3).delay(0.3, extra=0.5)

    want = _delivery_sequence("sim", plan())
    assert len(want) > 40 and want != sorted(want)  # duplicated, reordered
    assert _delivery_sequence("asyncio", plan()) == want


# -------------------------------------------------------------------------
# fault-path aliasing regression
# -------------------------------------------------------------------------


class _DupInjector:
    """Minimal injector: always deliver two copies."""

    def plan_delivery(self, msg, dst):
        return [0.0, 0.0]


class _MutatingSink(Entity):
    """Receiver that mutates the payload it is handed (as the worker's
    insert path mutates entry contexts in place)."""

    name = "mut-sink"

    def __init__(self):
        self.seen = []

    def receive(self, msg):
        self.seen.append(list(msg.payload.keys))
        msg.payload.keys.clear()  # corrupt the delivered object


def test_duplicate_delivery_gets_defensive_copy():
    clock = SimClock()
    transport = Transport(clock)
    transport.faults = _DupInjector()
    sink = _MutatingSink()
    transport.send(sink, Message("rollup_sync", wire.RollupSync(1, -1, [1, 2, 3], sink)))
    clock.run()
    # the duplicate must see the original payload even though the first
    # delivery cleared the shared list
    assert sink.seen == [[1, 2, 3], [1, 2, 3]]


def test_clone_preserves_entity_identity():
    sink = _Sink()
    msg = Message("insert_batch", _payload("insert_batch", 3, sink))
    copy_ = msg.clone()
    assert copy_.payload.reply_to is sink  # reply-to handles pass by identity
    assert _same(copy_.payload, msg.payload)
    assert copy_.payload.c is not msg.payload.c  # rows are copied


# -------------------------------------------------------------------------
# backends: equivalence, chaos matrix, mp smoke
# -------------------------------------------------------------------------


def _workload_outcome(runtime):
    schema = make_schema()
    cluster = VOLAPCluster(
        schema,
        small_config(
            runtime, seed=9, heartbeat_period=0.0, checkpoint_period=0.0
        ),
    )
    cluster.bootstrap(random_batch(schema, 1200, seed=4), shards_per_worker=2)
    extra = random_batch(schema, 150, seed=5)
    sess = cluster.session(0, concurrency=4)
    sess.run_stream(_insert_ops(extra))
    cluster.run_until_clients_done(max_virtual=600.0)
    r = cluster.execute(full_query(schema))
    out = (
        cluster.total_items(),
        r.value.count,
        round(r.value.total, 6),
        cluster.stats.failures,
    )
    cluster.close()
    return out


def test_sim_asyncio_equivalence():
    """Same seed, same workload: identical acknowledged state and query
    answers on the discrete-event and wall-clock backends."""
    assert _workload_outcome("sim") == _workload_outcome("asyncio")


@pytest.mark.parametrize("fault", ["drop", "duplicate", "delay"])
def test_chaos_matrix_on_asyncio(fault):
    """Drop / duplicate / delay plans on the asyncio backend preserve
    exactly-once acknowledged inserts."""
    schema = make_schema()
    cluster = VOLAPCluster(
        schema,
        small_config(
            "asyncio",
            seed=3,
            retry=FAST_RETRY,
            heartbeat_period=0.0,
            checkpoint_period=0.0,
        ),
    )
    base = random_batch(schema, 800, seed=3)
    cluster.bootstrap(base, shards_per_worker=2)
    plan = FaultPlan()
    if fault == "drop":
        plan.drop(0.10, kinds=INSERT_KINDS)
    elif fault == "duplicate":
        plan.duplicate(0.15, kinds=INSERT_KINDS)
    else:
        plan.delay(0.25, extra=1.0, kinds=INSERT_KINDS)
    inj = cluster.inject_faults(plan, seed=7)
    extra = random_batch(schema, 120, seed=17)
    sess = cluster.session(0, concurrency=4)
    sess.run_stream(_insert_ops(extra))
    cluster.run_until_clients_done(max_virtual=900.0)
    acked = [r for r in cluster.stats.select(kind="insert") if r.ok]
    assert len(acked) + cluster.stats.failures == len(extra)
    if fault == "drop":
        assert inj.dropped > 0
    elif fault == "duplicate":
        assert inj.duplicated > 0
    else:
        assert inj.delayed > 0
    # exactly-once: the store grew by precisely the acked inserts
    assert cluster.total_items() == len(base) + len(acked)
    cluster.close()


def test_mp_backend_smoke_zero_pickle_data_plane():
    """End to end on forked workers: bootstrap + bulk load + query,
    with the codec spies proving no frame on the pipe, data or
    control, was ever pickled."""
    schema = make_schema()
    frames.reset_codec_stats()
    cluster = VOLAPCluster(
        schema,
        small_config("mp", seed=1, heartbeat_period=0.0, checkpoint_period=0.0),
    )
    try:
        base = random_batch(schema, 1500, seed=2)
        cluster.bootstrap(base, shards_per_worker=2)
        cluster.bulk_load(random_batch(schema, 1000, seed=6))
        cluster.barrier()
        assert cluster.total_items() == 2500
        r = cluster.execute(full_query(schema))
        assert r.value.count == 2500
    finally:
        cluster.close()
    stats = frames.codec_stats()
    assert stats["data_frames"] > 0
    assert stats["data_pickled"] == 0
    assert stats["control_pickled"] == 0


def test_mp_counts_bootstrapped_rows_before_any_barrier():
    """The proxies count the rows they install: the cluster's item
    count, its worker-size snapshot and ``/stats/workers`` are right
    straight after ``bootstrap``, as on the sim."""
    schema = make_schema()
    cluster = VOLAPCluster(
        schema,
        small_config("mp", seed=1, heartbeat_period=0.0, checkpoint_period=0.0),
    )
    try:
        cluster.bootstrap(random_batch(schema, 3000, seed=2), shards_per_worker=2)
        assert cluster.total_items() == 3000
        _t, sizes = cluster.stats.worker_sizes[-1]
        assert sum(sizes.values()) == 3000
        published = [cluster.zk.get(f"/stats/workers/{wid}") for wid in cluster.workers]
        assert sum(p["items"] for p in published) == 3000
        cluster.barrier()  # and the children agree
        assert cluster.total_items() == 3000
    finally:
        cluster.close()


def _one_query(token, box, shard, reply_to):
    """A one-entry ``query_batch`` for ``shard``, as a server builds it."""
    return wire.QueryBatch(
        i64([(token, 1, *box.lo, *box.hi)]), i64([shard]), reply_to
    )


def _recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        assert chunk, "the child hung up mid-frame"
        buf += chunk
    return bytes(buf)


def _read_frame(sock):
    head = _recv_exact(sock, mp_rt._LEN.size)
    return _recv_exact(sock, mp_rt._LEN.unpack(head)[0])


def test_mp_child_outlives_a_parent_that_does_not_read():
    """A reply must never time out in the child: with 150 replies unread
    (the pipe holds about 90) the child waits for the parent, alive, and
    every reply comes back, in order."""
    schema = make_schema()
    cfg = small_config("mp")
    parent_sock, child_sock = socket.socketpair()
    proc = multiprocessing.get_context("fork").Process(
        target=mp_rt._child_main,
        args=(
            child_sock, 0, schema, cfg.tree_config, WORKER_THREADS,
            cfg.cost, cfg.store_cls, cfg.time_scale,
        ),
        daemon=True,
    )
    proc.start()
    child_sock.close()
    parent_sock.settimeout(10.0)  # a deadlock of the test's own is a failure
    try:
        rows = random_batch(schema, 200, seed=1)
        install = wire.InstallShard(i64([1]), rows.coords, rows.measures)
        parent_sock.sendall(mp_rt._pack(frames.encode("install_shard", install)))
        sink, box = _Sink(), full_query(schema).box
        for token in range(150):
            blob = frames.encode(
                "query_batch", _one_query(token, box, 1, sink), route="worker-0"
            )
            parent_sock.sendall(mp_rt._pack(blob))
        time.sleep(0.5)
        assert proc.exitcode is None
        tokens = []
        while len(tokens) < 150:
            blob = _read_frame(parent_sock)
            kind, payload, route = frames.decode(blob, lambda name: sink)
            assert (kind, route) == ("query_result_batch", "sink")
            assert payload.x[0, 1] == 200  # the whole shard
            tokens.append(int(payload.x[0, 0]))
        assert tokens == list(range(150)) and proc.exitcode is None
        parent_sock.shutdown(socket.SHUT_WR)  # EOF is the shutdown
        proc.join(timeout=5.0)
        assert proc.exitcode == 0
        assert parent_sock.recv(1 << 16) == b""  # and not one frame more
    finally:
        parent_sock.close()
        if proc.is_alive():
            proc.terminate()
        proc.join()


def _mp_cluster(schema):
    cluster = VOLAPCluster(
        schema,
        small_config(
            "mp",
            seed=1,
            heartbeat_period=0.0,
            checkpoint_period=0.0,
            latency=LatencyModel(jitter=0.0),  # jitter reorders on any backend
        ),
    )
    cluster.bootstrap(random_batch(schema, 1500, seed=2), shards_per_worker=2)
    cluster.barrier()
    return cluster


def test_mp_replies_arrive_in_request_order_through_a_proxy():
    schema = make_schema()
    cluster = _mp_cluster(schema)
    try:
        proxy, sink = cluster.workers[0], _Sink()
        cluster.runtime.register(sink)
        shard, box = next(iter(proxy.shards)), full_query(schema).box
        for token in range(40):
            cluster.transport.send(
                proxy, Message("query_batch", _one_query(token, box, shard, sink))
            )
        cluster.runtime.drive(lambda: len(sink.got) >= 40)
        assert [int(m.payload.x[0, 0]) for m in sink.got] == list(range(40))
        assert proxy.inflight == 0
    finally:
        cluster.close()


class _Hopper(Entity):
    """Sends the next one-entry ``query_batch`` from the handler of the
    previous reply: one request at the child at a time."""

    name = "hopper"

    def __init__(self, rt, proxy, shard, box, hops):
        self.rt, self.proxy, self.shard, self.box = rt, proxy, shard, box
        self.hops, self.done = hops, []

    def receive(self, msg):
        if msg is not None:
            self.done.append(time.monotonic())
        if len(self.done) < self.hops:
            query = _one_query(len(self.done), self.box, self.shard, self)
            self.rt.transport.send(self.proxy, Message("query_batch", query))


def test_mp_reply_read_while_the_drive_loop_waits_wakes_it():
    """The drive loop's wait is a ``select`` on the worker pipes: a
    reply ends it when it arrives, not at the end of a wait sized by
    the heap's deadlines (ten hops: 10 x PRED_POLL = 0.5 s if it did)."""
    schema = make_schema()
    cfg = small_config("mp")
    rt = make_runtime("mp", latency=NO_LATENCY, time_scale=1.0)
    try:
        proxy = rt.spawn_worker(
            0, Zookeeper(rt.clock), schema, cfg.tree_config, WORKER_THREADS,
            cfg.cost, cfg.store_cls,
        )
        rows = random_batch(schema, 200, seed=1)
        proxy.install_shard(1, cfg.store_cls.from_batch(schema, rows, cfg.tree_config))
        rt.barrier()  # the child is up and holds the shard
        hopper = _Hopper(rt, proxy, 1, full_query(schema).box, hops=10)
        rt.register(hopper)
        rt.clock.after(30.0, lambda: None)  # all a wait sized by the heap knows of
        t0 = time.monotonic()
        hopper.receive(None)
        rt.drive(lambda: len(hopper.done) == 10, idle_break=False)
        assert time.monotonic() - t0 < 0.25
        assert proxy.inflight == 0
    finally:
        rt.close()


@pytest.mark.filterwarnings("error")
def test_mp_close_before_any_drive_exits_every_child_cleanly():
    """Bootstrap queues more install frames than a pipe holds (the
    children are stopped, so none is read); ``close`` without a drive in
    between still gets every child to EOF: each exits with code 0, and
    nothing is left open to warn about."""
    schema = make_schema()
    cluster = VOLAPCluster(
        schema,
        small_config("mp", seed=1, heartbeat_period=0.0, checkpoint_period=0.0),
    )
    pids = [p.pid for p in cluster.runtime._procs.values()]
    try:
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        cluster.bootstrap(random_batch(schema, 60000, seed=2), shards_per_worker=2)
        assert all(proxy.out for proxy in cluster.workers.values())  # still queued
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)
        cluster.close()
    assert [p.exitcode for p in cluster.runtime._procs.values()] == [0, 0]
    assert multiprocessing.active_children() == []


def test_mp_killed_worker_is_an_error_not_a_silence():
    """SIGKILL under a running closed-loop session: ``drive`` and
    ``barrier`` raise at once and say who died; ``close`` reaps it."""
    schema = make_schema()
    cluster = _mp_cluster(schema)
    try:
        cluster.session(0, concurrency=8).run_stream(
            _insert_ops(random_batch(schema, 4000, seed=5))
        )
        cluster.run_for(1.0)
        victim = cluster.runtime._procs[1]
        os.kill(victim.pid, signal.SIGKILL)
        died = r"worker-1 \(pid %d\) exited with code -9 and \d+ requests" % victim.pid
        for blocked in (
            lambda: cluster.run_until_clients_done(max_virtual=600.0),
            cluster.barrier,
        ):
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match=died):
                blocked()
            assert time.monotonic() - t0 < 2.0
    finally:
        cluster.close()
        cluster.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("path", ["sim", "asyncio", "mp-codec"])
def test_row_without_an_op_id_is_zero_everywhere(path):
    """"No op id" has one spelling, ``0``: in process on both clocks and
    after the mp codec has carried the row, a worker applies such a row
    every time it arrives (nothing to dedup on), remembers no token for
    it, and tees it to the replication stream with op id 0."""
    schema = make_schema()
    rt = make_runtime("sim" if path == "mp-codec" else path, time_scale=0.01)
    try:
        worker = Worker(0, rt.clock, rt.transport, Zookeeper(rt.clock), schema)
        sink = _Sink()
        for entity in (worker, sink):
            rt.register(entity)
        base = random_batch(schema, 50, seed=1)
        worker.install_shard(1, HilbertPDCTree.from_batch(schema, base, worker.tree_config))
        worker.replication.stream(1, 0).subscribe(9, sink)
        row = wire.InsertBatch(i64([(1, 77, 0)]), base.coords[:1], f64([2.0]), sink)
        if path == "mp-codec":
            _kind, row, _route = frames.decode(
                frames.encode("insert_batch", row, route=worker.name),
                lambda name: sink,
            )
            assert row.x[0, 2] == 0
        for _ in range(2):
            rt.transport.send(worker, Message("insert_batch", row))

        def teed():
            # the sink never acks the stream, so batches may be
            # retransmitted: key them by seq
            return {
                int(m.payload.m[2]): m.payload.o.tolist()
                for m in sink.got
                if m.kind == "replica_batch"
            }

        def acks():
            return [m.payload.a.tolist() for m in sink.got if m.kind == "insert_batch_ack"]

        rt.drive(lambda: len(acks()) >= 2 and len(teed()) >= 2, horizon=60.0)
        assert len(worker.shards[1]) == len(base) + 2  # applied twice, no dedup
        assert worker.seen_ops == set() and worker.dedup_hits == 0
        assert teed() == {1: [0], 2: [0]}
        assert acks() == [[77], [77]]
    finally:
        rt.close()


def test_make_runtime_rejects_unknown_backend():
    with pytest.raises(ValueError):
        make_runtime("threads")
