"""Runtime seam tests: frame codec, timers, fault aliasing, backends.

Covers the PR 9 surface: the column-frame wire codec and its exact
sizing, timer ordering/cancellation on both clock implementations, the
defensive-copy fix for fault-duplicated deliveries, sim-vs-asyncio
outcome equivalence, the chaos matrix on the asyncio backend, and an
mp smoke test asserting the zero-pickling data plane.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    FaultPlan,
    RetryPolicy,
    VOLAPCluster,
)
from repro.cluster.simclock import SimClock
from repro.cluster.transport import Entity, Message, Transport
from repro.core import TreeConfig
from repro.olap.query import full_query
from repro.olap.records import RecordBatch
from repro.runtime import frames, make_runtime
from repro.runtime.asyncio_rt import WallClock
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch

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


def small_config(runtime, **kw):
    kw.setdefault("num_workers", 2)
    kw.setdefault("num_servers", 1)
    kw.setdefault("tree_config", TreeConfig(leaf_capacity=32, fanout=8))
    kw.setdefault("time_scale", 0.01)
    return ClusterConfig(runtime=runtime, **kw)


# -------------------------------------------------------------------------
# frame codec
# -------------------------------------------------------------------------


def _data_payload(kind, n, sink):
    """A payload of ``n`` entries for one of ``frames.DATA_KINDS``, in
    exactly the Python shape the entities send and receive."""
    rng = np.random.default_rng(n)
    coords = rng.integers(0, 1 << 20, size=(n, 3)).astype(np.int64)
    values = rng.random(n)
    token = (1 << 32) | 7  # server 1's token space: needs all 64 bits
    if kind == "insert_batch":
        return (
            [
                (i % 5, coords[i], float(values[i]), token + i, (3 << 24) | i, None)
                for i in range(n)
            ],
            sink,
        )
    if kind == "bulk_insert":
        return (7, RecordBatch(coords, values), (0xBBB << 32) | n, sink)
    if kind == "query_batch":
        # ragged shard lists, the empty one included
        return (
            [
                (
                    token + i,
                    list(range(i % 3)),
                    (tuple(coords[i].tolist()), tuple((coords[i] + i).tolist())),
                    None,
                )
                for i in range(n)
            ],
            sink,
        )
    if kind == "insert_batch_ack":
        return (
            [token + i for i in range(n)],
            2,
            [(token + n + i, i % 5) for i in range(n // 2)],
        )
    if kind == "bulk_ack":
        return ((0xBBB << 32) | n, 1)
    if kind == "query_result_batch":
        return (
            [
                (token + i, (i, float(values[i]), -1.5, float("inf")), i % 4, i % 2)
                for i in range(n)
            ],
            1,
        )
    raise AssertionError(f"no sample payload for data kind {kind!r}")


def _same(a, b):
    """Structural equality that also compares arrays and batches."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, RecordBatch):
        return _same(a.coords, b.coords) and _same(a.measures, b.measures)
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


class TestFrames:
    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("kind", sorted(frames.DATA_KINDS))
    def test_round_trip_is_exact_and_sized(self, kind, n):
        sink = _Sink()
        route = "worker-0" if kind in frames.REQUEST_KINDS else "server-0"
        payload = _data_payload(kind, n, sink)
        blob = frames.encode(kind, payload, route=route)
        assert frames.wire_size(kind, payload, route) == len(blob)
        got_kind, got, got_route = frames.decode(blob, lambda name: sink)
        assert (got_kind, got_route) == (kind, route)
        assert _same(got, payload)

    def test_data_kinds_are_the_batch_family(self):
        assert frames.DATA_KINDS == {
            "insert_batch", "bulk_insert", "query_batch",
            "insert_batch_ack", "bulk_ack", "query_result_batch",
        }

    def test_non_data_kind_raises_and_trips_spy(self):
        before = frames.codec_stats()["data_pickled"]
        with pytest.raises(ValueError):
            frames.encode("split_shard", (1, 2, 3))
        assert frames.codec_stats()["data_pickled"] == before + 1

    def test_wire_size_exact_for_control_kinds(self):
        # non-codable kinds still get a real serialized length, not 128
        sink = _Sink()
        n = frames.wire_size("restore_shard", (3, b"x" * 1000, sink))
        assert n > 1000


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
        self.seen.append(list(msg.payload))
        msg.payload.clear()  # corrupt the delivered object


def test_duplicate_delivery_gets_defensive_copy():
    clock = SimClock()
    transport = Transport(clock)
    transport.faults = _DupInjector()
    sink = _MutatingSink()
    transport.send(sink, Message("restore_shard", [1, 2, 3]))
    clock.run()
    # the duplicate must see the original payload even though the first
    # delivery cleared the shared list
    assert sink.seen == [[1, 2, 3], [1, 2, 3]]


def test_clone_preserves_entity_identity():
    sink = _Sink()
    msg = Message("bulk_ack", (1, [2, 3], sink))
    copy_ = msg.clone()
    assert copy_.payload[2] is sink  # reply-to handles pass by identity
    assert copy_.payload is not msg.payload


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
    sess.run_stream(
        [
            Operation(
                "insert", coords=extra.coords[i], measure=float(extra.measures[i])
            )
            for i in range(len(extra))
        ]
    )
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
    sess.run_stream(
        [
            Operation(
                "insert", coords=extra.coords[i], measure=float(extra.measures[i])
            )
            for i in range(len(extra))
        ]
    )
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
    with the codec spy proving no data-plane row was ever pickled."""
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
        stats = cluster.runtime.codec_stats()
        assert stats["data_frames"] > 0
        assert stats["data_pickled"] == 0
    finally:
        cluster.close()


def test_make_runtime_rejects_unknown_backend():
    with pytest.raises(ValueError):
        make_runtime("threads")
