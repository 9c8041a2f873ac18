"""Tests for the load-balancing shard operations (paper Section III-E):
SplitQuery, Split, SerializeShard / DeserializeShard, on every store."""

import numpy as np
import pytest

from repro.core import (
    ArrayStore,
    HilbertPDCTree,
    HilbertRTree,
    PDCTree,
    RTree,
)
from repro.cluster.wire import ClientInsertBatch, MigrateShard, f64, i64
from repro.core.base import Hyperplane
from repro.olap.query import full_query
from repro.olap.records import RecordBatch, concat_batches

from .conftest import random_batch

ALL_STORES = [ArrayStore, HilbertPDCTree, PDCTree, RTree, HilbertRTree]


@pytest.mark.parametrize("cls", ALL_STORES)
class TestSplitQuery:
    def test_split_query_balances(self, cls, schema):
        batch = random_batch(schema, 800, seed=1)
        store = cls.from_batch(schema, batch)
        plane = store.split_query()
        mask = plane.side_mask(batch.coords)
        low = int(mask.sum())
        # approximately equal halves (paper: "approximately equal size")
        assert 0.25 * len(batch) <= low <= 0.75 * len(batch)

    def test_split_partitions_data(self, cls, schema):
        batch = random_batch(schema, 500, seed=2)
        store = cls.from_batch(schema, batch)
        plane = store.split_query()
        a, b = store.split(plane)
        assert len(a) + len(b) == len(batch)
        assert len(a) > 0 and len(b) > 0
        # the two sides are spatially separated by the hyperplane
        assert (a.items().coords[:, plane.dim] <= plane.value).all()
        assert (b.items().coords[:, plane.dim] > plane.value).all()

    def test_split_preserves_aggregates(self, cls, schema):
        batch = random_batch(schema, 400, seed=3)
        store = cls.from_batch(schema, batch)
        a, b = store.split(store.split_query())
        box = full_query(schema).box
        agg_a, _ = a.query(box)
        agg_b, _ = b.query(box)
        assert agg_a.count + agg_b.count == 400
        assert agg_a.total + agg_b.total == pytest.approx(
            float(batch.measures.sum())
        )

    def test_serialize_roundtrip(self, cls, schema):
        batch = random_batch(schema, 300, seed=4)
        store = cls.from_batch(schema, batch)
        blob = store.serialize()
        assert isinstance(blob, bytes)
        restored = cls.deserialize(schema, blob, store.config)
        assert len(restored) == 300
        box = full_query(schema).box
        agg, _ = restored.query(box)
        assert agg.count == 300
        assert agg.total == pytest.approx(float(batch.measures.sum()))

    def test_split_tiny_shard_rejected(self, cls, schema):
        store = cls.from_batch(
            schema, RecordBatch(np.zeros((1, 3), dtype=np.int64), np.ones(1))
        )
        with pytest.raises(ValueError):
            store.split_query()


def test_split_query_single_point_cloud_rejected(schema):
    """All-identical items cannot be separated by any hyperplane."""
    coords = np.tile(schema.leaf_limits // 3, (50, 1))
    store = ArrayStore.from_batch(schema, RecordBatch(coords, np.ones(50)))
    with pytest.raises(ValueError):
        store.split_query()


def test_split_query_skewed_distribution(schema):
    """Median split works when one value dominates a dimension."""
    rng = np.random.default_rng(5)
    coords = rng.integers(0, schema.leaf_limits + 1, size=(200, 3), dtype=np.int64)
    coords[:150, 0] = 7  # heavy repetition in dim 0
    store = ArrayStore.from_batch(schema, RecordBatch(coords, np.ones(200)))
    plane = store.split_query()
    mask = plane.side_mask(coords)
    assert 0 < int(mask.sum()) < 200


def test_array_store_grows_by_quarters_and_keeps_its_rows(schema):
    """Appends grow the buffers in place, a quarter at a time: the rows
    survive every move, and the store never allocates the doubled
    buffer that would put ``resident_bytes()`` far above the rows held."""
    rng = np.random.default_rng(9)
    store = ArrayStore(schema)
    parts = []
    for step in range(60):
        n = int(rng.integers(1, 900))
        coords = rng.integers(
            0, schema.leaf_limits + 1, size=(n, 3), dtype=np.int64
        )
        batch = RecordBatch(coords, rng.random(n))
        parts.append(batch)
        if step % 7 == 0:
            for row, m in batch.iter_rows():
                store.insert(row, m)
        else:
            store.insert_batch(batch)
        row_bytes = 3 * 8 + 8
        assert store.resident_bytes() <= (1.25 * len(store) + 1024) * row_bytes
    want = concat_batches(parts, 3)
    got = store.items()
    assert np.array_equal(got.coords, want.coords)
    assert np.array_equal(got.measures, want.measures)


class TestHyperplane:
    def test_roundtrip(self):
        h = Hyperplane(2, 17)
        assert Hyperplane.from_tuple(h.to_tuple()) == h

    def test_side_mask(self):
        h = Hyperplane(0, 5)
        coords = np.array([[5, 0], [6, 0]])
        assert h.side_mask(coords).tolist() == [True, False]


class TestStaleRouteInsert:
    """Inserts racing a migration: routed to the old owner they either
    ride the frozen-shard queue or get nacked, trigger an image refresh
    and a retry -- never lost, never double-counted."""

    def make_rig(self, schema, batch):
        from repro.cluster.server import Server
        from repro.cluster.simclock import SimClock
        from repro.cluster.transport import Entity, LatencyModel, Message, Transport
        from repro.cluster.worker import Worker
        from repro.cluster.zookeeper import Zookeeper
        from repro.core import TreeConfig

        clock = SimClock()
        transport = Transport(clock, LatencyModel(jitter=0.0))
        zk = Zookeeper(clock)
        cfg = TreeConfig(leaf_capacity=16, fanout=8)
        workers = {
            wid: Worker(wid, clock, transport, zk, schema, tree_config=cfg)
            for wid in (0, 1)
        }
        store = HilbertPDCTree.from_batch(schema, batch, cfg)
        workers[0].install_shard(1, store)
        server = Server(0, clock, transport, zk, schema, workers, sync_period=1.0)
        server.load_image()
        return clock, transport, zk, workers, server

    def run_inserts(self, clock, server, coords, n):
        from repro.cluster.transport import Entity, Message

        class Sink(Entity):
            name = "sink"

            def __init__(self):
                self.received = []

            def receive(self, msg):
                self.received.append(msg)

        sink = Sink()
        for i in range(n):
            server.receive(
                Message(
                    "client_insert_batch",
                    ClientInsertBatch(i64([100 + i]), coords[None, :], f64([1.0]), sink),
                )
            )
        clock.run_until(20.0)
        return sink.received

    @staticmethod
    def done_ops(received):
        return [
            op_id
            for m in received
            if m.kind == "insert_done_batch"
            for op_id in m.payload.o.tolist()
        ]

    def total(self, workers):
        return sum(w.total_items() for w in workers.values())

    def test_insert_during_inflight_migration(self, schema):
        """An insert arriving while the shard is frozen for migration is
        queued at the source and carried over exactly once."""
        from repro.cluster.transport import Message

        batch = random_batch(schema, 300, seed=6)
        clock, transport, zk, workers, server = self.make_rig(schema, batch)

        class Quiet:
            name = "quiet"

            def receive(self, msg):
                pass

        # freeze shard 1 for migration, then insert before it completes
        workers[0].receive(Message("migrate_shard", MigrateShard(1, workers[1], Quiet())))
        got = self.run_inserts(clock, server, batch.coords[0], 3)
        assert sorted(self.done_ops(got)) == [100, 101, 102]
        assert 1 in workers[1].shards and 1 not in workers[0].shards
        assert self.total(workers) == len(batch) + 3

    def test_stale_image_nack_refresh_retry(self, schema):
        """The server's image still points at the old owner after a
        migration: the insert nacks, the server refreshes its image from
        Zookeeper and retries against the new owner -- exactly once."""
        batch = random_batch(schema, 300, seed=7)
        clock, transport, zk, workers, server = self.make_rig(schema, batch)
        # migrate shard 1 off worker 0 entirely (zk now names worker 1)
        from repro.cluster.transport import Message

        class Quiet:
            name = "quiet"

            def receive(self, msg):
                pass

        workers[0].receive(Message("migrate_shard", MigrateShard(1, workers[1], Quiet())))
        clock.run_until(5.0)
        assert zk.get("/shards/1")[2] == 1
        # poison the server's local image back to the stale owner
        server.image.update_worker(1, 0)
        got = self.run_inserts(clock, server, batch.coords[0], 2)
        assert sorted(self.done_ops(got)) == [100, 101]
        assert server.insert_retries >= 2  # the nack path actually fired
        assert len(workers[1].shards[1]) == len(batch) + 2
        assert self.total(workers) == len(batch) + 2

    def test_all_nacked_batch_refreshes_image_once(self, schema):
        """A stale-routed 64-row batch comes back as one ack carrying 64
        nacks: the server re-reads the system image once for that
        message (not once per row), and every row still lands exactly
        once after re-routing."""
        from repro.cluster.transport import Entity, Message

        batch = random_batch(schema, 300, seed=8)
        clock, transport, zk, workers, server = self.make_rig(schema, batch)

        class Quiet(Entity):
            name = "quiet"

            def receive(self, msg):
                pass

        workers[0].receive(Message("migrate_shard", MigrateShard(1, workers[1], Quiet())))
        clock.run_until(5.0)
        server.image.update_worker(1, 0)  # stale: zk names worker 1

        refreshes = []
        load_image = server.load_image
        server.load_image = lambda: (refreshes.append(clock.now), load_image())
        per_ack = []  # (nacks carried, image refreshes inside the handler)
        on_ack = server._on_insert_batch_ack

        def counting_ack(msg):
            before = len(refreshes)
            on_ack(msg)
            per_ack.append((len(msg.payload.n), len(refreshes) - before))

        server._on_insert_batch_ack = counting_ack

        class Sink(Entity):
            name = "sink"

            def __init__(self):
                self.received = []

            def receive(self, msg):
                self.received.append(msg)

        sink = Sink()
        extra = random_batch(schema, 64, seed=9)
        rows = ClientInsertBatch(
            i64([500 + i for i in range(len(extra))]),
            extra.coords,
            f64([1.0] * len(extra)),
            sink,
        )
        server.receive(Message("client_insert_batch", rows))
        clock.run_until(25.0)

        assert per_ack[0] == (64, 1)
        assert all(n_refresh == (1 if nacks else 0) for nacks, n_refresh in per_ack)
        assert sorted(self.done_ops(sink.received)) == [500 + i for i in range(64)]
        assert server.insert_failures == 0
        assert len(workers[1].shards[1]) == len(batch) + 64
        assert self.total(workers) == len(batch) + 64
