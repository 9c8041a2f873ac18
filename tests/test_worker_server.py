"""Unit tests for Worker and Server entities in isolation."""

import numpy as np
import pytest

from repro.cluster.client import query_batch
from repro.cluster.cost import CostModel
from repro.cluster.image import ShardInfo
from repro.cluster.server import Server
from repro.cluster.simclock import SimClock
from repro.cluster.transport import Entity, LatencyModel, Message, Transport
from repro.cluster.wire import (
    ClientInsertBatch,
    InsertBatch,
    MigrateShard,
    QueryBatch,
    QueueTransfer,
    SplitShard,
    f64,
    i64,
)
from repro.cluster.worker import OpIds, Worker
from repro.cluster.zookeeper import Zookeeper
from repro.core import ArrayStore, HilbertPDCTree, TreeConfig
from repro.olap.keys import Box
from repro.olap.query import full_query
from repro.olap.records import concat_batches

from .conftest import random_batch, random_boxes


def sorted_rows(batch):
    """A record batch as a sorted list of (coords..., measure) rows."""
    return sorted(
        (*c, m) for c, m in zip(batch.coords.tolist(), batch.measures.tolist())
    )


class Sink(Entity):
    name = "sink"

    def __init__(self):
        self.received = []

    def receive(self, msg):
        self.received.append(msg)


def one_insert(shard_id, coords, measure, token, op_id, sink):
    """A single insert as the wire carries it: a batch of one."""
    return Message(
        "insert_batch",
        InsertBatch(i64([(shard_id, token, op_id)]), coords[None, :], f64([measure]), sink),
    )


def one_query(token, shard_ids, box, sink):
    x = i64([(token, len(shard_ids), *box.lo, *box.hi)])
    return Message("query_batch", QueryBatch(x, i64(shard_ids), sink))


def one_client_insert(op_id, coords, measure, sink):
    return Message(
        "client_insert_batch",
        ClientInsertBatch(i64([op_id]), coords[None, :], f64([measure]), sink),
    )


def one_result(msg):
    """(token, count, searched, missing) of a one-entry query_result_batch."""
    [(token, count, searched, missing, _wid)] = msg.payload.x.tolist()
    return token, count, searched, missing


def ack_lists(msg):
    """An insert_batch_ack as (acked tokens, worker id, nacked pairs)."""
    p = msg.payload
    return p.a.tolist(), p.m.tolist(), p.n.tolist()


@pytest.fixture
def rig(schema):
    clock = SimClock()
    transport = Transport(clock, LatencyModel(jitter=0.0))
    zk = Zookeeper(clock)
    return clock, transport, zk


def make_worker(rig, schema, wid=0):
    clock, transport, zk = rig
    return Worker(
        wid,
        clock,
        transport,
        zk,
        schema,
        tree_config=TreeConfig(leaf_capacity=16, fanout=8),
    )


def install(worker, schema, batch, shard_id=1):
    store = HilbertPDCTree.from_batch(schema, batch, worker.tree_config)
    worker.install_shard(shard_id, store)
    return store


class TestWorkerInsert:
    def test_insert_then_ack(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        sink = Sink()
        coords = batch.coords[0]
        w.receive(one_insert(1, coords, 2.0, 99, 99, sink))
        clock.run()
        assert w.total_items() == len(batch) + 1
        assert sink.received[0].kind == "insert_batch_ack"
        assert ack_lists(sink.received[0]) == ([99], [0], [])

    def test_unknown_shard_nacks(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        sink = Sink()
        w.receive(one_insert(42, batch.coords[0], 1.0, 5, 5, sink))
        clock.run()
        assert sink.received[0].kind == "insert_batch_ack"
        assert ack_lists(sink.received[0]) == ([], [0], [[5, 42]])

    def test_frozen_shard_queues(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        w.frozen.add(1)
        w.queues[1] = HilbertPDCTree(schema, w.tree_config)
        sink = Sink()
        w.receive(one_insert(1, batch.coords[0], 1.0, 5, 5, sink))
        clock.run()
        assert len(w.queues[1]) == 1
        assert len(w.shards[1]) == len(batch)  # shard untouched


class TestWorkerQuery:
    def test_query_full(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        sink = Sink()
        box = full_query(schema).box
        w.receive(one_query(7, [1], box, sink))
        clock.run()
        msg = sink.received[0]
        assert msg.kind == "query_result_batch"
        token, count, searched, missing = one_result(msg)
        assert token == 7
        assert count == len(batch)
        assert searched == 1
        assert missing == 0

    def test_query_includes_queue(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        w.frozen.add(1)
        w.queues[1] = HilbertPDCTree(schema, w.tree_config)
        w.queues[1].insert(batch.coords[0], 5.0)
        sink = Sink()
        box = full_query(schema).box
        w.receive(one_query(7, [1], box, sink))
        clock.run()
        _token, count, _searched, _missing = one_result(sink.received[0])
        assert count == len(batch) + 1

    def test_query_through_mapping(self, rig, schema, batch):
        """Queries addressed to a split parent reach both children."""
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        store = install(w, schema, batch)
        plane = store.split_query()
        low, high = store.split(plane)
        w.shards[10] = low
        w.shards[11] = high
        del w.shards[1]
        w.mapping[1] = (plane, 10, 11)
        sink = Sink()
        box = full_query(schema).box
        w.receive(one_query(3, [1], box, sink))
        clock.run()
        _token, count, searched, _missing = one_result(sink.received[0])
        assert count == len(batch)
        assert searched == 2


class TestWorkerSplit:
    def test_split_shard_lifecycle(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        sink = Sink()
        w.receive(Message("split_shard", SplitShard(1, 100, 101, sink)))
        clock.run()
        assert sink.received[0].kind == "split_done"
        assert 100 in w.shards and 101 in w.shards and 1 not in w.shards
        assert 1 in w.mapping
        assert len(w.shards[100]) + len(w.shards[101]) == len(batch)
        # zookeeper published the new shards and dropped the old one
        assert zk.get("/shards/100") is not None
        assert zk.get("/shards/101") is not None
        assert not zk.exists("/shards/1")

    def test_split_missing_shard_fails(self, rig, schema):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        sink = Sink()
        w.receive(Message("split_shard", SplitShard(9, 100, 101, sink)))
        clock.run()
        assert sink.received[0].kind == "split_failed"

    def test_insert_resolution_after_split(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        sink = Sink()
        w.receive(Message("split_shard", SplitShard(1, 100, 101, sink)))
        clock.run()
        plane, low, high = w.mapping[1]
        coords = batch.coords[0]
        expected = low if coords[plane.dim] <= plane.value else high
        before = len(w.shards[expected])
        w.receive(one_insert(1, coords, 1.0, 5, 5, sink))
        clock.run()
        assert len(w.shards[expected]) == before + 1

    def test_queue_drains_row_exact_into_both_children(self, rig, schema, batch):
        """Rows queued on both sides of the plane while the split runs
        reach exactly the child of their side."""
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        store = install(w, schema, batch)
        plane = store.split_query()  # what the split will choose
        sink = Sink()
        w.receive(Message("split_shard", SplitShard(1, 100, 101, sink)))
        queued = random_batch(schema, 200, seed=7)
        low_side = plane.side_mask(queued.coords)
        assert 0 < low_side.sum() < len(queued)
        x = i64([(1, 1000 + i, 1000 + i) for i in range(len(queued))])
        w.receive(Message("insert_batch", InsertBatch(x, queued.coords, queued.measures, sink)))
        assert len(w.queues[1]) == len(queued)
        clock.run()
        assert 1 not in w.queues
        both = concat_batches([batch, queued], schema.num_dims)
        mask = plane.side_mask(both.coords)
        for child, side in ((w.shards[100], mask), (w.shards[101], ~mask)):
            child.validate()
            oracle = ArrayStore.from_batch(schema, both.take(np.flatnonzero(side)))
            assert sorted_rows(child.items()) == sorted_rows(oracle.items())
            for box in random_boxes(schema, 8, seed=3):
                got, _ = child.query(box)
                want, _ = oracle.query(box)
                assert (got.count, got.vmin, got.vmax) == (want.count, want.vmin, want.vmax)
                assert got.total == pytest.approx(want.total)


class TestWorkerMigration:
    def test_migration_moves_shard(self, rig, schema, batch):
        clock, transport, zk = rig
        src = make_worker(rig, schema, wid=0)
        dst = make_worker(rig, schema, wid=1)
        install(src, schema, batch)
        sink = Sink()
        src.receive(Message("migrate_shard", MigrateShard(1, dst, sink)))
        clock.run()
        assert sink.received[-1].kind == "migrate_done"
        assert 1 not in src.shards
        assert len(dst.shards[1]) == len(batch)
        # zookeeper reflects the new owner
        assert zk.get("/shards/1")[2] == 1

    def test_queued_inserts_follow_migration(self, rig, schema, batch):
        clock, transport, zk = rig
        src = make_worker(rig, schema, wid=0)
        dst = make_worker(rig, schema, wid=1)
        install(src, schema, batch)
        sink = Sink()
        src.receive(Message("migrate_shard", MigrateShard(1, dst, sink)))
        # while frozen, an insert arrives at the source
        src.receive(one_insert(1, batch.coords[0], 9.0, 4, 4, sink))
        clock.run()
        assert len(dst.shards[1]) == len(batch) + 1

    def test_handed_off_queue_is_teed_at_the_destination(self, rig, schema, batch):
        """Rows absorbed from a hand-off queue were acknowledged off the
        replication stream (the source shard was frozen): a destination
        that already feeds stream peers tees them as one batch, op id 0."""
        from repro.cluster.wire import batch_to_wire

        clock, transport, zk = rig
        dst = make_worker(rig, schema, wid=1)
        install(dst, schema, batch.slice(0, 100))
        peer = Sink()
        dst.replication.stream(1, 0).subscribe(9, peer)
        queue = batch.slice(100, 107)
        dst.receive(Message("queue_transfer", QueueTransfer(1, batch_to_wire(queue))))
        clock.run_until(0.05)
        assert len(dst.shards[1]) == 107
        [teed] = [m.payload for m in peer.received if m.kind == "replica_batch"]
        assert teed.o.tolist() == [0] * 7
        assert sorted(teed.v.tolist()) == sorted(queue.measures.tolist())

    def test_migrate_missing_shard_fails(self, rig, schema):
        clock, transport, zk = rig
        src = make_worker(rig, schema, wid=0)
        dst = make_worker(rig, schema, wid=1)
        sink = Sink()
        src.receive(Message("migrate_shard", MigrateShard(7, dst, sink)))
        clock.run()
        assert sink.received[0].kind == "migrate_failed"


class TestServer:
    def make_server(self, rig, schema, workers):
        clock, transport, zk = rig
        return Server(
            0, clock, transport, zk, schema, workers, sync_period=1.0
        )

    def test_insert_roundtrip(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        server = self.make_server(rig, schema, {0: w})
        server.load_image()
        sink = Sink()
        server.receive(one_client_insert(1, batch.coords[0], 1.0, sink))
        clock.run_until(1.0 - 1e-9)  # avoid periodic sync tail
        assert sink.received[0].kind == "insert_done_batch"
        assert sink.received[0].payload.o.tolist() == [1]
        assert w.total_items() == len(batch) + 1

    def test_out_of_space_row_fails_and_is_not_routed(self, rig, schema, batch):
        """A client batch whose middle row lies outside the schema's id
        space: that row is answered ``insert_failed``, reaches no
        shard and grows no key; its neighbours go in as usual."""
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        server = self.make_server(rig, schema, {0: w})
        server.load_image()
        coords = batch.coords[:3].copy()
        coords[1, 0] = schema.leaf_limits[0] + 1
        sink = Sink()
        server.receive(
            Message(
                "client_insert_batch",
                ClientInsertBatch(i64([1, 2, 3]), coords, f64([1.0, 2.0, 3.0]), sink),
            )
        )
        clock.run_until(1.0 - 1e-9)
        kinds = {m.kind: m for m in sink.received}
        assert set(kinds) == {"insert_failed", "insert_done_batch"}
        assert kinds["insert_failed"].payload.op_id == 2
        assert kinds["insert_done_batch"].payload.o.tolist() == [1, 3]
        assert server.insert_failures == 1 and server.inserts_routed == 2
        assert w.total_items() == len(batch) + 2
        assert not server.image.search(Box(coords[1], coords[1]))

    def test_query_roundtrip(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        server = self.make_server(rig, schema, {0: w})
        server.load_image()
        sink = Sink()
        server.receive(
            Message("client_query_batch", query_batch([1], [full_query(schema)], sink))
        )
        clock.run_until(0.9)
        msg = sink.received[0]
        assert msg.kind == "query_done"
        assert msg.payload.agg.count == len(batch)
        assert msg.payload.searched >= 1

    def test_dirty_boxes_synced(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        server = self.make_server(rig, schema, {0: w})
        server.load_image()
        # force an expansion: a point outside the current shard box
        outside = schema.leaf_limits.copy()
        sink = Sink()
        server.receive(one_client_insert(2, outside, 1.0, sink))
        clock.run_until(0.5)
        assert server.image.dirty
        clock.run_until(1.5)  # past the sync tick
        assert not server.image.dirty
        assert zk.get("/boxes/1") is not None

    def test_box_event_expands_other_server(self, rig, schema, batch):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        install(w, schema, batch)
        s0 = self.make_server(rig, schema, {0: w})
        clock2_servers_share = Server(
            1, clock, transport, zk, schema, {0: w}, sync_period=1.0
        )
        s0.load_image()
        clock2_servers_share.load_image()
        from repro.cluster.wire import key_to_wire

        big = Box(np.zeros(schema.num_dims, dtype=np.int64), schema.leaf_limits)
        zk.set("/boxes/1", key_to_wire(big))
        clock.run_until(0.5)
        info = clock2_servers_share.image.get(1)
        assert info.box.covers_point(schema.leaf_limits)

    def test_shard_event_adds_and_removes(self, rig, schema):
        clock, transport, zk = rig
        w = make_worker(rig, schema)
        server = self.make_server(rig, schema, {0: w})
        info = ShardInfo(
            5, Box(np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.int64)), 0
        )
        zk.set("/shards/5", info.to_wire())
        clock.run_until(0.5)
        assert 5 in server.image
        zk.delete("/shards/5")
        clock.run_until(0.9)
        assert 5 not in server.image


class TestCostModel:
    def test_monotone_in_work(self):
        from repro.core.config import OpStats

        cost = CostModel()
        small = OpStats(nodes_visited=1)
        big = OpStats(nodes_visited=100, items_scanned=1000)
        assert cost.insert_batch_time(1, big) > cost.insert_batch_time(1, small)
        assert cost.query_batch_time(1, big) > cost.query_batch_time(1, small)

    def test_bulk_cheaper_per_item(self):
        cost = CostModel()
        per_item_bulk = cost.bulk_time(1000) / 1000
        from repro.core.config import OpStats

        per_item_point = cost.insert_batch_time(1, OpStats(nodes_visited=4))
        assert per_item_bulk < per_item_point / 5

    def test_all_times_positive(self):
        cost = CostModel()
        assert cost.split_time(100) > 0
        assert cost.serialize_time(100) > 0
        assert cost.deserialize_time(100) > 0
        assert cost.route_time(10) > 0
        assert cost.merge_time(0) > 0


def test_seen_op_ids_are_a_set_at_a_bit_each():
    """``Worker.seen_ops`` answers ``in`` like a set of the ids it was
    given -- client op ids, bulk tokens, sparse ids -- and holds a
    client's dense run of ids in a few bytes apiece."""
    import sys

    rng = np.random.default_rng(3)
    given = (
        [(5 << 24) | s for s in range(1, 2000)]
        + [(0xBBB << 32) | t for t in range(1, 50)]
        + rng.integers(1, 2**62, 200).tolist()
    )
    seen, want = OpIds(), set()
    assert not seen
    for chunk in np.array_split(np.array(given), 7):
        seen.update(chunk.tolist())
        want.update(chunk.tolist())
    probes = given + rng.integers(1, 2**62, 2000).tolist()
    probes += [(5 << 24) | s for s in range(1990, 2100)] + [0]
    assert [p in seen for p in probes] == [p in want for p in probes]
    dense = OpIds()
    dense.update((9 << 24) | s for s in range(100_000))
    held = sys.getsizeof(dense._words) + sum(
        sys.getsizeof(k) + sys.getsizeof(v) for k, v in dense._words.items()
    )
    assert held < 4 * 100_000  # a set of these ints holds ~100 B each
    seen.clear()
    assert not seen and given[0] not in seen
