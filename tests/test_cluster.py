"""Integration tests for the full simulated VOLAP cluster."""

import numpy as np
import pytest

from repro.cluster import BalancerPolicy, ClusterConfig, VOLAPCluster
from repro.cluster.transport import Entity, Message
from repro.cluster.wire import BulkInsert, i64
from repro.core import TreeConfig
from repro.olap.query import full_query
from repro.olap.records import concat_batches
from repro.workloads import (
    QueryGenerator,
    StreamGenerator,
    TPCDSGenerator,
    tpcds_schema,
)
from repro.workloads.streams import Operation

from .test_worker_server import sorted_rows


class Collector(Entity):
    name = "collector"

    def __init__(self):
        self.received = []

    def receive(self, msg):
        self.received.append(msg)


@pytest.fixture(scope="module")
def schema():
    return tpcds_schema()


def small_cluster(schema, n_items=6000, workers=3, servers=2, seed=1, **cfg_kw):
    gen = TPCDSGenerator(schema, seed=seed)
    batch = gen.batch(n_items)
    cfg = ClusterConfig(
        num_workers=workers,
        num_servers=servers,
        tree_config=TreeConfig(leaf_capacity=32, fanout=8),
        **cfg_kw,
    )
    cluster = VOLAPCluster(schema, cfg)
    cluster.bootstrap(batch, shards_per_worker=2)
    return cluster, gen, batch


def run_full_query(cluster, schema, server_index=0):
    sess = cluster.session(server_index, concurrency=1)
    out = []
    sess.on_complete = out.append
    sess.run_stream([Operation("query", query=full_query(schema))])
    cluster.run_until_clients_done()
    return out[-1]


class TestBootstrap:
    def test_items_distributed(self, schema):
        cluster, _, batch = small_cluster(schema)
        assert cluster.total_items() == len(batch)
        sizes = cluster.worker_sizes()
        assert len(sizes) == 3
        assert min(sizes.values()) > 0

    def test_servers_see_all_shards(self, schema):
        cluster, _, _ = small_cluster(schema)
        for s in cluster.servers:
            assert len(s.image) == cluster.shard_count()

    def test_full_query_counts_everything(self, schema):
        cluster, _, batch = small_cluster(schema)
        rec = run_full_query(cluster, schema)
        assert rec.result_count == len(batch)


class TestInsertPath:
    def test_inserts_become_queryable(self, schema):
        cluster, gen, batch = small_cluster(schema)
        extra = gen.batch(300)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(
            [
                Operation("insert", coords=extra.coords[i], measure=float(extra.measures[i]))
                for i in range(len(extra))
            ]
        )
        cluster.run_until_clients_done()
        assert cluster.total_items() == len(batch) + 300
        rec = run_full_query(cluster, schema)
        assert rec.result_count == len(batch) + 300

    def test_insert_latency_recorded(self, schema):
        cluster, gen, _ = small_cluster(schema)
        extra = gen.batch(50)
        sess = cluster.session(0, concurrency=2)
        sess.run_stream(
            [
                Operation("insert", coords=extra.coords[i], measure=1.0)
                for i in range(50)
            ]
        )
        cluster.run_until_clients_done()
        recs = cluster.stats.select(kind="insert")
        assert len(recs) == 50
        assert all(r.latency > 0 for r in recs)

    def test_cross_server_query_sees_inserts_after_sync(self, schema):
        """An insert on server 0 is visible to server 1 within the sync
        period plus notification latency (paper Section IV-F)."""
        cluster, gen, batch = small_cluster(schema, sync_period=0.5)
        extra = gen.batch(200)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(
            [
                Operation("insert", coords=extra.coords[i], measure=1.0)
                for i in range(200)
            ]
        )
        cluster.run_until_clients_done()
        # allow one sync period to elapse
        cluster.run_for(1.0)
        rec = run_full_query(cluster, schema, server_index=1)
        assert rec.result_count == len(batch) + 200


class TestMixedWorkload:
    def test_mixed_stream_completes(self, schema):
        cluster, gen, batch = small_cluster(schema)
        qg = QueryGenerator(schema, batch, seed=5)
        bins = qg.generate_bins(per_bin=4)
        sg = StreamGenerator(gen, bins, insert_fraction=0.5, seed=6)
        sess = cluster.session(0)
        sess.run_stream(list(sg.operations(600)))
        cluster.run_until_clients_done()
        assert sess.completed == 600
        ins = cluster.stats.select(kind="insert")
        qs = cluster.stats.select(kind="query")
        assert len(ins) + len(qs) == 600
        assert cluster.stats.throughput(ins) > 0

    def test_queries_track_coverage(self, schema):
        cluster, gen, batch = small_cluster(schema)
        qg = QueryGenerator(schema, batch, seed=7)
        bins = qg.generate_bins(per_bin=3)
        sg = StreamGenerator(gen, bins, insert_fraction=0.0, seed=8)
        sess = cluster.session(0)
        sess.run_stream(list(sg.operations(60)))
        cluster.run_until_clients_done()
        recs = cluster.stats.select(kind="query")
        assert all(not np.isnan(r.coverage) for r in recs)
        assert all(r.shards_searched >= 0 for r in recs)


@pytest.mark.sim_only
class TestSplits:
    def test_oversized_shards_get_split(self, schema):
        cluster, gen, batch = small_cluster(
            schema,
            balancer=BalancerPolicy(max_shard_items=800, scan_period=0.2),
        )
        before = cluster.shard_count()
        cluster.run_for(5.0)  # let the manager scan and split
        assert cluster.stats.splits > 0
        assert cluster.shard_count() > before
        # no data lost
        assert cluster.total_items() == len(batch)
        rec = run_full_query(cluster, schema)
        assert rec.result_count == len(batch)

    def test_splits_propagate_to_all_servers(self, schema):
        cluster, _, _ = small_cluster(
            schema,
            balancer=BalancerPolicy(max_shard_items=800, scan_period=0.2),
        )
        cluster.run_for(5.0)
        expected = cluster.shard_count()
        for s in cluster.servers:
            assert len(s.image) == expected

    def test_inserts_during_splits_not_lost(self, schema):
        cluster, gen, batch = small_cluster(
            schema,
            balancer=BalancerPolicy(max_shard_items=800, scan_period=0.1),
        )
        extra = gen.batch(500)
        sess = cluster.session(0, concurrency=8)
        sess.run_stream(
            [
                Operation("insert", coords=extra.coords[i], measure=1.0)
                for i in range(500)
            ]
        )
        cluster.run_until_clients_done()
        cluster.run_for(6.0)
        assert cluster.stats.splits > 0
        assert cluster.total_items() == len(batch) + 500
        rec = run_full_query(cluster, schema)
        assert rec.result_count == len(batch) + 500


@pytest.mark.sim_only
class TestMigrations:
    def test_new_workers_receive_data(self, schema):
        """Elastic scale-up (paper Fig. 6): empty workers fill up."""
        cluster, _, batch = small_cluster(
            schema,
            balancer=BalancerPolicy(
                max_shard_items=100_000,
                imbalance_ratio=1.2,
                min_migrate_items=50,
                scan_period=0.2,
            ),
        )
        new_ids = cluster.add_workers(2)
        cluster.run_for(10.0)
        sizes = cluster.worker_sizes()
        assert cluster.stats.migrations > 0
        for wid in new_ids:
            assert sizes[wid] > 0, f"worker {wid} never received data"
        assert cluster.total_items() == len(batch)

    def test_queries_correct_during_migration(self, schema):
        cluster, _, batch = small_cluster(
            schema,
            balancer=BalancerPolicy(
                max_shard_items=100_000,
                imbalance_ratio=1.2,
                min_migrate_items=50,
                scan_period=0.2,
            ),
        )
        cluster.add_workers(2)
        # interleave queries with the rebalancing
        for _ in range(4):
            cluster.run_for(1.0)
            rec = run_full_query(cluster, schema)
            assert rec.result_count == len(batch)

    def test_balance_improves(self, schema):
        cluster, _, _ = small_cluster(
            schema,
            balancer=BalancerPolicy(
                max_shard_items=100_000,
                imbalance_ratio=1.2,
                min_migrate_items=50,
                scan_period=0.2,
            ),
        )
        cluster.add_workers(2)
        sizes0 = cluster.worker_sizes()  # new workers still empty
        gap0 = max(sizes0.values()) - min(sizes0.values())
        cluster.run_for(10.0)
        sizes1 = cluster.worker_sizes()
        gap1 = max(sizes1.values()) - min(sizes1.values())
        assert gap1 < gap0


class TestBulkLoad:
    def test_bulk_load_adds_items(self, schema):
        cluster, gen, batch = small_cluster(schema)
        extra = gen.batch(4000)
        dt = cluster.bulk_load(extra)
        assert dt > 0
        assert cluster.total_items() == len(batch) + 4000
        rec = run_full_query(cluster, schema)
        assert rec.result_count == len(batch) + 4000

    def test_second_bulk_load_on_one_cluster_keeps_every_row(
        self, schema, monkeypatch
    ):
        """Workers remember every bulk token they applied, so a later
        bulk_load must not reuse an earlier one's tokens: a reused token
        would count as a duplicate and its chunk would never be acked.
        Each wait gets a horizon so a lost ack fails instead of hanging."""
        cluster, gen, batch = small_cluster(schema)
        drive = cluster.runtime.drive

        def bounded(pred, **kw):
            kw.setdefault("horizon", cluster.clock.now + 60.0)
            drive(pred, **kw)

        monkeypatch.setattr(cluster.runtime, "drive", bounded)
        first, second = gen.batch(3000), gen.batch(3000)
        cluster.bulk_load(first, chunk=512)
        cluster.bulk_load(second, chunk=512)
        assert cluster.total_items() == len(batch) + 6000
        assert sum(w.inserts_done for w in cluster.workers.values()) == 6000

    def test_bulk_much_faster_than_point_inserts(self, schema):
        """Paper Section IV-C: bulk ingestion beats point insertion by a
        wide margin (400k/s vs 50k/s on the testbed)."""
        cluster, gen, _ = small_cluster(schema)
        extra = gen.batch(2000)
        bulk_dt = cluster.bulk_load(extra)
        bulk_rate = 2000 / bulk_dt

        cluster2, gen2, _ = small_cluster(schema)
        extra2 = gen2.batch(2000)
        sess = cluster2.session(0, concurrency=16)
        t0 = cluster2.clock.now
        sess.run_stream(
            [
                Operation("insert", coords=extra2.coords[i], measure=1.0)
                for i in range(2000)
            ]
        )
        cluster2.run_until_clients_done()
        point_rate = 2000 / (cluster2.clock.now - t0)
        assert bulk_rate > 3 * point_rate

    def test_rows_of_a_shard_held_elsewhere_come_back_in_the_ack(self, schema):
        """A chunk addressed to a worker that does not hold its shard is
        neither applied nor counted: the ack names every row."""
        cluster, gen, batch = small_cluster(schema)
        sid = sorted(cluster.workers[1].shards)[0]
        rows = gen.batch(50)
        sink = Collector()
        cluster.runtime.register(sink)
        cluster.transport.send(
            cluster.workers[0],
            Message(
                "bulk_insert",
                BulkInsert(i64([sid, 7]), rows.coords, rows.measures, sink),
            ),
        )
        cluster.runtime.drive(lambda: sink.received, desc="bulk ack")
        [ack] = sink.received
        assert ack.payload.u.tolist() == list(range(50))
        assert cluster.workers[0].inserts_done == 0
        assert cluster.total_items() == len(batch)

    @pytest.mark.sim_only
    def test_bulk_load_on_a_stale_image_places_every_row_once(self, schema):
        """Rows routed to a worker a shard migrated away from are
        re-routed on a refreshed image, and none is lost or doubled."""
        cluster, gen, batch = small_cluster(
            schema,
            balancer=BalancerPolicy(
                max_shard_items=100_000, imbalance_ratio=100.0, scan_period=0.2
            ),
        )
        sid = sorted(cluster.workers[0].shards)[0]
        cluster.manager._start_migration(0, 1, sid)
        cluster.run_for(2.0)
        moved = cluster.workers[1].shards[sid]
        before = len(moved)
        cluster.servers[0].image.update_worker(sid, 0)  # the image lags
        extra = gen.batch(3000)
        cluster.bulk_load(extra)
        assert len(cluster.workers[1].shards[sid]) > before
        assert sum(w.inserts_done for w in cluster.workers.values()) == len(extra)
        held = concat_batches(
            [s.items() for w in cluster.workers.values() for s in w.shards.values()],
            schema.num_dims,
        )
        assert sorted_rows(held) == sorted_rows(
            concat_batches([batch, extra], schema.num_dims)
        )
