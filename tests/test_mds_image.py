"""Tests for MDS bounding keys in the system image (paper III-A:
"either a Minimum Bounding Rectangle (MBR, one box) or Minimum
Describing Subset (MDS, multiple boxes)")."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, VOLAPCluster
from repro.cluster.image import LocalImage, ShardInfo
from repro.cluster.wire import key_from_wire, key_to_wire
from repro.core import TreeConfig
from repro.olap.keys import Box
from repro.olap.mds import MDS
from repro.olap.query import full_query
from repro.workloads import TPCDSGenerator, tpcds_schema
from repro.workloads.streams import Operation


def box(lo, hi):
    return Box(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))


class TestWire:
    def test_box_roundtrip(self):
        b = box([1, 2], [3, 4])
        assert key_from_wire(key_to_wire(b)) == b

    def test_mds_roundtrip(self):
        m = MDS([[(0, 3), (10, 12)], [(5, 5)]], max_intervals=6)
        out = key_from_wire(key_to_wire(m))
        assert out == m
        assert out.max_intervals == 6

    def test_bad_inputs(self):
        with pytest.raises(TypeError):
            key_to_wire("nope")
        with pytest.raises(ValueError):
            key_from_wire(("weird", ()))


class TestMDSImage:
    def test_add_and_route(self):
        img = LocalImage(2, key_kind="mds")
        img.add_shard(ShardInfo(1, box([0, 0], [10, 10]), 0))
        img.add_shard(ShardInfo(2, box([50, 50], [60, 60]), 1))
        assert img.route_insert(np.array([5, 5])[None]).shard_id == 1
        assert img.route_insert(np.array([55, 55])[None]).shard_id == 2
        img.validate()

    def test_adopts_box_keys_as_mds(self):
        img = LocalImage(2, key_kind="mds")
        img.add_shard(ShardInfo(1, box([0, 0], [10, 10]), 0))
        assert isinstance(img.get(1).key, MDS)

    def test_adopts_mds_keys_in_mbr_image(self):
        img = LocalImage(2, key_kind="mbr")
        m = MDS([[(0, 3), (20, 22)], [(0, 9)]])
        img.add_shard(ShardInfo(1, m, 0))
        assert isinstance(img.get(1).key, Box)
        assert img.get(1).key == box([0, 0], [22, 9])

    def test_mds_image_skips_gap_queries(self):
        """The fidelity payoff: a query probing the gap between a
        shard's data clusters is not routed to it under MDS keys but is
        under MBR keys."""
        gap_probe = box([14, 0], [16, 9])
        shard_key = MDS([[(0, 3), (25, 28)], [(0, 9)]])
        mbr_img = LocalImage(2, key_kind="mbr")
        mds_img = LocalImage(2, key_kind="mds")
        for img in (mbr_img, mds_img):
            img.add_shard(
                ShardInfo(1, key_from_wire(key_to_wire(shard_key)), 0)
            )
        assert len(mbr_img.search(gap_probe)) == 1
        assert len(mds_img.search(gap_probe)) == 0

    def test_expansion_with_mds(self):
        img = LocalImage(2, key_kind="mds")
        img.add_shard(ShardInfo(1, box([0, 0], [5, 5]), 0))
        changed = img.expand_shard(1, box([50, 50], [55, 55]))
        assert changed
        # expansion keeps the gap: the middle is still excluded
        assert len(img.search(box([20, 20], [30, 30]))) == 0
        assert len(img.search(box([51, 51], [52, 52]))) == 1

    def test_shard_info_box_property(self):
        m = MDS([[(0, 3), (25, 28)], [(0, 9)]])
        info = ShardInfo(1, m, 0)
        assert info.box == box([0, 0], [28, 9])


class TestMDSImageCluster:
    def test_end_to_end_with_mds_image(self):
        """Full cluster with MDS-keyed shards and MDS image stays exact."""
        schema = tpcds_schema()
        gen = TPCDSGenerator(schema, seed=2)
        batch = gen.batch(4000)
        cfg = ClusterConfig(
            num_workers=2,
            num_servers=2,
            tree_config=TreeConfig(key_kind="mds", leaf_capacity=32, fanout=8),
            image_key_kind="mds",
        )
        cluster = VOLAPCluster(schema, cfg)
        cluster.bootstrap(batch, shards_per_worker=2)
        for s in cluster.servers:
            assert isinstance(next(iter(s.image.shards())).key, MDS)
        # inserts + full query remain exact
        extra = gen.batch(100)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(
            [
                Operation("insert", coords=extra.coords[i], measure=1.0)
                for i in range(100)
            ]
        )
        cluster.run_until_clients_done()
        out = []
        q = cluster.session(1, concurrency=1)
        q.on_complete = out.append
        cluster.run_for(cluster.config.sync_period + 0.2)
        q.run_stream([Operation("query", query=full_query(schema))])
        cluster.run_until_clients_done()
        assert out[0].result_count == 4100
