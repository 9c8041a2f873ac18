"""White-box tests for tree internals: splits, engine, stats accounting."""

import numpy as np
import pytest

from repro.core import (
    HilbertPDCTree,
    HilbertRTree,
    PDCTree,
    RTree,
    TreeConfig,
)
from repro.olap.query import full_query
from repro.olap.records import RecordBatch

from .conftest import make_schema, random_batch, random_boxes, reference_query


class TestSplitMechanics:
    def test_leaf_split_creates_two_leaves(self):
        schema = make_schema([[16]])
        cfg = TreeConfig(leaf_capacity=4, fanout=4)
        tree = HilbertPDCTree(schema, cfg)
        for i in range(5):
            tree.insert(np.array([i]), float(i))
        assert not tree.root.is_leaf
        assert len(tree.root.children) == 2
        sizes = [c.size for c in tree.root.children]
        assert sum(sizes) == 5
        assert min(sizes) >= 1

    def test_root_split_grows_depth(self):
        schema = make_schema([[16, 16]])
        cfg = TreeConfig(leaf_capacity=2, fanout=2)
        tree = HilbertPDCTree(schema, cfg)
        batch = random_batch(schema, 64, seed=1)
        for coords, m in batch.iter_rows():
            tree.insert(coords, m)
        assert tree.depth() >= 4
        tree.validate()

    def test_split_counter_in_stats(self):
        schema = make_schema([[16]])
        cfg = TreeConfig(leaf_capacity=4, fanout=4)
        tree = HilbertPDCTree(schema, cfg)
        splits = 0
        for i in range(16):
            st = tree.insert(np.array([i]), 1.0)
            splits += st.splits
        assert splits >= 2

    @pytest.mark.parametrize("cls", [PDCTree, RTree])
    def test_geometric_split_separates_clusters(self, cls):
        """Two well-separated clusters end up in different subtrees."""
        schema = make_schema([[64], [64]])
        cfg = TreeConfig(leaf_capacity=8, fanout=4)
        tree = cls(schema, cfg)
        rng = np.random.default_rng(0)
        lows = rng.integers(0, 5, size=(20, 2))
        highs = rng.integers(58, 63, size=(20, 2))
        for p in np.concatenate([lows, highs]):
            tree.insert(p.astype(np.int64), 1.0)
        tree.validate()
        # the root children's MBRs should separate the two clusters
        boxes = [c.key.mbr() for c in tree.root.children]
        spans = [b.hi[0] - b.lo[0] for b in boxes]
        assert min(spans) < 63, "clusters were not separated at all"

    def test_hilbert_split_respects_min_fill(self):
        schema = make_schema([[64], [64]])
        cfg = TreeConfig(leaf_capacity=8, fanout=8)
        tree = HilbertPDCTree(schema, cfg)
        batch = random_batch(schema, 200, seed=2)
        for coords, m in batch.iter_rows():
            tree.insert(coords, m)
        for leaf in tree._iter_leaves(tree.root):
            assert leaf.size >= 1
        tree.validate()


class TestInsertEngineEdgeCases:
    def test_single_item_tree(self, schema):
        tree = HilbertPDCTree(schema)
        tree.insert(np.zeros(3, dtype=np.int64), 7.0)
        assert len(tree) == 1
        agg, _ = tree.query(full_query(schema).box)
        assert agg.count == 1 and agg.total == 7.0
        tree.validate()

    def test_identical_hilbert_keys(self):
        """Many duplicates of one point exercise equal-LHV routing."""
        schema = make_schema([[8], [8]])
        cfg = TreeConfig(leaf_capacity=4, fanout=3)
        tree = HilbertPDCTree(schema, cfg)
        pt = np.array([3, 3], dtype=np.int64)
        for i in range(50):
            tree.insert(pt, float(i))
        tree.validate()
        agg, _ = tree.query(full_query(schema).box)
        assert agg.count == 50

    def test_monotone_insertion_order(self):
        """Sorted input (worst case for naive trees) stays balanced-ish."""
        schema = make_schema([[64, 64]])
        cfg = TreeConfig(leaf_capacity=8, fanout=4)
        tree = HilbertPDCTree(schema, cfg)
        for v in range(300):
            tree.insert(np.array([v * 13 % 4096]), 1.0)
        tree.validate()
        # logarithmic-ish depth
        assert tree.depth() <= 8

    def test_insert_returns_work_stats(self, schema, batch):
        tree = HilbertPDCTree(schema)
        st = tree.insert(batch.coords[0], 1.0)
        assert st.nodes_visited >= 1
        assert st.work > 0

    def test_corner_values(self, schema):
        """Extremes of every dimension's id space round-trip."""
        tree = HilbertPDCTree(schema)
        zero = np.zeros(3, dtype=np.int64)
        top = schema.leaf_limits.copy()
        tree.insert(zero, 1.0)
        tree.insert(top, 2.0)
        from repro.olap.keys import Box

        agg, _ = tree.query(Box(zero, zero))
        assert agg.count == 1
        agg, _ = tree.query(Box(top, top))
        assert agg.count == 1


class TestQueryStatsAccounting:
    def test_full_query_uses_root_cache(self, schema, batch):
        tree = HilbertPDCTree.from_batch(schema, batch)
        _, st = tree.query(full_query(schema).box)
        assert st.nodes_visited == 1
        assert st.agg_hits == 1
        assert st.items_scanned == 0

    def test_point_query_descends(self, schema, batch):
        from repro.olap.keys import Box

        tree = HilbertPDCTree.from_batch(schema, batch)
        pt = batch.coords[0]
        _, st = tree.query(Box(pt, pt))
        assert st.nodes_visited >= tree.depth()
        assert st.leaves_visited >= 1

    def test_disjoint_query_touches_only_root(self, schema, batch):
        from repro.olap.keys import Box

        tree = HilbertPDCTree.from_batch(schema, batch)
        mbr = tree.mbr()
        if (mbr.hi + 1 > schema.leaf_limits).any():
            pytest.skip("no free corner")
        _, st = tree.query(Box(mbr.hi + 1, schema.leaf_limits))
        assert st.nodes_visited == 1
        assert st.items_scanned == 0


class TestBulkLoadPacking:
    def test_leaves_filled_to_target(self, schema):
        batch = random_batch(schema, 2000, seed=9)
        cfg = TreeConfig(leaf_capacity=64, fanout=16)
        tree = HilbertPDCTree.from_batch(schema, batch, cfg)
        sizes = [l.size for l in tree._iter_leaves(tree.root)]
        # 3/4 fill target
        assert np.mean(sizes) >= 32
        assert max(sizes) <= 64

    def test_empty_batch(self, schema):
        tree = HilbertPDCTree.from_batch(schema, RecordBatch.empty(3))
        assert len(tree) == 0
        agg, _ = tree.query(full_query(schema).box)
        assert agg.is_empty

    def test_one_item_batch(self, schema):
        b = RecordBatch(np.zeros((1, 3), dtype=np.int64), np.ones(1))
        tree = HilbertPDCTree.from_batch(schema, b)
        assert len(tree) == 1
        tree.validate()

    def test_bulk_load_faster_than_point_inserts(self, schema):
        import time

        batch = random_batch(schema, 3000, seed=10)
        t0 = time.perf_counter()
        HilbertPDCTree.from_batch(schema, batch)
        bulk = time.perf_counter() - t0
        t0 = time.perf_counter()
        tree = HilbertPDCTree(schema)
        for coords, m in batch.iter_rows():
            tree.insert(coords, m)
        point = time.perf_counter() - t0
        assert bulk < point, f"bulk {bulk:.2f}s not faster than point {point:.2f}s"


class TestTreeIntrospection:
    def test_depth_and_node_count_consistency(self, schema, batch):
        tree = HilbertPDCTree.from_batch(schema, batch)
        assert tree.depth() >= 1
        assert tree.node_count() >= tree.depth()

    def test_empty_tree_mbr(self, schema):
        tree = HilbertPDCTree(schema)
        assert tree.mbr().is_empty()

    def test_hilbert_r_uses_raw_mapping(self, schema):
        hr = HilbertRTree(schema)
        hpdc = HilbertPDCTree(schema)
        assert hr.mapper.expand is False
        assert hpdc.mapper.expand is True


class TestReadPathIsArrayShaped:
    """The read engine's shape, counted -- not timed.

    Below the root no key is tested in Python: a scan query makes one
    ``classify`` per directory it expands and one ``Aggregate.of_array``
    for all its leaves, and the packed snapshots it prunes with are
    rebuilt only where an insert moved a key.  (Wall-clock is
    ``benchmarks/e2e``'s job.)
    """

    @pytest.fixture
    def shard(self):
        """A bench-sized shard: 6 250 TPC-DS rows at the cluster's 64/16."""
        from repro.workloads import TPCDSGenerator, tpcds_schema

        schema = tpcds_schema()
        batch = TPCDSGenerator(schema, seed=5).batch(6250)
        tree = HilbertPDCTree.from_batch(
            schema, batch, TreeConfig(leaf_capacity=64, fanout=16)
        )
        # the lower half of dimension 0's rows, every other dimension whole
        box = full_query(schema).box.copy()
        box.hi[0] = int(np.median(batch.coords[:, 0]))
        assert box.contains_points(batch.coords).mean() >= 1 / 3
        return tree, box

    @staticmethod
    def count_calls(monkeypatch, obj, name, static=False):
        """Wrap ``obj.name``; returns the list its calls are logged to."""
        calls = []
        inner = getattr(obj, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(obj, name, staticmethod(counted) if static else counted)
        return calls

    @staticmethod
    def directories(tree):
        out, stack = [], [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                out.append(node)
                stack.extend(node.children)
        return out

    def test_scan_query_call_shape(self, shard, monkeypatch):
        from repro.core.aggregates import Aggregate

        tree, box = shard
        policy = tree.policy
        # directories the pointer walk expands: visited, not within
        expanded, stack = 0, [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf or node.key.within_box(box):
                continue
            expanded += 1
            stack.extend(
                c for c in node.children if c.key.intersects_box(box)
            )
        want, wstats = reference_query(tree, box)
        assert expanded >= 3 and wstats.leaves_visited >= 10

        key_cls = type(tree.root.key)
        scalar = self.count_calls(monkeypatch, key_cls, "within_box")
        scalar += self.count_calls(monkeypatch, key_cls, "intersects_box")
        classify = self.count_calls(monkeypatch, policy, "classify")
        pack = self.count_calls(monkeypatch, policy, "pack_keys")
        of_array = self.count_calls(
            monkeypatch, Aggregate, "of_array", static=True
        )
        agg, stats = tree.query(box)
        assert len(scalar) <= 1  # the root
        assert len(classify) == expanded
        assert len(of_array) == 1
        assert len(pack) == expanded  # first query: every snapshot is new
        assert agg.approx_equal(want)
        assert stats.nodes_visited == wstats.nodes_visited
        assert stats.leaves_visited == wstats.leaves_visited

        # the same query again rebuilds nothing
        del pack[:], classify[:]
        tree.query(box)
        assert len(pack) == 0 and len(classify) == expanded

    def test_insert_restales_only_its_path(self, shard, monkeypatch):
        tree, box = shard
        tree.query(box)
        before = {id(n): n.packed for n in self.directories(tree)}
        # a corner of the box: inside it, and new to the keys on its path
        tree.insert(box.lo.copy(), -12345.0)
        path, node = [], tree.root
        while not node.is_leaf:
            path.append(node)
            node = next(
                c
                for c in node.children
                if any(
                    -12345.0 in leaf.leaf_measures()
                    for leaf in tree._iter_leaves(c)
                )
            )
        pack = self.count_calls(monkeypatch, tree.policy, "pack_keys")
        tree.query(box)
        rebuilt = [
            n
            for n in self.directories(tree)
            if n.packed is not None and n.packed is not before.get(id(n))
        ]
        assert 1 <= len(rebuilt) <= len(path)
        assert all(any(n is p for p in path) for n in rebuilt)
        assert len(pack) == len(rebuilt)


def test_covered_rows_grow_no_key(monkeypatch):
    """Rows every key on their path already covers -- three rows for
    one leaf, then one row for each of three leaves -- are decided by
    the block's broadcast alone: the descent grows no key on any node
    it touches, and no interval-list algorithm runs."""
    from repro.olap import mds

    schema = make_schema()
    batch = random_batch(schema, 600, seed=9)
    tree = HilbertPDCTree.from_batch(schema, batch, TreeConfig(leaf_capacity=16))
    leaves = list(tree._iter_leaves(tree.root))
    one_run = leaves[0].leaf_coords()[:3].copy()
    three_runs = np.array([leaf.leaf_coords()[0] for leaf in leaves[3:6]])
    calls = []
    for name in ("_insert_value", "_merge_values"):
        monkeypatch.setattr(
            mds,
            name,
            lambda *a, _name=name: calls.append(_name) or pytest.fail(_name),
            raising=False,
        )
    for coords in (one_run, three_runs):
        stats = tree.insert_batch(RecordBatch(coords, np.ones(len(coords))))
        assert stats.key_expansions == 0
    assert calls == [] and len(tree) == 606
    tree.validate()



def test_one_descent_under_stress(monkeypatch):
    """Tiny nodes, so that one ``insert_batch`` overflows several leaves,
    overflows one directory with two or more repacked children and
    grows the root, while a reader thread queries.  After every batch
    the tree validates, answers like the ``ArrayStore`` oracle, and its
    ``nodes_visited`` is the number of distinct nodes the descent
    locked: each touched node once."""
    import threading

    from repro.core import ArrayStore
    from repro.core.node import Node

    schema = make_schema([[8, 8], [8, 8]])
    tree = HilbertPDCTree(
        schema, TreeConfig(leaf_capacity=4, fanout=3, thread_safe=True)
    )
    oracle = ArrayStore(schema)
    data = random_batch(schema, 1200, seed=41)
    data.measures[:] = np.round(data.measures * 100)  # exact sums
    boxes = random_boxes(schema, 8, seed=43)

    inserter = threading.get_ident()
    touched: set[int] = set()
    acquire = Node.acquire

    def spy(node):
        if threading.get_ident() == inserter:
            touched.add(id(node))
        acquire(node)

    monkeypatch.setattr(Node, "acquire", spy)
    # per node the descent enters: did each child call come back repacked?
    repacked: list[list[bool]] = [[]]
    twice = []  # directories that took two repacks and overflowed
    descend = tree._descend

    def watched(node, *args):
        repacked.append([])
        try:
            out = descend(node, *args)
        finally:
            below = repacked.pop()
        if below.count(True) >= 2 and len(out) > 1:
            twice.append(node)
        repacked[-1].append(len(out) > 1)
        return out

    monkeypatch.setattr(tree, "_descend", watched)
    stop = threading.Event()
    errors = []

    def reader():
        try:
            while not stop.is_set():
                tree.query_batch(boxes)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    grew = 0
    try:
        for lo in range(0, len(data), 60):
            sub = data.slice(lo, lo + 60)
            depth = tree.depth()
            touched.clear()
            stats = tree.insert_batch(sub)
            assert stats.nodes_visited == len(touched)
            assert stats.repacks >= 2 or lo == 0  # the root leaf, once
            oracle.insert_batch(sub)
            grew += tree.depth() > depth
            tree.validate()
            for box in boxes:
                assert tree.query(box)[0] == oracle.query(box)[0]
    finally:
        stop.set()
        thread.join()
    assert not errors
    assert grew >= 2 and twice
