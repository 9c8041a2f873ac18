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
        sizes = [tree.arena.size(c.slot) for c in tree.root.children]
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
            assert tree.arena.size(leaf.slot) >= 1
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
        sizes = [tree.arena.size(l.slot) for l in tree._iter_leaves(tree.root)]
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
    ``classify`` per tree level, over its frontier's key blocks stacked
    (a lone directory's as it is) and, past the root's step, on the
    dimensions the box constrains, and one ``Aggregate.of_array`` for
    all its leaves; it stacks no keys, on a fresh tree or after an
    insert.  Whatever the tree, key kind, cache setting or box, it
    answers what the pointer walk does, with the same ``OpStats``.
    (Wall-clock is ``benchmarks/e2e``'s job.)
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

    def test_scan_query_call_shape(self, shard, monkeypatch):
        from repro.core.aggregates import Aggregate

        tree, box = shard
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

        key_cls = tree.key_class
        assert type(tree.root.key) is key_cls
        scalar = self.count_calls(monkeypatch, key_cls, "within_box")
        scalar += self.count_calls(monkeypatch, key_cls, "intersects_box")
        classify = self.count_calls(monkeypatch, key_cls, "classify", static=True)
        stacked = self.count_calls(monkeypatch, key_cls, "stack", static=True)
        of_array = self.count_calls(
            monkeypatch, Aggregate, "of_array", static=True
        )
        agg, stats = tree.query(box)
        assert len(scalar) <= 1  # the root
        # one per level below the root, not one per expanded directory
        assert 1 <= len(classify) <= tree.depth() - 1 < expanded
        # the box constrains dimension 0 alone: past the root's step,
        # the blocks are cut to it
        d = tree.num_dims
        assert [block.shape[2] for block, _, _ in classify] == [d] + [1] * (
            len(classify) - 1
        )
        assert len(of_array) == 1
        assert not stacked
        assert agg.approx_equal(want)
        assert stats == wstats

    def test_a_query_after_an_insert_stacks_nothing(self, shard, monkeypatch):
        """An insert that grows the keys on its path writes them into
        the directories' blocks; the next query classifies those blocks
        as they are and sees the row."""
        tree, box = shard
        before, _ = tree.query(box)
        # a corner of the box: inside it, and new to the keys on its path
        tree.insert(box.lo.copy(), -12345.0)
        tree.validate()
        stacked = self.count_calls(
            monkeypatch, type(tree.root.key), "stack", static=True
        )
        agg, _ = tree.query(box)
        assert not stacked
        assert agg.count == before.count + 1 and agg.vmin == -12345.0

    @staticmethod
    def boxes(schema, data):
        """Boxes constraining no dimension (the full domain), one, some
        and all of them, a row's cell, and an empty box."""
        from repro.olap.keys import Box

        full = full_query(schema).box
        out = [full]
        for dims in ([0], [2], [0, 1]):
            for cut in random_boxes(schema, 3, seed=len(dims)):
                box = full.copy()
                box.lo[dims], box.hi[dims] = cut.lo[dims], cut.hi[dims]
                out.append(box)
        out += random_boxes(schema, 4, seed=17)
        out.append(Box(data.coords[5], data.coords[5]))
        out.append(Box.empty(schema.num_dims))
        return out

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("kind", ["mbr", "mds"])
    @pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree, PDCTree, RTree])
    def test_answers_and_stats_equal_the_pointer_walk(self, cls, kind, cache):
        from dataclasses import replace

        from .test_deep_trees import make_chain_tree

        schema = make_schema()
        config = replace(
            cls._default_config(),
            leaf_capacity=8,
            fanout=4,
            key_kind=kind,
            cache_aggregates=cache,
        )
        data = random_batch(schema, 700, seed=29)
        chain, _ = make_chain_tree(cls, schema, 40, config)
        trees = [cls(schema, config), cls.from_batch(schema, data, config), chain]
        assert trees[1].depth() >= 4
        boxes = self.boxes(schema, data)
        for tree in trees:
            batched = tree.query_batch(boxes)
            for box, (bagg, bstats) in zip(boxes, batched):
                want, wstats = reference_query(tree, box)
                agg, stats = tree.query(box)
                assert stats == wstats == bstats
                assert agg.approx_equal(want) and bagg.approx_equal(want)

    @staticmethod
    def mixed_boxes(schema, data):
        """One list of every box shape the read engine's hoisted tests
        decide on: empty (every dimension inverted, or one, in the whole
        domain or in a row's cell), a row's cell and its neighbour,
        partial boxes, the full domain, and boxes past the id space
        (above it, straddling its top, below zero)."""
        from repro.olap.keys import Box

        limits = schema.leaf_limits
        full = full_query(schema).box
        out = [Box.empty(schema.num_dims), full]
        if len(data):
            # inverted across the middle of the data: the keys a
            # ``classify`` of it would call hits straddle the inversion
            mid = int(np.median(data.coords[:, 0]))
            inverted = full.copy()
            inverted.lo[0], inverted.hi[0] = mid + 1, mid
            row = data.coords[len(data) // 2]
            cell = Box(row, row)
            inverted_cell = Box(row, row)
            inverted_cell.lo[1] += 1
            shifted = Box(row, row)
            shifted.lo[1] = shifted.hi[1] = (row[1] + 1) % (limits[1] + 1)
            # a cell next to a row's is often empty
            out += [inverted, inverted_cell, cell, Box(data.coords[0], data.coords[0]), shifted]
        out += random_boxes(schema, 4, seed=41)
        out += [
            Box(limits + 1, limits + 10),  # wholly above the id space
            Box(limits // 2, limits + 10),  # straddling its top
            Box(np.full(schema.num_dims, -10), limits // 3),  # below zero
            Box(np.full(schema.num_dims, -10), limits + 10),  # around all of it
        ]
        return out

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("kind", ["mbr", "mds"])
    @pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree, PDCTree, RTree])
    def test_a_mixed_batch_equals_lone_queries_and_the_pointer_walk(self, cls, kind, cache):
        """``query_batch`` over a list mixing every box shape answers each
        box as ``query`` does alone and as the pointer walk does: the
        root's bounds-only within test, the one emptiness test per box
        and the read engine's early exits change no answer and no
        ``OpStats`` counter, on an empty, a one-leaf and a bulk-loaded
        tree."""
        from dataclasses import replace

        schema = make_schema()
        config = replace(
            cls._default_config(),
            leaf_capacity=8,
            fanout=4,
            key_kind=kind,
            cache_aggregates=cache,
        )
        data = random_batch(schema, 600, seed=43)
        few = random_batch(schema, 5, seed=44)
        trees = [
            (cls(schema, config), data),
            (cls.from_batch(schema, few, config), few),
            (cls.from_batch(schema, data, config), data),
        ]
        assert len(trees[0][0]) == 0 and trees[1][0].root.is_leaf
        assert trees[2][0].depth() >= 3
        for tree, rows in trees:
            boxes = self.mixed_boxes(schema, rows)
            batched = tree.query_batch(boxes)
            assert len(batched) == len(boxes)
            for box, (bagg, bstats) in zip(boxes, batched):
                want, wstats = reference_query(tree, box)
                agg, stats = tree.query(box)
                assert bstats == stats == wstats
                assert bagg.approx_equal(want) and agg.approx_equal(want)


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
    one_run = tree.arena.coords(leaves[0].slot)[:3].copy()
    three_runs = np.array([tree.arena.coords(leaf.slot)[0] for leaf in leaves[3:6]])
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


@pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree, PDCTree, RTree])
def test_level_steps_do_not_deadlock_a_batch_writer(cls):
    """A deadlock canary for the read engine's lock rule: a step holds
    the tree lock and all its frontier's directory locks at once, while
    an ``insert_batch`` writer whose batches land in several sibling
    subtrees locks top-down.  Two readers (``query`` and
    ``query_batch``) race it on tiny nodes, with the interpreter
    switching threads as often as it can; every thread must finish
    within the wall-clock timeout, no answer may be torn (measures are
    1.0, so ``total == count``), and the tree must end valid and right."""
    import sys
    import threading
    import time

    from repro.core import ArrayStore

    schema = make_schema([[8, 8], [8, 8]])
    boot, data = random_batch(schema, 300, seed=61), random_batch(schema, 600, seed=62)
    boot.measures[:] = data.measures[:] = 1.0
    tree = cls.from_batch(
        schema, boot, TreeConfig(leaf_capacity=4, fanout=3)
    )
    oracle = ArrayStore.from_batch(schema, boot)
    oracle.insert_batch(data)
    boxes = [full_query(schema).box] + random_boxes(schema, 3, seed=63)
    boxes[0].hi[0] //= 2  # one constrained dimension
    stop = threading.Event()
    errors, torn, visited = [], [], []

    def writer():
        try:
            for lo in range(0, len(data), 20):
                depth = tree.depth()
                stats = tree.insert_batch(data.slice(lo, lo + 20))
                visited.append(stats.nodes_visited > depth)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def reader(batched):
        try:
            while not stop.is_set():
                if batched:
                    answers = [agg for agg, _ in tree.query_batch(boxes)]
                else:
                    answers = [tree.query(box)[0] for box in boxes]
                torn.extend(agg for agg in answers if agg.total != agg.count)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    # daemons: a deadlocked thread fails the test instead of hanging exit
    threads = [threading.Thread(target=writer, daemon=True)] + [
        threading.Thread(target=reader, args=(b,), daemon=True)
        for b in (False, True)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    deadline = time.monotonic() + 120
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "deadlock"
    assert not errors and not torn
    assert visited and all(visited)  # each batch took more than one path
    tree.validate()
    for box in boxes:
        assert tree.query(box)[0] == oracle.query(box)[0]


def test_one_descent_under_stress(monkeypatch):
    """Tiny nodes, so that one ``insert_batch`` overflows several leaves,
    overflows one directory with two or more repacked children and
    grows the root, while a reader thread queries.  After every batch
    the tree validates, answers like the ``ArrayStore`` oracle, and its
    ``nodes_visited`` is the number of distinct nodes the descent
    entered: each touched node once."""
    import threading

    from repro.core import ArrayStore

    schema = make_schema([[8, 8], [8, 8]])
    tree = HilbertPDCTree(
        schema, TreeConfig(leaf_capacity=4, fanout=3)
    )
    oracle = ArrayStore(schema)
    data = random_batch(schema, 1200, seed=41)
    data.measures[:] = np.round(data.measures * 100)  # exact sums
    boxes = random_boxes(schema, 8, seed=43)

    touched: set[int] = set()
    # per node the descent enters: did each child call come back repacked?
    repacked: list[list[bool]] = [[]]
    twice = []  # directories that took two repacks and overflowed
    descend = tree._descend

    def watched(node, *args):
        touched.add(id(node))
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


@pytest.mark.parametrize("kind", ["mbr", "mds"])
@pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree])
def test_entry_point_picks_the_overflow_rule(cls, kind, monkeypatch):
    """Both entry points run one descent; only the entry point decides
    what becomes of a node it overfills.  Per-row ``insert`` cuts every
    overfull leaf and directory in two at ``_split_at`` and repacks
    nothing; ``insert_batch`` repacks overfull leaves and directories
    and never runs the split scan (``placement.least_overlap_split``)."""
    from dataclasses import replace

    from repro.core import OpStats
    from repro.core import placement

    schema = make_schema()
    config = replace(
        cls._default_config(), leaf_capacity=6, fanout=4, key_kind=kind
    )
    data = random_batch(schema, 400, seed=13)

    def count_calls(obj, name):
        calls = []
        inner = getattr(obj, name)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(obj, name, counted)
        return calls

    scans = count_calls(placement, "least_overlap_split")
    by_row = cls(schema, config)
    cuts = count_calls(by_row, "_split_at")
    total = OpStats()
    for coords, m in data.iter_rows():
        total.merge(by_row.insert(coords, m))
    by_row.validate()
    assert total.repacks == 0
    assert total.splits == len(cuts)
    # leaves (capacity + 1 rows) and directories (fanout + 1 children)
    assert {len(entries) for entries, _ in cuts} == {
        config.leaf_capacity + 1,
        config.fanout + 1,
    }
    assert len(scans) == (len(cuts) if config.split_policy == "least_overlap" else 0)

    del scans[:]
    by_batch = cls(schema, config)
    batch_cuts = count_calls(by_batch, "_split_at")
    descend = by_batch._descend
    dirs_overfilled = []

    def watched(node, *args):
        out = descend(node, *args)
        if not node.is_leaf and len(out) > 1:
            dirs_overfilled.append(node)
        return out

    monkeypatch.setattr(by_batch, "_descend", watched)
    total = OpStats()
    for lo in range(0, len(data), 25):
        total.merge(by_batch.insert_batch(data.slice(lo, lo + 25)))
    by_batch.validate()
    assert total.repacks > 0 and dirs_overfilled
    assert scans == [] and batch_cuts == []
