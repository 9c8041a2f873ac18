"""Correctness tests for all four tree variants, against the array oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ArrayStore,
    HilbertPDCTree,
    HilbertRTree,
    PDCTree,
    RTree,
    TreeConfig,
)
from repro.olap.keys import Box
from repro.olap.query import full_query
from repro.olap.records import RecordBatch

from .conftest import clustered_batch, make_schema, random_batch, random_boxes

ALL_TREES = [HilbertPDCTree, PDCTree, RTree, HilbertRTree]


def build(cls, schema, batch, config=None):
    tree = cls(schema, config)
    for coords, m in batch.iter_rows():
        tree.insert(coords, m)
    return tree


@pytest.mark.parametrize("cls", ALL_TREES)
class TestTreeCorrectness:
    def test_count_after_inserts(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        assert len(tree) == len(batch)

    def test_invariants_after_inserts(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        tree.validate()

    def test_queries_match_oracle(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        oracle = ArrayStore.from_batch(schema, batch)
        for box in random_boxes(schema, 40, seed=7):
            got, _ = tree.query(box)
            want, _ = oracle.query(box)
            assert got.count == want.count
            assert got.total == pytest.approx(want.total)
            if want.count:
                assert got.vmin == want.vmin and got.vmax == want.vmax

    def test_full_query_aggregates_everything(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        agg, _ = tree.query(full_query(schema).box)
        assert agg.count == len(batch)
        assert agg.total == pytest.approx(float(batch.measures.sum()))

    def test_point_query(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        coords = batch.coords[17]
        agg, _ = tree.query(Box(coords, coords))
        dup = (batch.coords == coords).all(axis=1)
        assert agg.count == int(dup.sum())

    def test_empty_tree_query(self, cls, schema):
        tree = cls(schema)
        agg, stats = tree.query(full_query(schema).box)
        assert agg.is_empty
        assert stats.items_scanned == 0

    def test_query_disjoint_box_is_empty(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        # query outside the mbr of the data
        mbr = tree.mbr()
        lo = mbr.hi + 1
        hi = schema.leaf_limits
        if (lo > hi).any():
            pytest.skip("data reaches the corner of the id space")
        agg, _ = tree.query(Box(lo, hi))
        assert agg.count == 0

    def test_clustered_data(self, cls, schema):
        batch = clustered_batch(schema, 1200, clusters=4, seed=9)
        tree = build(cls, schema, batch)
        tree.validate()
        oracle = ArrayStore.from_batch(schema, batch)
        for box in random_boxes(schema, 25, seed=3):
            got, _ = tree.query(box)
            want, _ = oracle.query(box)
            assert got.count == want.count

    def test_duplicate_points(self, cls, schema):
        coords = np.tile(schema.leaf_limits // 2, (300, 1))
        batch = RecordBatch(coords, np.arange(300.0))
        tree = build(cls, schema, batch)
        tree.validate()
        agg, _ = tree.query(Box(coords[0], coords[0]))
        assert agg.count == 300
        assert agg.vmax == 299.0

    def test_mbr_covers_all_items(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        mbr = tree.mbr()
        assert mbr.contains_points(batch.coords).all()

    def test_from_batch_equivalent_to_inserts(self, cls, schema, batch):
        bulk = cls.from_batch(schema, batch)
        bulk.validate()
        assert len(bulk) == len(batch)
        oracle = ArrayStore.from_batch(schema, batch)
        for box in random_boxes(schema, 20, seed=5):
            got, _ = bulk.query(box)
            want, _ = oracle.query(box)
            assert got.count == want.count

    def test_items_roundtrip(self, cls, schema, batch):
        tree = build(cls, schema, batch)
        got = tree.items()
        assert len(got) == len(batch)
        # same multiset of rows (order-insensitive comparison via sorting)
        a = np.lexsort(got.coords.T)
        b = np.lexsort(batch.coords.T)
        assert np.array_equal(got.coords[a], batch.coords[b])

    def test_mixed_insert_query(self, cls, schema):
        """Queries interleaved with inserts always see current data."""
        batch = random_batch(schema, 600, seed=13)
        tree = cls(schema)
        everything = full_query(schema).box
        for i, (coords, m) in enumerate(batch.iter_rows()):
            tree.insert(coords, m)
            if i % 97 == 0:
                agg, _ = tree.query(everything)
                assert agg.count == i + 1
        tree.validate()


@pytest.mark.parametrize("cls", ALL_TREES)
@pytest.mark.parametrize("key_kind", ["mds", "mbr"])
def test_both_key_kinds(cls, key_kind):
    """Paper Section III-D: every variant exists with MDS and MBR keys."""
    schema = make_schema([[6, 6], [6, 6]])
    batch = random_batch(schema, 500, seed=21)
    config = TreeConfig(key_kind=key_kind, leaf_capacity=16, fanout=6)
    tree = build(cls, schema, batch, config)
    tree.validate()
    oracle = ArrayStore.from_batch(schema, batch)
    for box in random_boxes(schema, 15, seed=2):
        got, _ = tree.query(box)
        want, _ = oracle.query(box)
        assert got.count == want.count


@pytest.mark.parametrize("cls", ALL_TREES)
def test_small_capacities_force_deep_trees(cls):
    schema = make_schema([[4, 4], [4, 4]])
    batch = random_batch(schema, 400, seed=3)
    config = TreeConfig(leaf_capacity=4, fanout=3)
    tree = build(cls, schema, batch, config)
    tree.validate()
    assert tree.depth() >= 4
    agg, _ = tree.query(full_query(schema).box)
    assert agg.count == 400


@pytest.mark.parametrize("entry", ["insert", "insert_batch", "from_batch"])
@pytest.mark.parametrize("cls", ALL_TREES)
def test_rows_outside_the_id_space_are_refused(cls, entry, schema, batch):
    """A tree holds only rows inside the schema's id space: every entry
    point refuses a batch with one row above a dimension's limit or
    below 0 and stores none of it, and ``validate`` catches a row that
    got in anyway.  (The read engine tests only the dimensions a query
    constrains, which is exact only for such trees.)"""
    tree = cls.from_batch(schema, batch.slice(0, 40))
    for dim, value in ((0, schema.leaf_limits[0] + 1), (2, -1)):
        rows = batch.take(np.arange(40, 45))  # a copy
        rows.coords[3, dim] = value
        with pytest.raises(ValueError, match="out of range"):
            if entry == "insert":
                tree.insert(rows.coords[3], 1.0)
            elif entry == "insert_batch":
                tree.insert_batch(rows)
            else:
                cls.from_batch(schema, rows)
        assert len(tree) == 40
        tree.validate()
    agg, _ = tree.query(full_query(schema).box)
    assert agg.count == 40

    leaf = cls(schema)
    leaf.insert_batch(batch.slice(0, 3))
    leaf.arena.chunk.coords[0, leaf.root.slot, 1] = schema.leaf_limits[0] + 1
    leaf.root.key = leaf.key_class.empty(schema.num_dims)
    leaf.root.key.expand_points_inplace(leaf.arena.coords(leaf.root.slot))
    with pytest.raises(AssertionError, match="id space"):
        leaf.validate()


@pytest.mark.parametrize("cls", ALL_TREES)
def test_cached_aggregates_are_used(cls, schema):
    """Full-coverage queries terminate near the root via cached aggregates."""
    batch = random_batch(schema, 1000, seed=4)
    tree = build(cls, schema, batch)
    _, stats = tree.query(full_query(schema).box)
    assert stats.agg_hits >= 1
    assert stats.nodes_visited <= 3  # root-level cache hit


def test_cache_aggregates_ablation(schema):
    """Disabling the cache forces full descents but keeps answers right."""
    batch = random_batch(schema, 800, seed=6)
    on = build(HilbertPDCTree, schema, batch)
    off = build(
        HilbertPDCTree,
        schema,
        batch,
        TreeConfig(key_kind="mds", cache_aggregates=False),
    )
    box = full_query(schema).box
    agg_on, st_on = on.query(box)
    agg_off, st_off = off.query(box)
    assert agg_on.count == agg_off.count == 800
    assert st_off.items_scanned == 800
    assert st_on.items_scanned == 0
    assert st_off.nodes_visited > st_on.nodes_visited


@pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree])
def test_hilbert_leaf_order_is_curve_order(cls, schema):
    """Leaves read left-to-right yield non-decreasing Hilbert key ranges."""
    batch = random_batch(schema, 900, seed=10)
    tree = build(cls, schema, batch)
    maxes = []
    for leaf in tree._iter_leaves(tree.root):
        assert leaf.lhv == max(tree.arena.key_ints(leaf.slot))
        maxes.append(leaf.lhv)
    assert maxes == sorted(maxes)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=300),
    cap=st.integers(min_value=2, max_value=16),
    fanout=st.integers(min_value=2, max_value=8),
)
def test_hilbert_pdc_random_shapes(seed, n, cap, fanout):
    """Property: any data size/capacity combination keeps invariants and
    answers the full query exactly."""
    schema = make_schema([[4, 8], [16]])
    batch = random_batch(schema, n, seed=seed)
    config = TreeConfig(leaf_capacity=cap, fanout=fanout)
    tree = HilbertPDCTree.from_batch(schema, batch, config)
    tree.validate()
    agg, _ = tree.query(full_query(schema).box)
    assert agg.count == n


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pdc_point_inserts_random(seed):
    schema = make_schema([[4, 8], [16]])
    batch = random_batch(schema, 120, seed=seed)
    config = TreeConfig(leaf_capacity=8, fanout=4)
    tree = PDCTree(schema, config)
    for coords, m in batch.iter_rows():
        tree.insert(coords, m)
    tree.validate()
    oracle = ArrayStore.from_batch(schema, batch)
    for box in random_boxes(schema, 8, seed=seed):
        got, _ = tree.query(box)
        want, _ = oracle.query(box)
        assert got.count == want.count
