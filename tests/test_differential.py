"""Differential-oracle suite for the batched ingestion path.

Every tree variant, fed the same seeded workload through either
``insert`` or ``insert_batch`` (with and without the tree's lock already
held by the calling thread), must report byte-identical aggregates to
the flat :class:`ArrayStore` oracle on random query boxes.  Measures are
integer-valued floats so sums are exact regardless of accumulation
order, making "identical" mean ``==``, not ``approx``.

The vectorized compact-Hilbert kernel is likewise pinned to the scalar
reference: same curve, same keys, bit for bit, including multi-word
(>63 bit) index spaces.
"""

import numpy as np
import pytest

from repro.core import (
    ArrayStore,
    HilbertPDCTree,
    HilbertRTree,
    PDCTree,
    RTree,
    TreeConfig,
)
from repro.hilbert.compact_hilbert import CompactHilbertCurve
from repro.hilbert.id_expansion import HilbertKeyMapper
from repro.olap.records import RecordBatch

from repro.olap.keys import Box, point_box

from .conftest import (
    clustered_batch,
    make_schema,
    random_batch,
    random_boxes,
    reference_query,
)

ALL_TREES = [HilbertPDCTree, PDCTree, RTree, HilbertRTree]

#: (schema spec, tree config kwargs) -- small fanouts force deep trees
SHAPES = [
    ([[8, 12, 31], [4, 16], [10, 10]], dict(leaf_capacity=16, fanout=8)),
    ([[32], [6, 6], [4, 4, 4], [16]], dict(leaf_capacity=8, fanout=4)),
]


def int_batch(schema, n, seed=0, clustered=False) -> RecordBatch:
    """Seeded batch with integer-valued measures (order-proof sums)."""
    b = clustered_batch(schema, n, seed=seed) if clustered else random_batch(
        schema, n, seed=seed
    )
    b.measures[:] = np.floor(b.measures * 100.0)
    return b


def new_tree(cls, schema, config, held):
    """A new tree; with ``held`` the calling thread takes its lock here
    and keeps it, so every later call re-enters the lock."""
    tree = cls(schema, config)
    if held:
        tree.lock.__enter__()
    return tree


def counters(stats):
    return (
        stats.nodes_visited,
        stats.leaves_visited,
        stats.items_scanned,
        stats.agg_hits,
    )


def assert_matches_walk(tree, boxes):
    """``query`` and ``query_batch`` against the pointer-walk oracle:
    its four ``OpStats`` counters exactly, its aggregate with ``==``
    (integer measures), per box and in batch order."""
    batched = tree.query_batch(boxes)
    assert len(batched) == len(boxes)
    for box, (bagg, bstats) in zip(boxes, batched):
        want, wstats = reference_query(tree, box)
        got, stats = tree.query(box)
        assert got.to_tuple() == bagg.to_tuple() == want.to_tuple()
        assert counters(stats) == counters(bstats) == counters(wstats)


def assert_matches_oracle(store, oracle, boxes):
    """Per-box queries AND ``query_batch`` must both match the flat
    oracle's aggregate, and the pointer walk's ``OpStats``
    (:func:`assert_matches_walk`)."""
    assert_matches_walk(store, boxes)
    for box in boxes:
        got, _ = store.query(box)
        want, _ = oracle.query(box)
        assert got.count == want.count
        assert got.total == want.total
        if want.count:
            assert got.vmin == want.vmin
            assert got.vmax == want.vmax


@pytest.mark.parametrize("cls", ALL_TREES)
@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_insert_batch_matches_oracle(cls, held, chunk):
    schema = make_schema()
    config = TreeConfig(leaf_capacity=16, fanout=8)
    tree = new_tree(cls, schema, config, held)
    oracle = ArrayStore(schema)
    data = int_batch(schema, 700, seed=11)
    for lo in range(0, len(data), chunk):
        sub = data.slice(lo, min(lo + chunk, len(data)))
        tree.insert_batch(sub)
        oracle.insert_batch(sub)
    assert len(tree) == len(data)
    tree.validate()
    assert_matches_oracle(tree, oracle, random_boxes(schema, 12, seed=5))


@pytest.mark.parametrize("spec,cfg", SHAPES)
@pytest.mark.parametrize("cls", ALL_TREES)
def test_shapes_and_dims(cls, spec, cfg):
    """Batched inserts stay oracle-identical across dims and fanouts."""
    schema = make_schema(spec)
    tree = cls(schema, TreeConfig(**cfg))
    oracle = ArrayStore(schema)
    data = int_batch(schema, 500, seed=23, clustered=True)
    for lo in range(0, len(data), 64):
        sub = data.slice(lo, min(lo + 64, len(data)))
        tree.insert_batch(sub)
        oracle.insert_batch(sub)
    tree.validate()
    assert_matches_oracle(tree, oracle, random_boxes(schema, 10, seed=7))


@pytest.mark.parametrize("cls", ALL_TREES)
def test_insert_and_insert_batch_agree(cls):
    """The batched path answers exactly like the per-record path."""
    schema = make_schema()
    config = TreeConfig(leaf_capacity=16, fanout=8)
    one = cls(schema, config)
    batched = cls(schema, config)
    data = int_batch(schema, 600, seed=31)
    for coords, m in data.iter_rows():
        one.insert(coords, m)
    for lo in range(0, len(data), 100):
        batched.insert_batch(data.slice(lo, min(lo + 100, len(data))))
    one.validate()
    batched.validate()
    assert len(one) == len(batched) == len(data)
    for box in random_boxes(schema, 12, seed=13):
        a, _ = one.query(box)
        b, _ = batched.query(box)
        assert a.count == b.count
        assert a.total == b.total


@pytest.mark.parametrize("cls", ALL_TREES)
@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_query_batch_matches_per_box(cls, held, chunk):
    """Batched == loop-of-``query`` == oracle, at every batch size.

    The box set includes the degenerate cases the vectorized predicates
    must get right: an empty box, the full domain, and exact point
    boxes taken from inserted rows.
    """
    schema = make_schema()
    config = TreeConfig(leaf_capacity=16, fanout=8)
    tree = new_tree(cls, schema, config, held)
    oracle = ArrayStore(schema)
    data = int_batch(schema, 700, seed=17)
    tree.insert_batch(data)
    oracle.insert_batch(data)

    boxes = random_boxes(schema, 40, seed=29)
    boxes.append(Box.empty(schema.num_dims))
    boxes.append(Box(np.zeros(schema.num_dims, dtype=np.int64), schema.leaf_limits))
    boxes.extend(point_box(data.coords[i]) for i in (0, 133, 699))

    for lo in range(0, len(boxes), chunk):
        sub = boxes[lo : lo + chunk]
        batched = tree.query_batch(sub)
        oracle_batched = oracle.query_batch(sub)
        for box, (bagg, bstats), (oagg, _) in zip(
            boxes[lo:], batched, oracle_batched
        ):
            sagg, sstats = tree.query(box)
            assert bagg.to_tuple() == sagg.to_tuple()
            assert bagg.count == oagg.count
            assert bagg.total == oagg.total
            assert counters(bstats) == counters(sstats)
    assert tree.query_batch([]) == []


@pytest.mark.parametrize("cls", ALL_TREES)
@pytest.mark.parametrize("key_kind", ["mds", "mbr"])
@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("cache", [True, False])
def test_read_engine_matches_pointer_walk(cls, key_kind, held, cache):
    """The array-shaped read engine vs the node-by-node walk it
    replaced (``reference_query``), through a tree's whole life: empty,
    a single-leaf root, after splits, after ``insert_batch`` repacks and
    after in-place key growth under snapshots earlier queries cached."""
    schema = make_schema()
    d = schema.num_dims
    config = TreeConfig(
        leaf_capacity=8, fanout=4, key_kind=key_kind, cache_aggregates=cache
    )
    data = int_batch(schema, 500, seed=71, clustered=True)
    # keep dimension 0's upper half free of rows: a box there is
    # disjoint from every root key
    data.coords[:, 0] //= 2
    half = int(schema.leaf_limits[0]) // 2
    full = Box(np.zeros(d, dtype=np.int64), schema.leaf_limits)
    disjoint = full.copy()
    disjoint.lo[0] = half + 1
    inverted = full.copy()  # empty in one dimension only
    inverted.lo[1], inverted.hi[1] = 3, 2
    boxes = random_boxes(schema, 30, seed=73)
    boxes += [full, disjoint, Box.empty(d), inverted, boxes[0], boxes[0]]
    boxes += [point_box(data.coords[i]) for i in (0, 3, 250, 499)]

    tree = new_tree(cls, schema, config, held)
    assert_matches_walk(tree, boxes)
    assert counters(tree.query(full)[1]) == (0, 0, 0, 0)

    tree.insert_batch(data.slice(0, 5))
    assert tree.root.is_leaf
    assert_matches_walk(tree, boxes)
    assert counters(tree.query(full)[1]) == (
        (1, 0, 0, 1) if cache else (1, 1, 5, 0)
    )
    # a leaf root is scanned whatever the box
    assert counters(tree.query(disjoint)[1]) == (1, 1, 5, 0)
    assert counters(tree.query(Box.empty(d))[1]) == (1, 1, 5, 0)

    for coords, m in data.slice(5, 200).iter_rows():
        tree.insert(coords, m)
    assert tree.depth() >= 3
    assert_matches_walk(tree, boxes)
    # the root is counted even when nothing below it can match
    for box in (disjoint, Box.empty(d), inverted):
        agg, stats = tree.query(box)
        assert agg.count == 0 and counters(stats) == (1, 0, 0, 0)
    if cache:
        assert counters(tree.query(full)[1]) == (1, 0, 0, 1)

    # every directory the queries above expanded now holds a snapshot;
    # repacks replace children, point inserts grow keys in place
    tree.insert_batch(data.slice(200, 480))
    assert_matches_walk(tree, boxes)
    for coords, m in data.slice(480, 500).iter_rows():
        tree.insert(coords, m)
        assert_matches_walk(tree, boxes[:12])
    tree.validate()
    assert_matches_walk(tree, boxes)
    oracle = ArrayStore.from_batch(schema, data)
    assert_matches_oracle(tree, oracle, boxes)


def test_empty_and_single_batches():
    schema = make_schema()
    tree = HilbertPDCTree(schema)
    assert tree.insert_batch(RecordBatch.empty(schema.num_dims)).work == 0
    data = int_batch(schema, 1, seed=3)
    tree.insert_batch(data)
    assert len(tree) == 1
    tree.validate()


# -- columnar leaves: boundary, repack, and codec differentials --------------

CAP = 8


@pytest.mark.parametrize("cls", ALL_TREES)
@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("n", [CAP - 1, CAP, CAP + 1])
def test_split_boundary_at_leaf_capacity(cls, held, n):
    """Exactly leaf_capacity ± 1 records: the overflow/split boundary.

    At ``n == CAP`` the root leaf is exactly full; ``CAP + 1`` forces
    the first split (or repack) out of a full columnar leaf.  Both the
    per-record and the batched path must agree with the oracle."""
    schema = make_schema()
    config = TreeConfig(leaf_capacity=CAP, fanout=4)
    data = int_batch(schema, n, seed=40 + n)
    one = new_tree(cls, schema, config, held)
    batched = new_tree(cls, schema, config, held)
    oracle = ArrayStore(schema)
    for coords, m in data.iter_rows():
        one.insert(coords, m)
    batched.insert_batch(data)
    oracle.insert_batch(data)
    one.validate()
    batched.validate()
    assert len(one) == len(batched) == n
    boxes = random_boxes(schema, 8, seed=n)
    assert_matches_oracle(one, oracle, boxes)
    assert_matches_oracle(batched, oracle, boxes)


@pytest.mark.parametrize("cls", ALL_TREES)
@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("chunk", [CAP - 1, CAP, CAP + 1, 64])
def test_chunks_around_capacity_match_oracle(cls, held, chunk):
    """Chunk sizes straddling leaf_capacity drive repack-on-overflow at
    every fill level; results stay oracle-identical (incl. OpStats
    between query and query_batch)."""
    schema = make_schema()
    config = TreeConfig(leaf_capacity=CAP, fanout=4)
    tree = new_tree(cls, schema, config, held)
    oracle = ArrayStore(schema)
    data = int_batch(schema, 400, seed=47, clustered=True)
    for lo in range(0, len(data), chunk):
        sub = data.slice(lo, min(lo + chunk, len(data)))
        tree.insert_batch(sub)
        oracle.insert_batch(sub)
    tree.validate()
    assert_matches_oracle(tree, oracle, random_boxes(schema, 10, seed=chunk))


@pytest.mark.parametrize("cls", [HilbertPDCTree, HilbertRTree])
def test_repack_on_overflow_is_exercised_and_correct(cls):
    """Over-capacity runs must take the repack path (asserted via the
    ``repacks`` counter) and still match the oracle."""
    schema = make_schema()
    config = TreeConfig(leaf_capacity=CAP, fanout=4)
    tree = cls(schema, config)
    oracle = ArrayStore(schema)
    data = int_batch(schema, 300, seed=53, clustered=True)
    stats = tree.insert_batch(data)
    oracle.insert_batch(data)
    assert stats.repacks >= 1
    tree.validate()
    assert_matches_oracle(tree, oracle, random_boxes(schema, 10, seed=3))


@pytest.mark.parametrize("cls", ALL_TREES)
def test_leaves_are_numpy_columns(cls):
    """No per-record Python objects remain in any leaf: every leaf holds
    contiguous int64/float64 (and uint64 key) numpy columns -- one
    contiguous run per coordinate dimension, all views of the leaf's
    slot in the tree's arena."""
    schema = make_schema()
    tree = cls(schema, TreeConfig(leaf_capacity=CAP, fanout=4))
    tree.insert_batch(int_batch(schema, 200, seed=59))
    leaves = list(tree._iter_leaves(tree.root))
    assert leaves
    arena = tree.arena
    for leaf in leaves:
        slot = leaf.slot
        coords = arena.coords(slot)
        assert coords.dtype == np.int64
        assert all(col.flags.c_contiguous for col in coords.T)
        assert np.shares_memory(coords, arena.chunk.coords[:, slot])
        assert arena.measures(slot).dtype == np.float64
        if tree.uses_hilbert:
            assert arena.chunk.hwords is not None
            assert arena.hwords(slot).dtype == np.uint64
            # live rows are in packed-word (== numeric key) order
            ints = arena.key_ints(slot)
            assert ints == sorted(ints)
        else:
            assert arena.chunk.hwords is None


@pytest.mark.parametrize("cls", ALL_TREES)
@pytest.mark.parametrize("held", [False, True])
def test_serialize_roundtrip_matches_oracle(cls, held):
    """store -> column frame -> store is oracle-identical, and the
    rebuilt tree equals a direct bulk load of the same items
    (query_batch OpStats included)."""
    schema = make_schema()
    config = TreeConfig(leaf_capacity=CAP, fanout=4)
    tree = new_tree(cls, schema, config, held)
    oracle = ArrayStore(schema)
    data = int_batch(schema, 350, seed=61)
    tree.insert_batch(data)
    oracle.insert_batch(data)
    back = cls.deserialize(schema, tree.serialize(), config)
    back.validate()
    assert len(back) == len(tree)
    assert_matches_oracle(back, oracle, random_boxes(schema, 10, seed=9))
    direct = cls.from_batch(schema, tree.items(), config)
    for box in random_boxes(schema, 10, seed=9):
        a, astats = back.query(box)
        b, bstats = direct.query(box)
        assert a.to_tuple() == b.to_tuple()
        assert astats.nodes_visited == bstats.nodes_visited


def test_hilbert_word_keys_match_object_ints():
    """The packed uint64 word rows in leaves encode exactly the keys the
    object-int mapper computes (ordering equivalence is load-bearing)."""
    schema = make_schema()
    tree = HilbertPDCTree(schema, TreeConfig(leaf_capacity=CAP, fanout=4))
    data = int_batch(schema, 150, seed=67)
    tree.insert_batch(data)
    want = sorted(tree.mapper.keys(data.coords))
    got = sorted(
        k
        for leaf in tree._iter_leaves(tree.root)
        for k in tree.arena.key_ints(leaf.slot)
    )
    assert got == want


# -- vectorized Hilbert kernel vs the scalar reference ---------------------

WIDTH_VECTORS = [
    [3, 3],
    [5, 2, 4],
    [1, 7, 3, 2],
    [16, 16, 16],  # 48 bits: single-word assembly
    [20, 20, 20, 20],  # 80 bits: multi-word (object ints)
]


@pytest.mark.parametrize("widths", WIDTH_VECTORS)
def test_index_batch_matches_scalar(widths):
    curve = CompactHilbertCurve(widths)
    rng = np.random.default_rng(sum(widths))
    limits = np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)
    pts = (
        rng.integers(0, limits + 1, size=(200, len(widths)), dtype=np.uint64)
    )
    got = curve.index_batch(pts)
    want = [curve.index([int(v) for v in row]) for row in pts]
    assert list(got) == want


@pytest.mark.parametrize("expand", [True, False])
def test_mapper_keys_match_scalar(expand):
    schema = make_schema()
    mapper = HilbertKeyMapper(schema, expand=expand)
    data = random_batch(schema, 150, seed=9)
    got = mapper.keys(data.coords)
    want = [mapper.key(row) for row in data.coords]
    assert got == want
