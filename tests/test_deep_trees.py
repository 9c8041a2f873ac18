"""Recursion-limit regression suite.

Every tree walk (``query``, ``query_batch``, ``items``, ``node_count``,
``depth``, ``validate``) and the worker's split-chain resolution are
iterative; a pathologically deep structure -- far beyond Python's
default recursion limit -- must be handled without ``RecursionError``.

Real insert workloads build such chains only after very long split
histories, so the trees here are synthesised: a single-child directory
chain thousands of nodes tall wrapped around a genuine leaf, with
every invariant ``validate()`` checks (keys, aggregates, LHVs) kept
intact.  A second test drives a *real* degenerate workload (sorted
input, ``leaf_capacity=2``) through the same walks.
"""

import sys

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
from repro.core.aggregates import Aggregate
from repro.core.base import Hyperplane

from .conftest import make_schema, random_batch, random_boxes

ALL_TREES = [HilbertPDCTree, PDCTree, RTree, HilbertRTree]

#: comfortably past the default recursion limit
CHAIN_DEPTH = max(3000, sys.getrecursionlimit() * 3)


def int_batch(schema, n, seed=0):
    b = random_batch(schema, n, seed=seed)
    b.measures[:] = np.floor(b.measures * 100.0)
    return b


def make_chain_tree(cls, schema, depth):
    """A real tree whose root sits atop ``depth`` single-child dirs.

    The chain keeps every invariant ``validate()`` asserts: each
    directory's key/aggregate/LHV mirror its only child's, so pruning,
    cached-aggregate short-circuits, and the validator all behave as on
    an organically grown tree -- just absurdly deep.
    """
    tree = cls(schema, TreeConfig(leaf_capacity=8, fanout=4))
    data = int_batch(schema, 4, seed=7)
    tree.insert_batch(data)
    assert tree.root.is_leaf
    node = tree.root
    for _ in range(depth):
        parent = tree._new_dir()
        parent.children = [node]
        parent.key = node.key.copy()
        parent.agg = Aggregate(*node.agg.to_tuple())
        parent.lhv = node.lhv
        parent.size = node.size
        node = parent
    tree.root = node
    return tree, data


@pytest.mark.parametrize("cls", ALL_TREES)
def test_deep_chain_walks_do_not_recurse(cls):
    schema = make_schema()
    tree, data = make_chain_tree(cls, schema, CHAIN_DEPTH)

    from repro.olap.keys import Box

    lo = np.zeros(schema.num_dims, dtype=np.int64)
    hi = np.asarray(schema.leaf_limits, dtype=np.int64)
    full = Box(lo, hi)

    agg, stats = tree.query(full)
    assert agg.count == len(data)
    assert stats.nodes_visited >= 1

    # batched engine walks the same chain (cache_aggregates
    # short-circuits at the root, so disable the fast path by querying
    # a box that intersects but does not contain the data)
    batched = tree.query_batch([full] + random_boxes(schema, 3, seed=2))
    assert batched[0][0].to_tuple() == agg.to_tuple()

    assert len(tree.items()) == len(data)
    assert tree.node_count() == CHAIN_DEPTH + 1
    assert tree.depth() == CHAIN_DEPTH + 1
    tree.validate()


@pytest.mark.parametrize("cls", ALL_TREES)
def test_degenerate_sorted_input_leaf_capacity_two(cls):
    """Sorted input with tiny nodes: the adversarial real workload the
    issue calls out.  Everything must stay oracle-identical and no walk
    may recurse."""
    schema = make_schema()
    tree = cls(schema, TreeConfig(leaf_capacity=2, fanout=4))
    oracle = ArrayStore(schema)
    data = int_batch(schema, 400, seed=19)
    order = np.lexsort(data.coords.T[::-1])
    data = data.take(order)
    for coords, m in data.iter_rows():
        tree.insert(coords, m)
    oracle.insert_batch(data)
    tree.validate()
    assert len(tree) == len(data)
    assert tree.depth() >= 3
    boxes = random_boxes(schema, 10, seed=23)
    for box, (bagg, _), in zip(boxes, tree.query_batch(boxes)):
        want, _ = oracle.query(box)
        got, _ = tree.query(box)
        assert got.count == want.count == bagg.count
        assert got.total == want.total == bagg.total


def test_worker_resolves_deep_split_chains():
    """``_resolve_query`` on a 5000-link mapping chain (a shard split
    5000 times while requests were in flight) must not recurse."""
    from repro.cluster.worker import Worker

    w = Worker.__new__(Worker)  # only .mapping is touched
    links = max(5000, sys.getrecursionlimit() * 3)
    plane = Hyperplane(0, 0)
    w.mapping = {i: (plane, i + 1, 100_000 + i) for i in range(links)}
    out = w._resolve_query(0)
    assert len(out) == links + 1
    assert out[0] == links  # the low chain bottoms out first
    assert out[-1] == 100_000  # highs unwind back to the first split


def scalar_walk(mapping, shard_id, coords):
    """One row's mapping-table resolution, hop by hop (the reference)."""
    while shard_id in mapping:
        plane, low, high = mapping[shard_id]
        shard_id = low if coords[plane.dim] <= plane.value else high
    return shard_id


def random_split_history(rng, schema, splits):
    """A mapping table after ``splits`` random splits of three shards."""
    mapping = {}
    leaves = [0, 1, 2]
    next_id = 3
    for _ in range(splits):
        sid = leaves.pop(int(rng.integers(len(leaves))))
        dim = int(rng.integers(schema.num_dims))
        value = int(rng.integers(schema.leaf_limits[dim] + 1))
        mapping[sid] = (Hyperplane(dim, value), next_id, next_id + 1)
        leaves += [next_id, next_id + 1]
        next_id += 2
    return mapping, next_id


@pytest.mark.parametrize("seed", range(5))
def test_worker_resolves_rows_like_the_scalar_walk(seed):
    """Resolving a batch of rows through random split histories equals
    walking the mapping table row by row."""
    from repro.cluster.worker import Worker

    schema = make_schema()
    rng = np.random.default_rng(seed)
    w = Worker.__new__(Worker)  # only .mapping is touched
    w.mapping, ids = random_split_history(rng, schema, 60)
    rows = random_batch(schema, 400, seed=seed)
    shard_ids = rng.integers(0, ids, size=len(rows))
    want = [
        scalar_walk(w.mapping, int(sid), c) for sid, c in zip(shard_ids, rows.coords)
    ]
    assert w._resolve(shard_ids, rows.coords).tolist() == want


def test_worker_resolves_rows_down_deep_split_chains():
    """The same on a 5000-link chain, whose rows leave it at every depth."""
    from repro.cluster.worker import Worker

    w = Worker.__new__(Worker)
    links = max(5000, sys.getrecursionlimit() * 3)
    w.mapping = {
        i: (Hyperplane(0, links - i), i + 1, 100_000 + i) for i in range(links)
    }
    rng = np.random.default_rng(0)
    coords = np.zeros((300, 3), dtype=np.int64)
    coords[:, 0] = rng.integers(0, links + 2, size=len(coords))
    coords[:30, 0] = 0
    shard_ids = rng.integers(0, links, size=len(coords))
    want = [scalar_walk(w.mapping, int(sid), c) for sid, c in zip(shard_ids, coords)]
    got = w._resolve(shard_ids, coords).tolist()
    assert got == want
    assert links in got  # some rows take the whole chain
