"""Shared fixtures: schemas, random data, and tree factories."""

import os
import random

import numpy as np
import pytest

from repro.olap.hierarchy import Dimension, Hierarchy, Level
from repro.olap.records import RecordBatch
from repro.olap.schema import Schema


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "sim_only: test depends on virtual-time determinism (bit-identical "
        "replays, tight model timers, migration timing); always runs on the "
        "sim runtime even when VOLAP_RUNTIME selects a real backend",
    )


@pytest.fixture(autouse=True)
def _pin_sim_only_tests(request, monkeypatch):
    """Pin ``sim_only``-marked tests to the sim runtime.

    The CI backend matrix re-runs the whole suite with
    ``VOLAP_RUNTIME=asyncio``; tests that assert on discrete-event
    semantics (exact replay equality, model-time staleness math, timers
    sized for zero-cost handlers) are marked ``sim_only`` and keep the
    default backend here instead of failing spuriously on wall clocks.
    """
    if request.node.get_closest_marker("sim_only") is not None:
        if os.environ.get("VOLAP_RUNTIME", "sim") != "sim":
            monkeypatch.setenv("VOLAP_RUNTIME", "sim")


def timer_program(clock, drain, seed, reschedule):
    """A seeded program of ``at`` / ``after`` / ``cancel`` calls on
    ``clock``; returns ``(ids of the callbacks that fired, in order,
    clock.pending before the drain)``.  Every firing callback cancels
    three timers picked at random -- live, fired or already cancelled
    -- and with ``reschedule`` adds one with ``after`` (virtual time
    only: on a wall clock ``after`` depends on when the callback ran).
    """
    rng = random.Random(seed)
    t0 = clock.now + 5.0
    timers, fired = [], []

    def callback(i):
        def fn():
            fired.append(i)
            for _ in range(3):
                rng.choice(timers).cancel()
            if reschedule and len(timers) < 1500:
                delay = rng.randrange(1, 30) * 0.1
                timers.append(clock.after(delay, callback(len(timers))))

        return fn

    for i in range(500):
        timers.append(clock.at(t0 + rng.randrange(30) * 0.1, callback(i)))
        rng.choice(timers).cancel()
        rng.choice(timers).cancel()
    queued = clock.pending
    drain()
    return fired, queued


def make_schema(spec=None) -> Schema:
    """Schema from a list of per-dimension fanout lists."""
    if spec is None:
        spec = [[8, 12, 31], [4, 16], [10, 10]]
    dims = []
    for i, fanouts in enumerate(spec):
        name = f"d{i}"
        dims.append(
            Dimension(
                name,
                Hierarchy(
                    name, [Level(f"{name}_l{j}", f) for j, f in enumerate(fanouts)]
                ),
            )
        )
    return Schema(dims)


def random_batch(schema: Schema, n: int, seed: int = 0) -> RecordBatch:
    rng = np.random.default_rng(seed)
    coords = rng.integers(
        0, schema.leaf_limits + 1, size=(n, schema.num_dims), dtype=np.int64
    )
    return RecordBatch(coords, rng.random(n))


def clustered_batch(schema: Schema, n: int, clusters: int = 5, seed: int = 0) -> RecordBatch:
    """Hierarchy-clustered data: items concentrate under a few prefixes."""
    rng = np.random.default_rng(seed)
    d = schema.num_dims
    centers = rng.integers(0, schema.leaf_limits + 1, size=(clusters, d), dtype=np.int64)
    which = rng.integers(0, clusters, size=n)
    spread = np.maximum(schema.leaf_limits // 16, 1)
    jitter = rng.integers(-spread, spread + 1, size=(n, d))
    coords = np.clip(centers[which] + jitter, 0, schema.leaf_limits)
    return RecordBatch(coords.astype(np.int64), rng.random(n))


def random_boxes(schema: Schema, n: int, seed: int = 1):
    from repro.olap.keys import Box

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = rng.integers(0, schema.leaf_limits + 1)
        b = rng.integers(0, schema.leaf_limits + 1)
        out.append(Box(np.minimum(a, b), np.maximum(a, b)))
    return out


def reference_query(tree, box):
    """The pointer walk the trees' read engine replaced, kept as its oracle.

    One node at a time in preorder: a scalar ``within_box`` on every
    visited node, a scalar ``intersects_box`` on every child of an
    expanded directory, and each leaf masked and summed on its own.
    ``BaseTree.query`` / ``query_batch`` must return exactly these four
    ``OpStats`` counters (the sim's virtual time is a function of them)
    and this aggregate up to summation order.
    """
    from repro.core.aggregates import Aggregate
    from repro.core.config import OpStats

    stats = OpStats()
    agg = Aggregate.empty()
    if len(tree):
        stack = [tree.root]
        while stack:
            node = stack.pop()
            stats.nodes_visited += 1
            if tree.config.cache_aggregates and node.key.within_box(box):
                agg.merge(node.agg)
                stats.agg_hits += 1
            elif node.is_leaf:
                stats.leaves_visited += 1
                stats.items_scanned += tree.arena.size(node.slot)
                mask = box.contains_points(tree.arena.coords(node.slot))
                if mask.any():
                    agg.merge(Aggregate.of_array(tree.arena.measures(node.slot)[mask]))
            else:
                stack.extend(
                    c
                    for c in reversed(node.children)
                    if c.key.intersects_box(box)
                )
    return agg, stats


def reference_image_search(image, box):
    """The scalar walk ``LocalImage.search`` replaced, kept as its
    oracle: ``intersects_box`` per child, children pushed in order.
    Returns ``(shards, nodes visited)``."""
    out, visited, stack = [], 0, [image.root]
    while stack:
        node = stack.pop()
        visited += 1
        if node.is_leaf:
            out.append(node.shard)
            continue
        for c in node.children:
            if c.key.intersects_box(box):
                stack.append(c)
    return out, visited


def reference_least_overlap(kind, keys, grown, num_dims):
    """The scalar loop ``placement.least_overlap`` replaced (the trees
    and the image each had a copy), kept as its oracle: the siblings'
    union of child ``i`` from prefix/suffix unions, then the least
    ``(log overlap of grown[i] with it, log-volume growth)`` under a
    strict ``<``, so the first of equals wins."""
    n = len(keys)
    prefix = [None] * (n + 1)
    prefix[0] = kind.empty(num_dims)
    for i in range(n):
        acc = prefix[i].copy()
        acc.expand_inplace(keys[i])
        prefix[i + 1] = acc
    suffix = [None] * (n + 1)
    suffix[n] = kind.empty(num_dims)
    for i in range(n - 1, -1, -1):
        acc = suffix[i + 1].copy()
        acc.expand_inplace(keys[i])
        suffix[i] = acc
    best = 0
    best_key = (float("inf"), float("inf"))
    for i in range(n):
        others = prefix[i].copy()
        others.expand_inplace(suffix[i + 1])
        ov = grown[i].log_overlap_volume(others)
        tie = grown[i].log_volume() - keys[i].log_volume()
        if (ov, tie) < best_key:
            best_key = (ov, tie)
            best = i
    return best


def reference_mds_grow(key, by):
    """The numpy growth rule ``MDS._grow`` replaced, kept as its
    oracle: one broadcast of the block against the rows (an ``(n, d)``
    array) or another key's intervals (an ``MDS``) decides which ids
    each dimension holds.  A lone row or a key then inserts what a
    dimension does not hold interval by interval, several rows merge a
    wanting dimension's whole column, and every grown dimension is
    committed by its own slice assignment.  Grows ``key`` in place and
    returns whether it grew."""
    from repro.olap import mds

    iv = key._iv
    cap = iv.shape[2]

    def dim(d):
        starts, ends = iv[:, d].tolist()
        used = len(ends) - ends.count(mds._UNUSED[1])
        return starts[:used], ends[:used]

    def commit(d, starts, ends):
        pad = cap - len(starts)
        iv[:, d, :] = (
            starts + [mds._UNUSED[0]] * pad,
            ends + [mds._UNUSED[1]] * pad,
        )

    def hits(lo, hi):  # (k, d, cap): the slot holding [lo, hi], if any
        return (iv[0] <= lo[..., None]) & (hi[..., None] <= iv[1])

    if isinstance(by, mds.MDS):  # another key's unused slots are held
        lo, hi = by._iv[0].T, by._iv[1].T
    else:
        lo = hi = np.asarray(by, dtype=np.int64)
        if np.count_nonzero(hits(lo, hi)) == lo.size:
            return False
        if len(lo) > 1:
            held = hits(lo, hi).any(axis=2).all(axis=0).tolist()
            for d, done in enumerate(held):
                if not done:
                    col = lo[:, d].tolist()
                    commit(d, *mds._merge_values(*dim(d), col, cap))
            return True
    held = hits(lo, hi).any(axis=2)
    if held.all():
        return False
    for d in range(iv.shape[1]):
        if not held[:, d].all():
            starts, ends = dim(d)
            asked = zip(held[:, d].tolist(), lo[:, d].tolist(), hi[:, d].tolist())
            for done, a, b in asked:
                if not done:
                    mds._insert_value(starts, ends, a, b, cap)
            commit(d, starts, ends)
    return True


def reference_image_route(image, row):
    """One row's insert routing as the image did it before it took
    batches, scalar key calls only: expand every key on the path,
    descend into the smallest covering child (the first of equals), by
    least overlap when none covers.  Returns ``(shard, nodes visited)``
    and leaves the image as a one-row ``route_insert`` must."""
    kind = image.key_class
    node, visited, changed = image.root, 1, False
    node.key.expand_point_inplace(row)
    while not node.is_leaf:
        kids = node.children
        covering = [
            i for i, c in enumerate(kids) if c.key.covers_point(row)
        ]
        if len(kids) == 1:
            idx = 0
        elif covering:
            idx = min(covering, key=lambda i: kids[i].key.log_volume())
        else:
            keys = [c.key for c in kids]
            grown = [k.copy() for k in keys]
            for g in grown:
                g.expand_inplace(kind.from_point(row))
            idx = reference_least_overlap(kind, keys, grown, image.num_dims)
        node = kids[idx]
        changed = node.key.expand_point_inplace(row)
        visited += 1
    if changed:
        image.dirty.add(node.shard.shard_id)
    node.shard.size += 1
    image._version += 1  # keys were grown behind the image's back
    return node.shard, visited


@pytest.fixture
def schema():
    return make_schema()


@pytest.fixture
def batch(schema):
    return random_batch(schema, 1500, seed=42)
