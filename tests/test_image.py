"""Tests for the server local image (modified PDC tree over shards)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.image import LocalImage, ShardInfo
from repro.olap.keys import Box


def box(lo, hi):
    return Box(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))


def info(sid, lo, hi, worker=0):
    return ShardInfo(sid, box(lo, hi), worker)


class TestMembership:
    def test_add_and_get(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        assert 1 in img
        assert len(img) == 1
        assert img.get(1).worker_id == 0

    def test_duplicate_rejected(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [1, 1]))
        with pytest.raises(ValueError):
            img.add_shard(info(1, [0, 0], [1, 1]))

    def test_remove(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [1, 1]))
        img.add_shard(info(2, [5, 5], [9, 9]))
        img.remove_shard(1)
        assert 1 not in img and 2 in img
        img.validate()

    def test_many_shards_force_splits(self):
        img = LocalImage(2, fanout=4)
        for i in range(40):
            x = (i % 8) * 10
            y = (i // 8) * 10
            img.add_shard(info(i, [x, y], [x + 5, y + 5]))
        assert len(img) == 40
        img.validate()

    def test_wire_roundtrip(self):
        i = info(7, [1, 2], [3, 4], worker=3)
        i.size = 99
        j = ShardInfo.from_wire(i.to_wire())
        assert j.shard_id == 7 and j.worker_id == 3 and j.size == 99
        assert j.box == i.box


class TestRouting:
    def test_route_insert_picks_covering_shard(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        img.add_shard(info(2, [20, 20], [30, 30]))
        assert img.route_insert(np.array([5, 5])[None])[0].shard_id == 1
        assert img.route_insert(np.array([25, 25])[None])[0].shard_id == 2

    def test_route_insert_expands_boxes(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        img.add_shard(info(2, [100, 100], [110, 110]))
        got = img.route_insert(np.array([12, 12])[None])[0]
        assert got.shard_id == 1  # closer: least overlap/enlargement
        assert img.get(1).box.contains_point(np.array([12, 12]))
        assert 1 in img.dirty

    def test_route_insert_no_dirty_when_covered(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        img.route_insert(np.array([5, 5])[None])
        assert img.dirty == set()

    def test_route_insert_counts_size(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        img.route_insert(np.array([1, 1])[None])
        img.route_insert(np.array([2, 2])[None])
        assert img.get(1).size == 2

    def test_route_on_empty_image_raises(self):
        with pytest.raises(RuntimeError):
            LocalImage(2).route_insert(np.array([0, 0])[None])


class TestSearch:
    def test_search_finds_intersecting(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        img.add_shard(info(2, [20, 0], [30, 10]))
        img.add_shard(info(3, [0, 20], [10, 30]))
        hits = {s.shard_id for s in img.search(box([5, 5], [25, 8]))}
        assert hits == {1, 2}

    def test_search_all(self):
        img = LocalImage(2, fanout=3)
        for i in range(20):
            img.add_shard(info(i, [i * 10, 0], [i * 10 + 5, 5]))
        hits = img.search(box([0, 0], [1000, 1000]))
        assert len(hits) == 20

    def test_search_none(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        assert img.search(box([50, 50], [60, 60])) == []


class TestExpansion:
    def test_expand_shard_bottom_up(self):
        img = LocalImage(2, fanout=2)
        for i in range(8):
            img.add_shard(info(i, [i * 10, 0], [i * 10 + 5, 5]))
        changed = img.expand_shard(3, box([200, 200], [210, 210]))
        assert changed
        # the shard must now be discoverable through the expanded region
        hits = {s.shard_id for s in img.search(box([205, 205], [206, 206]))}
        assert 3 in hits

    def test_expand_noop(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        assert not img.expand_shard(1, box([2, 2], [3, 3]))

    def test_update_worker_and_size(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [1, 1], worker=0))
        img.update_worker(1, 5)
        img.update_size(1, 123)
        assert img.get(1).worker_id == 5
        assert img.get(1).size == 123


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=500),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_route_insert_always_lands_in_reported_shard(corners):
    """Property: after routing, the chosen shard's box covers the point,
    and searching any box containing the point finds that shard."""
    img = LocalImage(2, fanout=4)
    for i, (x, y) in enumerate(corners[: max(1, len(corners) // 2)]):
        img.add_shard(info(i, [x, y], [x + 20, y + 20]))
    rng = np.random.default_rng(0)
    for _ in range(30):
        pt = rng.integers(0, 521, size=2)
        chosen = img.route_insert(pt[None])[0]
        assert chosen.box.contains_point(pt)
        hits = {s.shard_id for s in img.search(Box(pt, pt))}
        assert chosen.shard_id in hits
    img.validate()


# -- batch routing is the row-by-row routing ------------------------------


def _node_keys(img):
    out, stack = [], [img.root]
    while stack:
        node = stack.pop()
        out.append(node.key.to_tuple())
        if not node.is_leaf:
            stack.extend(node.children)
    return out


def _random_images(kind, rng, copies):
    dims = int(rng.integers(1, 5))
    fanout = int(rng.integers(2, 9))
    shards = int(rng.integers(1, 31))
    imgs = [LocalImage(dims, fanout=fanout, key_kind=kind) for _ in range(copies)]
    for sid in range(shards):
        lo = rng.integers(0, 300, dims)
        hi = lo + rng.integers(0, 40, dims)
        for img in imgs:
            img.add_shard(ShardInfo(sid, Box(lo, hi), sid % 3))
    return imgs, dims, shards


def _mixed_rows(img, rng, n, dims, shards):
    """Covered rows (shard corners), rows that grow a leaf, a duplicate
    and a row outside the root."""
    rows = rng.integers(0, 340, (n, dims))
    for j in range(0, n, 3):
        rows[j] = img.get(int(rng.integers(0, shards))).box.lo
    if n > 3:
        rows[n // 2] = rows[0]
        rows[-1] = rng.integers(500, 900, dims)
    return rows


@pytest.mark.parametrize("kind", ["mbr", "mds"])
@pytest.mark.parametrize("seed", range(12))
def test_batch_routing_is_row_by_row_routing(kind, seed):
    """One call for the batch == a loop of one-row calls == the scalar
    walk (conftest): shards, sizes, dirty set, every node key and the
    visited count, through adds, removes and sync expansions."""
    from .conftest import reference_image_route, reference_image_search

    rng = np.random.default_rng([seed, kind == "mds"])
    (batch, loop, ref), dims, shards = _random_images(kind, rng, 3)
    for rnd, n in enumerate([100, 0, 1, 100, 7, 100]):
        rows = _mixed_rows(ref, rng, n, dims, shards)
        got = batch.route_insert(rows)
        one_by_one, loop_visited = [], 0
        want, ref_visited = [], 0
        for row in rows:
            one_by_one += loop.route_insert(row[None])
            loop_visited += loop.nodes_visited_last
            info, seen = reference_image_route(ref, row)
            want.append(info)
            ref_visited += seen
        ids = [i.shard_id for i in want]
        assert [i.shard_id for i in got] == ids
        assert [i.shard_id for i in one_by_one] == ids
        assert batch.nodes_visited_last == ref_visited
        assert loop_visited == ref_visited
        for img in (batch, loop):
            assert img.dirty == ref.dirty
            assert [s.size for s in img.shards()] == [s.size for s in ref.shards()]
            assert _node_keys(img) == _node_keys(ref)
            assert all(img.get(s.shard_id).key is s.key for s in img.shards())
        # the searches read the snapshots the routing keeps
        for _ in range(4):
            lo = rng.integers(0, 340, dims)
            q = Box(lo, lo + rng.integers(0, 120, dims))
            want_hits, want_seen = reference_image_search(ref, q)
            assert [s.shard_id for s in batch.search(q)] == [
                s.shard_id for s in want_hits
            ]
            assert batch.nodes_visited_last == want_seen
        assert batch.search(Box.empty(dims)) == []
        assert batch.nodes_visited_last == reference_image_search(
            ref, Box.empty(dims)
        )[1]
        if rnd == 2 and shards > 2:
            lo = rng.integers(0, 300, dims)
            for img in (batch, loop, ref):
                img.remove_shard(0)
                img.add_shard(ShardInfo(0, Box(lo, lo + 50), 1))
        if rnd == 3:
            lo = rng.integers(0, 900, dims)
            for img in (batch, loop, ref):
                img.expand_shard(shards - 1, Box(lo, lo + 5))
    batch.validate()


class _CountingPolicy:
    """Delegates to a key policy, counting the calls by name and the
    rows handed to ``covers_points_many``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {}
        self.rows = 0

    def __getattr__(self, name):
        fn = getattr(self.inner, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            if name == "covers_points_many":
                self.rows += len(args[1])
            return fn(*args)

        return counted


def _bench_shaped_image(kind):
    """8 shards under one root directory, as the e2e bench boots."""
    img = LocalImage(3, fanout=8, key_kind=kind)
    for sid in range(8):
        img.add_shard(info(sid, [sid * 100, 0, 0], [sid * 100 + 60, 50, 50]))
    img.policy = _CountingPolicy(img.policy)
    return img


_SCALAR = ("covers_point", "log_volume", "expand_point", "expand", "from_point")


@pytest.mark.parametrize("kind", ["mbr", "mds"])
def test_covered_rows_route_by_broadcast(kind):
    """A property, not a speed: 64 rows that every key already covers
    cost one ``covers_points_many`` per directory on their paths (the
    root's own key being the one child of a directory above it) and no
    scalar key call; the second batch rebuilds no snapshot."""
    img = _bench_shaped_image(kind)
    rng = np.random.default_rng(3)
    rows = np.column_stack(
        [
            rng.integers(0, 8, 64) * 100 + rng.integers(0, 61, 64),
            rng.integers(0, 51, 64),
            rng.integers(0, 51, 64),
        ]
    )
    for batch_no in range(2):
        img.policy.calls.clear()
        infos = img.route_insert(rows)
        calls = img.policy.calls
        assert [i.shard_id for i in infos] == (rows[:, 0] // 100).tolist()
        assert img.nodes_visited_last == 2 * 64 and img.dirty == set()
        assert calls["covers_points_many"] <= 2
        assert not any(calls.get(name) for name in _SCALAR if name != "log_volume")
        if batch_no:  # the snapshots (keys and volumes) are reused
            assert set(calls) == {"covers_points_many"}
    twice = 2 * np.bincount(rows[:, 0] // 100, minlength=8)
    assert [s.size for s in img.shards()] == twice.tolist()


@pytest.mark.parametrize("kind", ["mbr", "mds"])
def test_growing_rows_do_not_rescan_the_batch(kind):
    """512 rows that each grow the root: the window after a growing
    row is twice the covered stretch before it, so the batch is tested
    once and then a row at a time -- not 512 + 511 + ... rows."""
    img = _bench_shaped_image(kind)
    rows = np.arange(1000, 1512)[:, None] * np.array([3, 1, 2])
    infos = img.route_insert(rows)
    assert len(infos) == 512
    assert img.policy.rows <= 3 * 512
    for row in rows[::37]:
        assert any(
            img.policy.inner.covers_point(s.key, row) for s in img.shards()
        )
