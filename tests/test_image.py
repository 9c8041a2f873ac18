"""Tests for the server local image (modified PDC tree over shards)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.image import LocalImage, ShardInfo
from repro.core import placement
from repro.olap.keys import Box
from repro.olap.mds import MDS


def box(lo, hi):
    return Box(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))


def info(sid, lo, hi, worker=0):
    return ShardInfo(sid, box(lo, hi), worker)


class TestMembership:
    def test_key_kind_is_its_class(self):
        assert LocalImage(2, key_kind="mbr").key_class is Box
        assert LocalImage(2, key_kind="mds").key_class is MDS
        with pytest.raises(ValueError):
            LocalImage(2, key_kind="nope")

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
        assert img.route_insert(np.array([5, 5])[None]).shard_id == 1
        assert img.route_insert(np.array([25, 25])[None]).shard_id == 2

    def test_route_insert_expands_boxes(self):
        img = LocalImage(2)
        img.add_shard(info(1, [0, 0], [10, 10]))
        img.add_shard(info(2, [100, 100], [110, 110]))
        got = img.route_insert(np.array([12, 12])[None])
        assert got.shard_id == 1  # closer: least overlap/enlargement
        assert img.get(1).box.covers_point(np.array([12, 12]))
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
        chosen = img.route_insert(pt[None])
        assert chosen.box.covers_point(pt)
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
    """The rows of one batch object routed in order == a loop of
    one-row batches == the scalar walk (conftest): shards, sizes, dirty
    set, every node key and the visited counts, through adds, removes
    and sync expansions."""
    from .conftest import reference_image_route, reference_image_search

    rng = np.random.default_rng([seed, kind == "mds"])
    (batch, loop, ref), dims, shards = _random_images(kind, rng, 3)
    for rnd, n in enumerate([100, 0, 1, 100, 7, 100]):
        rows = _mixed_rows(ref, rng, n, dims, shards)
        for i, row in enumerate(rows):
            want, seen = reference_image_route(ref, row)
            assert batch.route_insert(rows, i).shard_id == want.shard_id
            assert loop.route_insert(row[None]).shard_id == want.shard_id
            assert batch.nodes_visited_last == loop.nodes_visited_last == seen
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


@pytest.mark.parametrize("kind", ["mbr", "mds"])
def test_what_is_decided_ahead_is_only_a_memo(kind):
    """Rows asked out of order, from two batches in turn, and across a
    sync expansion in mid-batch still route as the scalar walk does."""
    from .conftest import reference_image_route

    rng = np.random.default_rng(5)
    (img, ref), dims, shards = _random_images(kind, rng, 2)
    a = _mixed_rows(ref, rng, 60, dims, shards)
    b = _mixed_rows(ref, rng, 60, dims, shards)
    order = [(a, i) for i in rng.permutation(60)] + [(b, i) for i in range(60)]
    for step, j in enumerate(rng.permutation(120).tolist() + list(range(60, 120))):
        rows, i = order[j]
        want, seen = reference_image_route(ref, rows[i])
        assert img.route_insert(rows, i).shard_id == want.shard_id
        assert img.nodes_visited_last == seen
        if step == 150:
            lo = rng.integers(0, 900, dims)
            for image in (img, ref):
                image.expand_shard(0, Box(lo, lo + 5))
    assert _node_keys(img) == _node_keys(ref) and img.dirty == ref.dirty
    assert [s.size for s in img.shards()] == [s.size for s in ref.shards()]


class _Counting:
    """Counts calls by name -- the kind-level staticmethods of both key
    classes, the placement rules the image calls, and the scalar key
    calls -- and the rows handed to ``covers_points_many``."""

    def __init__(self, monkeypatch):
        self.calls = {}
        self.rows = 0
        for cls in (Box, MDS):
            for name in _SCALAR_KEY:
                monkeypatch.setattr(cls, name, self._counted(name, getattr(cls, name)))
            for name in _KIND:
                fn = self._counted(name, getattr(cls, name))
                monkeypatch.setattr(cls, name, staticmethod(fn))
        for name in _RULES:
            monkeypatch.setattr(placement, name, self._counted(name, getattr(placement, name)))

    def _counted(self, name, fn):
        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            if name == "covers_points_many":
                self.rows += len(args[1])
            return fn(*args)

        return counted


def _bench_shaped_image(kind, monkeypatch):
    """8 shards under one root directory, as the e2e bench boots; and
    a counter of the calls made from then on."""
    img = LocalImage(3, fanout=8, key_kind=kind)
    for sid in range(8):
        img.add_shard(info(sid, [sid * 100, 0, 0], [sid * 100 + 60, 50, 50]))
    return img, _Counting(monkeypatch)


_SCALAR_KEY = ("covers_point", "log_volume", "expand_point_inplace", "expand_inplace")
_KIND = ("empty", "from_point", "adopt", "stack", "intersects_many", "covers_points_many")
_RULES = ("smallest_covering", "least_overlap", "halves")
_SCALAR = _SCALAR_KEY + ("from_point",)


@pytest.mark.parametrize("kind", ["mbr", "mds"])
def test_covered_rows_route_by_broadcast(kind, monkeypatch):
    """A property, not a speed: 64 rows that every key already covers
    cost one ``covers_points_many`` per directory on their paths (the
    root's own key being the one child of a directory above it), made
    by the first row's call, and no scalar key call; the second batch
    rebuilds no snapshot."""
    img, counted = _bench_shaped_image(kind, monkeypatch)
    rng = np.random.default_rng(3)
    rows = np.column_stack(
        [
            rng.integers(0, 8, 64) * 100 + rng.integers(0, 61, 64),
            rng.integers(0, 51, 64),
            rng.integers(0, 51, 64),
        ]
    )
    for batch_no in range(2):
        counted.calls.clear()
        calls = counted.calls
        rows = rows.copy()  # what is decided ahead is per batch object
        for i in range(64):
            assert img.route_insert(rows, i).shard_id == rows[i, 0] // 100
            assert img.nodes_visited_last == 2
            assert calls["covers_points_many"] <= 2
        assert img.dirty == set()
        assert not any(calls.get(name) for name in _SCALAR if name != "log_volume")
        if batch_no:  # the snapshots (keys and volumes) are reused
            assert set(calls) == {"covers_points_many"}
    twice = 2 * np.bincount(rows[:, 0] // 100, minlength=8)
    assert [s.size for s in img.shards()] == twice.tolist()


def test_search_builds_no_volumes(monkeypatch):
    """Only insert routing reads the child volumes of a snapshot."""
    img, counted = _bench_shaped_image("mbr", monkeypatch)
    assert len(img.search(box([0, 0, 0], [900, 50, 50]))) == 8
    assert counted.calls == {"stack": 1, "intersects_many": 1}


@pytest.mark.parametrize("kind", ["mbr", "mds"])
def test_growing_rows_do_not_rescan_the_batch(kind, monkeypatch):
    """512 rows that each grow the root: the stretch tried after a
    growing row is twice the covered stretch before it, and after none
    the rows descend alone, so the batch is tested once -- not 512 +
    511 + ... rows.  The first row that grows nothing ends that."""
    img, counted = _bench_shaped_image(kind, monkeypatch)
    rows = np.arange(1000, 1512)[:, None] * np.array([3, 1, 2])
    rows = np.concatenate([rows, rows[:8]])
    for i in range(512):
        img.route_insert(rows, i)
    assert counted.rows == 520 and counted.calls["covers_points_many"] == 1
    for i in range(512, 520):
        img.route_insert(rows, i)
    assert counted.calls["expand_point_inplace"] == (512 + 1) * 2  # root, leaf
    # stretches of 2, 4 and the last row, through two directories each
    assert counted.calls["covers_points_many"] == 1 + 3 * 2
    assert counted.rows == 520 + (2 + 4 + 1) * 2
    for row in rows[::37]:
        assert any(
            s.key.covers_point(row) for s in img.shards()
        )
