"""Unit and property tests for MDS (interval-set) keys."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keypolicy import MBRPolicy
from repro.olap.keys import Box
from repro.olap.mds import MDS

from .conftest import reference_mds_grow


def box(lo, hi):
    return Box(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))


class TestConstruction:
    def test_empty(self):
        m = MDS.empty(2)
        assert m.is_empty()
        assert m.num_dims == 2

    def test_from_point(self):
        m = MDS.from_point(np.array([3, 5]))
        assert m.covers_point([3, 5])
        assert not m.covers_point([3, 6])

    def test_from_box(self):
        m = MDS.from_box(box([0, 0], [4, 4]))
        assert m.covers_point([2, 2])
        assert m.mbr() == box([0, 0], [4, 4])

    def test_explicit_intervals(self):
        m = MDS([[(0, 3), (10, 12)], [(5, 5)]])
        assert m.covers_point([2, 5])
        assert m.covers_point([11, 5])
        assert not m.covers_point([5, 5])

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValueError):
            MDS([[(0, 5), (3, 8)]])

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            MDS([], max_intervals=0)


class TestExpansion:
    def test_expand_point_adds_interval(self):
        m = MDS.from_point(np.array([0, 0]))
        assert m.expand_point_inplace([10, 0])
        assert m.covers_point([10, 0])
        assert not m.covers_point([5, 0])  # gap preserved: MDS is tight

    def test_expand_point_merges_adjacent(self):
        m = MDS.from_point(np.array([4]))
        m.expand_point_inplace([5])
        assert m.intervals[0] == [[4, 5]]

    def test_expand_point_noop_when_covered(self):
        m = MDS.from_box(box([0], [9]))
        assert not m.expand_point_inplace([5])

    def test_cap_forces_coalescing(self):
        m = MDS.empty(1, max_intervals=2)
        m.expand_point_inplace([0])
        m.expand_point_inplace([10])
        m.expand_point_inplace([12])  # closest to 10 -> merged with it
        assert m.intervals[0] == [[0, 0], [10, 12]]
        m.expand_point_inplace([100])
        assert len(m.intervals[0]) == 2

    def test_expand_with_other_mds(self):
        a = MDS.from_point(np.array([0, 0]))
        b = MDS.from_point(np.array([9, 9]))
        assert a.expand_inplace(b)
        assert a.covers_point([9, 9])
        assert a.covers_point([0, 0])

    def test_expand_box(self):
        m = MDS.empty(2)
        assert m.expand_inplace(MDS.from_box(box([1, 1], [2, 2])))
        assert m.covers_point([2, 1])
        assert not m.expand_inplace(MDS.from_box(box([1, 1], [2, 2])))


class TestPredicates:
    def test_intersects_box(self):
        m = MDS([[(0, 3), (10, 12)], [(0, 9)]])
        assert m.intersects_box(box([2, 5], [4, 6]))
        assert not m.intersects_box(box([5, 0], [8, 9]))  # falls in the gap

    def test_within_box(self):
        m = MDS([[(2, 3), (5, 6)], [(1, 1)]])
        assert m.within_box(box([0, 0], [9, 9]))
        assert not m.within_box(box([3, 0], [9, 9]))

    def test_empty_behaviour(self):
        m = MDS.empty(2)
        assert not m.intersects_box(box([0, 0], [9, 9]))
        assert not m.within_box(box([0, 0], [9, 9]))  # within no box


class TestMeasures:
    def test_side_lengths_sum_intervals(self):
        m = MDS([[(0, 3), (10, 12)]])
        assert m.side_lengths().tolist() == [7.0]

    def test_overlap_lengths(self):
        a = MDS([[(0, 5), (10, 15)]])
        b = MDS([[(4, 11)]])
        assert a.overlap_lengths(b).tolist() == [2.0 + 2.0]

    def test_log_overlap_volume_disjoint(self):
        a = MDS([[(0, 5)], [(0, 5)]])
        b = MDS([[(7, 9)], [(0, 5)]])
        assert a.log_overlap_volume(b) == float("-inf")

    def test_log_volume(self):
        m = MDS([[(0, 7)], [(0, 3)]])
        assert m.log_volume() == pytest.approx(3.0 + 2.0)


class TestTightness:
    def test_mds_tighter_than_mbr_on_clustered_data(self):
        """The motivating property: two clusters -> MBR covers the gap, MDS not."""
        m = MDS.empty(1)
        for v in [0, 1, 2, 100, 101, 102]:
            m.expand_point_inplace([v])
        assert m.side_lengths()[0] == 6.0
        mbr = m.mbr()
        assert mbr.side_lengths()[0] == 103.0

    def test_copy_independent(self):
        a = MDS.from_point(np.array([1]))
        b = a.copy()
        b.expand_point_inplace([50])
        assert not a.covers_point([50])


@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=6),
)
def test_mds_always_covers_inserted_points(values, cap):
    """Property: every inserted point stays covered regardless of coalescing."""
    m = MDS.empty(1, max_intervals=cap)
    for v in values:
        m.expand_point_inplace([v])
        assert m.covers_point([v])
    for v in values:
        assert m.covers_point([v])
    assert len(m.intervals[0]) <= cap
    # intervals stay sorted and disjoint
    ivs = m.intervals[0]
    for a, b in zip(ivs, ivs[1:]):
        assert a[1] < b[0] - 1 or a[1] < b[0]


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20),
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20),
)
def test_union_covers_both(xs, ys):
    """Property: union of two MDS covers everything either one covered."""
    a = MDS.empty(1)
    b = MDS.empty(1)
    for x in xs:
        a.expand_point_inplace([x])
    for y in ys:
        b.expand_point_inplace([y])
    u = a.copy()
    u.expand_inplace(b)
    for v in xs + ys:
        assert u.covers_point([v])


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=15))
def test_mbr_contains_mds(values):
    """Property: the MBR of an MDS contains every covered point."""
    m = MDS.empty(1, max_intervals=3)
    for v in values:
        m.expand_point_inplace([v])
    mbr = m.mbr()
    for v in range(61):
        if m.covers_point([v]):
            assert mbr.covers_point(np.array([v]))


# -- the block: cap, memory, Python ints ------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=400), min_size=2, max_size=40),
    st.integers(min_value=1, max_value=4),
)
def test_batch_growth_respects_the_cap(values, cap):
    """Batch growth never exceeds the cap (cap 1 used to keep every
    interval), covers every point, and is the point-by-point key of
    the sorted values, equal gaps included: both keep the leftmost."""
    col = np.array(values, dtype=np.int64)[:, None]
    batch = MDS.empty(1, max_intervals=cap)
    assert batch.expand_points_inplace(col)
    ivs = batch.intervals[0]
    assert 1 <= len(ivs) <= cap
    assert all(batch.covers_point([v]) for v in values)
    one_by_one = MDS.empty(1, max_intervals=cap)
    for v in sorted(set(values)):
        one_by_one.expand_point_inplace([v])
    assert batch == one_by_one


def test_cap_one_batch_is_one_interval():
    m = MDS.empty(1, 1)
    m.expand_points_inplace(np.array([[0], [10], [20], [30]]))
    assert m.intervals == [[[0, 30]]]


def test_equal_gaps_keep_the_leftmost():
    """Four equal gaps, two kept: the leftmost two, whether the key
    grows by a batch, is built for a segment or grows point by point."""
    col = np.array([[0], [10], [20], [30], [40]])
    grown = MDS.empty(1, 3)
    grown.expand_points_inplace(col)
    assert grown.intervals == [[[0, 0], [10, 10], [20, 40]]]
    assert MDS.of_segments(col, np.array([0]), 3) == [grown]
    one_by_one = MDS.empty(1, 3)
    for v in col.ravel():
        one_by_one.expand_point_inplace([v])
    assert one_by_one == grown


# -- growth: the list routine against the numpy rule it replaced --------------


@st.composite
def _built_key(draw, d, cap, span=60):
    """An empty key, or one from the ``MDS(...)`` constructor: up to
    eight intervals a dimension, adjacent ones common (the constructor
    keeps them apart) and more than ``cap`` coalesced."""
    if draw(st.booleans()):
        return MDS.empty(d, cap)
    dims = []
    for _ in range(d):
        ivs, at = [], draw(st.integers(0, 10))
        for _ in range(draw(st.integers(0, 8))):
            hi = at + draw(st.integers(0, 4))
            ivs.append((at, hi))
            at = hi + 1 + draw(st.sampled_from([0, 0, 1, 3, 7]))
        dims.append([iv for iv in ivs if iv[1] <= span])
    return MDS(dims, max_intervals=cap)


@st.composite
def _growths(draw):
    """A key of cap 1-6 and the growths it takes in turn: lone rows,
    multi-row slices (past the 64 where ``_merge_values`` turns to
    numpy, now and then) and other keys, on ids from a coarse grid so
    that duplicate ids and equal gaps are common."""
    d = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 6))
    step = draw(st.sampled_from([1, 2, 5]))
    key = draw(_built_key(d, cap))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["point", "rows", "key"]))
        if kind == "key":
            steps.append(draw(_built_key(d, draw(st.integers(1, 6)))))
            continue
        n = 1 if kind == "point" else draw(st.sampled_from([1, 2, 3, 6, 10, 70]))
        ids = draw(st.lists(st.integers(0, 12), min_size=n * d, max_size=n * d))
        steps.append(np.array(ids, dtype=np.int64).reshape(n, d) * step)
    return key, steps


@settings(max_examples=300, deadline=None)
@given(_growths())
def test_growth_is_the_reference_rule(case):
    """Block for block and in its return value, every growth equals the
    numpy rule it replaced (``conftest.reference_mds_grow``)."""
    key, steps = case
    ref = key.copy()
    for by in steps:
        if isinstance(by, MDS):
            grew = key.expand_inplace(by)
        elif len(by) == 1 and by[0, 0] % 2:  # both lone-row entry points
            grew = key.expand_point_inplace(by[0])
        else:
            grew = key.expand_points_inplace(by)
        assert grew == reference_mds_grow(ref, by)
        assert np.array_equal(key._iv, ref._iv)


def test_covered_growth_writes_nothing(monkeypatch):
    """Rows and keys the key already holds are decided by bisects on
    the block's lists alone: no interval algorithm runs and the block
    is not written (a read-only one raises on any write)."""
    from repro.olap import mds

    for name in ("_insert_value", "_merge_values"):
        monkeypatch.setattr(mds, name, lambda *a, _name=name: pytest.fail(_name))
    key = MDS([[(0, 3), (4, 4), (10, 12)], [(5, 9)]], max_intervals=3)
    before = key._iv.tobytes()
    key._iv.flags.writeable = False
    assert not key.expand_point_inplace([11, 5])
    assert not key.expand_points_inplace(np.array([[0, 9], [4, 6], [12, 5]]))
    assert not key.expand_points_inplace(np.empty((0, 2), dtype=np.int64))
    assert not key.expand_inplace(MDS([[(1, 2), (10, 11)], [(6, 8)]]))
    assert not key.expand_inplace(MDS.empty(2))
    assert key._iv.tobytes() == before


# -- the leaf-key builder: every segment's key in one pass -------------------


@st.composite
def _segments(draw):
    """Rows cut into segments of one fill with a short last one; ids
    from a small range on a coarse grid, so duplicate ids and equal
    gaps are common."""
    d = draw(st.integers(1, 4))
    fill = draw(st.integers(2, 64))
    n = draw(st.integers(1, 3 * fill))
    step = draw(st.sampled_from([1, 2, 5]))
    ids = draw(st.lists(st.integers(0, 40), min_size=n * d, max_size=n * d))
    coords = np.array(ids, dtype=np.int64).reshape(n, d) * step
    return coords, np.arange(0, n, fill)


def _bounds(coords, starts):
    ends = starts.tolist()[1:] + [len(coords)]
    return list(zip(starts.tolist(), ends))


@settings(max_examples=300, deadline=None)
@given(_segments(), st.integers(1, 6))
def test_segment_keys_are_the_grown_keys(segments, cap):
    """Block for block what ``expand_points_inplace`` grows from empty."""
    coords, starts = segments
    keys = MDS.of_segments(coords, starts, cap)
    assert len(keys) == len(starts)
    for key, (s, e) in zip(keys, _bounds(coords, starts)):
        grown = MDS.empty(coords.shape[1], cap)
        grown.expand_points_inplace(coords[s:e])
        assert np.array_equal(key._iv, grown._iv)


@settings(max_examples=100, deadline=None)
@given(_segments())
def test_mbr_segment_keys_are_min_max(segments):
    coords, starts = segments
    keys = MBRPolicy().segment_keys(coords, starts)
    for key, (s, e) in zip(keys, _bounds(coords, starts)):
        assert np.array_equal(key.lo, coords[s:e].min(axis=0))
        assert np.array_equal(key.hi, coords[s:e].max(axis=0))


def _leaf_keys(n, points=48, dims=8):
    rng = np.random.default_rng(5)
    keys = []
    for _ in range(n):
        key = MDS.empty(dims)
        key.expand_points_inplace(rng.integers(0, 1000, (points, dims)))
        keys.append(key)
    return keys


def test_a_key_is_one_block():
    """1 000 leaf-sized keys cost under 1 KB each (nested interval
    lists were about 5 KB) and own nothing but one int64 array."""
    import tracemalloc

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    keys = _leaf_keys(1000)
    per_key = (tracemalloc.get_traced_memory()[0] - before) / len(keys)
    tracemalloc.stop()
    assert per_key <= 1024
    key = keys[0]
    assert MDS.__slots__ == ("_iv",)
    assert type(key._iv) is np.ndarray and key._iv.dtype == np.int64
    assert key._iv.shape == (2, 8, key.max_intervals)
    assert all(1 <= len(ivs) <= key.max_intervals for ivs in key.intervals)


def test_growth_is_in_place():
    """The image's ``ShardInfo.key is leaf.key`` and the trees'
    directory blocks both rely on a key growing inside its own block."""
    key = MDS.from_point(np.array([5, 5]))
    block = key._iv
    key.expand_point_inplace([9, 1])
    key.expand_points_inplace(np.array([[20, 20], [40, 2]]))
    key.expand_inplace(MDS.from_box(box([60, 60], [70, 70])))
    key.expand_inplace(MDS.from_point(np.array([90, 90])))
    assert key._iv is block
    assert key.covers_point([90, 90]) and key.covers_point([65, 61])


def test_stack_binds_each_key_to_its_row():
    """A directory's block is the one copy of its children's keys:
    ``stack(bind=True)`` makes each key a view of its row, so growth
    writes into the block; without ``bind`` the block is a copy."""
    keys = _leaf_keys(16)
    copy = MDS.stack(keys)
    block = MDS.stack(keys, bind=True)
    assert block.shape == (16, 2, 8, keys[0].max_intervals)
    assert np.array_equal(block, copy)
    for key, row in zip(keys, block):
        assert np.shares_memory(key._iv, row) and key._iv.shape == row.shape
        assert not np.shares_memory(key._iv, copy)
    grown = keys[3].copy()
    assert keys[3].expand_point_inplace(np.full(8, 5000))
    grown.expand_point_inplace(np.full(8, 5000))
    assert np.array_equal(block[3], grown._iv)
    assert not np.array_equal(copy[3], grown._iv)


def _all_python_ints(obj):
    if isinstance(obj, (tuple, list)):
        return all(_all_python_ints(x) for x in obj)
    return type(obj) in (int, str)


def test_keys_leave_the_block_as_python_ints():
    """An ``np.int64`` leaking out of the block would change znode
    values and checkpoint pickles without failing an equality test."""
    from repro.cluster.wire import key_to_wire

    key = _leaf_keys(1)[0]
    key.expand_inplace(MDS.from_box(box([2000] * 8, [2001] * 8)))
    assert _all_python_ints(key.to_tuple())
    assert _all_python_ints(key.intervals)
    assert _all_python_ints(key_to_wire(key))
    assert _all_python_ints(key_to_wire(key.mbr()))
