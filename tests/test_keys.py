"""Unit and property tests for Box (MBR) keys."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.olap.keys import Box, point_box, union_all


def box(lo, hi):
    return Box(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64))


class TestConstruction:
    def test_empty_is_empty(self):
        assert Box.empty(3).is_empty()
        assert Box.empty(3).log_volume() == float("-inf")

    def test_from_point(self):
        b = Box.from_point(np.array([1, 2, 3]))
        assert not b.is_empty()
        assert b.log_volume() == 0.0

    def test_from_points(self):
        pts = np.array([[0, 5], [3, 1], [2, 2]])
        b = Box.from_points(pts)
        assert b == box([0, 1], [3, 5])

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            Box.from_points(np.empty((0, 2), dtype=np.int64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Box(np.array([1, 2]), np.array([3]))

    def test_no_copy_takes_lists_and_int32(self):
        """``copy=False`` converts what is not int64 and views what is
        (on NumPy >= 2 ``np.array(copy=False)`` refuses to convert)."""
        for lo, hi in (([1, 2], [3, 4]), (np.array([1, 2], np.int32), np.array([3, 4], np.int32))):
            b = Box(lo, hi, copy=False)
            assert b.lo.dtype == np.int64 and b == box([1, 2], [3, 4])
        rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
        b = Box(rows[0], rows[1], copy=False)
        assert np.shares_memory(b.lo, rows) and np.shares_memory(b.hi, rows)
        assert not np.shares_memory(Box(rows[0], rows[1]).lo, rows)

    def test_stack_binds_each_box_to_its_row(self):
        boxes = [box([0, 0], [3, 4]), Box.empty(2), box([5, 1], [9, 2])]
        copy = Box.stack(boxes)
        block = Box.stack(boxes, bind=True)
        assert block.shape == (3, 2, 2) and np.array_equal(block, copy)
        for b, row in zip(boxes, block):
            assert np.shares_memory(b.lo, row) and np.shares_memory(b.hi, row)
        assert boxes[1].expand_point_inplace(np.array([7, 7]))
        assert boxes[2].expand_point_inplace(np.array([0, 9]))
        assert block[1].tolist() == [[7, 7], [7, 7]]
        assert block[2].tolist() == [[0, 1], [9, 9]]
        assert np.array_equal(copy[1:], Box.stack([Box.empty(2), box([5, 1], [9, 2])]))


class TestPredicates:
    def test_contains_point(self):
        b = box([0, 0], [10, 10])
        assert b.covers_point(np.array([5, 5]))
        assert b.covers_point(np.array([0, 10]))
        assert not b.covers_point(np.array([11, 5]))

    def test_contains_points_vectorized(self):
        b = box([0, 0], [4, 4])
        pts = np.array([[0, 0], [4, 4], [5, 0], [2, 2]])
        assert b.contains_points(pts).tolist() == [True, True, False, True]

    def test_contains_box(self):
        outer = box([0, 0], [10, 10])
        inner = box([2, 3], [5, 6])
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(Box.empty(2))

    def test_intersects(self):
        a = box([0, 0], [5, 5])
        b2 = box([5, 5], [9, 9])  # share corner point
        c = box([6, 6], [9, 9])
        assert a.intersects_box(b2)
        assert not a.intersects_box(c)
        assert not a.intersects_box(Box.empty(2))


class TestMeasures:
    def test_volume_counts_lattice_points(self):
        assert box([0, 0], [1, 2]).log_volume() == pytest.approx(np.log2(6.0))

    def test_log_volume(self):
        assert box([0], [7]).log_volume() == pytest.approx(3.0)
        assert Box.empty(2).log_volume() == float("-inf")

    def test_overlap_volume(self):
        a = box([0, 0], [4, 4])
        b2 = box([3, 3], [6, 6])
        assert a.log_overlap_volume(b2) == pytest.approx(2.0)  # 2x2 lattice points
        assert b2.log_overlap_volume(a) == pytest.approx(2.0)

    def test_log_overlap_volume_disjoint(self):
        a = box([0, 0], [4, 4])
        assert a.log_overlap_volume(box([9, 9], [10, 10])) == float("-inf")


class TestCombination:
    def test_union(self):
        a = box([0, 0], [1, 1])
        b2 = box([3, 3], [4, 4])
        assert a.expand_inplace(b2)
        assert a == box([0, 0], [4, 4])

    def test_union_with_empty(self):
        a = box([0, 0], [1, 1])
        assert not a.expand_inplace(Box.empty(2))
        assert a == box([0, 0], [1, 1])
        grown = Box.empty(2)
        assert grown.expand_inplace(a)
        assert grown == a

    def test_expand_inplace_reports_change(self):
        a = box([0, 0], [5, 5])
        assert not a.expand_inplace(box([1, 1], [2, 2]))
        assert a.expand_inplace(box([0, 0], [6, 5]))
        assert a == box([0, 0], [6, 5])

    def test_expand_point_inplace(self):
        a = Box.empty(2)
        assert a.expand_point_inplace(np.array([3, 4]))
        assert a == box([3, 4], [3, 4])
        assert not a.expand_point_inplace(np.array([3, 4]))

    def test_covered_growth_writes_nothing(self):
        """A covered point, rows or box return before touching the key
        (read-only bounds raise on any write)."""
        a = box([0, 0], [5, 5])
        a.lo.flags.writeable = a.hi.flags.writeable = False
        assert not a.expand_point_inplace(np.array([5, 0]))
        assert not a.expand_points_inplace(np.array([[1, 2], [4, 5]]))
        assert not a.expand_inplace(box([1, 1], [5, 4]))
        assert a == box([0, 0], [5, 5])

    def test_union_all(self):
        boxes = [box([0, 0], [1, 1]), box([5, 5], [6, 6])]
        assert union_all(boxes) == box([0, 0], [6, 6])
        assert union_all([], num_dims=2).is_empty()
        with pytest.raises(ValueError):
            union_all([])


class TestMisc:
    def test_roundtrip_tuple(self):
        a = box([1, 2], [3, 4])
        assert Box.from_tuple(a.to_tuple()) == a

    def test_point_box(self):
        assert point_box([1, 2]).log_volume() == 0.0

    def test_copy_is_independent(self):
        a = box([0, 0], [1, 1])
        b2 = a.copy()
        b2.expand_point_inplace(np.array([9, 9]))
        assert a == box([0, 0], [1, 1])

    def test_empty_boxes_equal(self):
        """Every empty box of one dimension count is one box, whatever
        its bounds, with one hash; an empty box of another count is not
        it."""
        assert Box.empty(2) == Box.empty(2)
        inverted = box([5, 0], [1, 3])
        assert inverted.is_empty() and inverted == Box.empty(2)
        assert hash(inverted) == hash(Box.empty(2))
        assert len({inverted, Box.empty(2), box([0, 9], [-1, 3])}) == 1
        assert Box.empty(2) != Box.empty(3)
        assert Box.empty(2) != box([0, 0], [1, 1])
        assert hash(box([0, 0], [1, 1])) == hash(box([0, 0], [1, 1]))


coords = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=3, max_size=3
)


@given(coords, coords, coords)
def test_union_contains_both(a, b, c):
    """Property: the union of boxes contains both operands."""
    b1 = Box.from_points(np.array([a, b]))
    b2 = Box.from_points(np.array([b, c]))
    u = b1.copy()
    u.expand_inplace(b2)
    assert u.covers(b1)
    assert u.covers(b2)


@given(coords, coords, coords, coords)
def test_overlap_symmetric_and_bounded(a, b, c, d):
    """Property: overlap is symmetric and no larger than either volume."""
    b1 = Box.from_points(np.array([a, b]))
    b2 = Box.from_points(np.array([c, d]))
    ov = b1.log_overlap_volume(b2)
    assert ov == b2.log_overlap_volume(b1)
    assert ov <= min(b1.log_volume(), b2.log_volume()) + 1e-9
