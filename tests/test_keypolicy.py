"""Tests for the key interface (Box and MDS alike): the key methods,
the kind-level staticmethods of the key classes (factories, block
kernels), the one lookup from key kind to class, and the placement
rules written over the key methods."""

import numpy as np
import pytest

from repro.core import placement
from repro.core.config import key_class
from repro.olap.keys import Box, union_all
from repro.olap.mds import MDS


@pytest.fixture(params=[Box, MDS], ids=["mbr", "mds"])
def kind(request):
    """A key class: the trees and the image hold it and call its keys."""
    return request.param


class TestFactory:
    def test_kinds(self):
        assert key_class("mbr") is Box
        assert key_class("mds") is MDS

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            key_class("nope")


class TestUniformBehaviour:
    """Both key kinds answer one interface, under the contracts the
    trees and the image rely on."""

    def test_from_point_covers_point(self, kind):
        pt = np.array([3, 7])
        key = kind.from_point(pt)
        assert key.covers_point(pt)

    def test_expand_point_reports_change(self, kind):
        key = kind.from_point(np.array([0, 0]))
        assert key.expand_point_inplace(np.array([5, 5]))
        assert not key.expand_point_inplace(np.array([0, 0]))

    def test_expand_key(self, kind):
        a = kind.from_point(np.array([0, 0]))
        b = kind.from_point(np.array([9, 9]))
        assert a.expand_inplace(b)
        assert a.covers_point(np.array([9, 9]))

    def test_intersects_and_within(self, kind):
        key = kind.from_point(np.array([5, 5]))
        key.expand_point_inplace(np.array([7, 7]))
        big = Box(np.array([0, 0]), np.array([10, 10]))
        small = Box(np.array([7, 7]), np.array([7, 7]))
        off = Box(np.array([20, 20]), np.array([30, 30]))
        assert key.intersects_box(big)
        assert key.intersects_box(small)
        assert not key.intersects_box(off)
        assert key.within_box(big)
        assert not key.within_box(small)

    def test_empty_key_semantics(self, kind):
        key = kind.empty(2)
        box = Box(np.array([0, 0]), np.array([10, 10]))
        assert not key.intersects_box(box)
        everything = Box(np.array([0, 0]), np.array([2**40, 2**40]))
        for outer in (box, everything, Box.empty(2)):
            assert not key.within_box(outer)  # an empty key is within no box

    def test_log_overlap_symmetry(self, kind):
        a = kind.from_point(np.array([0, 0]))
        a.expand_point_inplace(np.array([5, 5]))
        b = kind.from_point(np.array([3, 3]))
        b.expand_point_inplace(np.array([8, 8]))
        assert a.log_overlap_volume(b) == b.log_overlap_volume(a)

    def test_log_overlap_disjoint_is_neg_inf(self, kind):
        a = kind.from_point(np.array([0, 0]))
        b = kind.from_point(np.array([50, 50]))
        assert a.log_overlap_volume(b) == float("-inf")

    def test_union_of(self, kind):
        keys = [
            kind.from_point(np.array([i * 10, i * 10])) for i in range(3)
        ]
        u = union_all(keys)
        assert type(u) is kind
        for i in range(3):
            assert u.covers_point(np.array([i * 10, i * 10]))

    def test_mbr_extraction(self, kind):
        key = kind.from_point(np.array([2, 3]))
        key.expand_point_inplace(np.array([8, 1]))
        mbr = key.mbr()
        assert isinstance(mbr, Box) and mbr is not key
        assert mbr.lo.tolist() == [2, 1]
        assert mbr.hi.tolist() == [8, 3]

    def test_copy_is_independent(self, kind):
        key = kind.from_point(np.array([0, 0]))
        cp = key.copy()
        cp.expand_point_inplace(np.array([9, 9]))
        assert not key.covers_point(np.array([9, 9]))

    def test_covers(self, kind):
        a = kind.from_point(np.array([0, 0]))
        a.expand_point_inplace(np.array([10, 10]))
        b = kind.from_point(np.array([10, 10]))
        assert a.covers(b)
        c = kind.from_point(np.array([40, 40]))
        assert not a.covers(c)


class TestPolicyDifferences:
    def test_mds_excludes_gaps_mbr_does_not(self):
        """The structural difference that motivates MDS keys."""
        probe = Box(np.array([50]), np.array([50]))
        k_mbr = Box.from_point(np.array([0]))
        k_mbr.expand_point_inplace(np.array([100]))
        k_mds = MDS.from_point(np.array([0]))
        k_mds.expand_point_inplace(np.array([100]))
        assert k_mbr.intersects_box(probe)
        assert not k_mds.intersects_box(probe)


class TestAdoptAcrossCaps:
    """Wire keys carry their own cap; adopting one yields the default."""

    def test_same_cap_is_a_plain_copy(self):
        key = MDS([[(0, 1), (5, 6), (9, 9)]], max_intervals=4)
        out = MDS.adopt(key)
        assert out == key and out is not key and out.max_intervals == 4
        out.expand_point_inplace([50])
        assert not key.covers_point([50])

    def test_narrower_cap_coalesces(self):
        key = MDS([[(0, 1), (5, 6), (9, 9), (20, 21), (100, 101)]], max_intervals=6)
        out = MDS.adopt(key)
        assert out.max_intervals == 4
        assert out.intervals == [[[0, 1], [5, 9], [20, 21], [100, 101]]]
        narrow = MDS([[(0, 9), (100, 101)]], max_intervals=2)
        wide = MDS.adopt(narrow)
        assert wide.max_intervals == 4 and wide == narrow


def test_covers_points_many_is_covers_point(kind):
    rng = np.random.default_rng(11)
    keys = [kind.empty(3)]
    for _ in range(5):
        key = kind.empty(3)
        key.expand_points_inplace(rng.integers(0, 60, (6, 3)))
        keys.append(key)
    rows = rng.integers(0, 60, (200, 3))
    got = kind.covers_points_many(kind.stack(keys), rows)
    assert got.shape == (200, 6)
    assert got.tolist() == [
        [key.covers_point(row) for key in keys] for row in rows
    ]
    assert kind.covers_points_many(kind.stack(keys), rows[:0]).shape == (0, 6)


def test_classify_is_intersects_and_within(kind):
    """On the raw block, hit and within equal the keys' own answers --
    empty keys and, for MDS, unused slots included -- and the block is
    read, never written."""
    rng = np.random.default_rng(12)
    keys = [kind.empty(3)]
    for n in (1, 3, 6, 6, 6, 20):
        key = kind.empty(3)
        key.expand_points_inplace(rng.integers(0, 60, (n, 3)))
        keys.append(key)
    block = kind.stack(keys)
    block.flags.writeable = False
    for _ in range(300):
        lo = rng.integers(0, 60, 3)
        box = Box(lo, lo + rng.integers(0, 60, 3))
        hit, within = kind.classify(block, box.lo, box.hi)
        assert hit.tolist() == [k.intersects_box(box) for k in keys]
        assert within.tolist() == [k.within_box(box) for k in keys]
        assert kind.intersects_many(block, box.lo, box.hi).tolist() == hit.tolist()
    whole = Box(np.zeros(3, dtype=np.int64), np.full(3, 60))
    assert kind.classify(block, whole.lo, whole.hi)[1].tolist() == [False] + [True] * 6


# -- placement rules --------------------------------------------------------


def _key(kind, lo, hi=None):
    """The solid box ``lo..hi`` (a point without ``hi``) as a key."""
    hi = lo if hi is None else hi
    return kind.adopt(Box(np.array(lo), np.array(hi)))


def _grown(keys, row):
    grown = [k.copy() for k in keys]
    for g in grown:
        g.expand_point_inplace(np.array(row))
    return grown


def _grow_row(key, row):
    return key.expand_point_inplace(row)


def _grow_key(key, other):
    return key.expand_inplace(other)


class TestPlacementRules:
    def test_smallest_covering_first_of_equal_volumes(self, kind):
        keys = [
            _key(kind, [0, 0], [9, 9]),
            _key(kind, [2, 2], [4, 4]),
            _key(kind, [3, 3], [5, 5]),  # same volume, later
            _key(kind, [40, 40]),
        ]
        assert placement.smallest_covering(keys, np.array([3, 3])) == 1
        assert placement.smallest_covering(keys, np.array([5, 5])) == 2
        assert placement.smallest_covering(keys, np.array([8, 8])) == 0

    def test_smallest_covering_none_when_nothing_covers(self, kind):
        keys = [_key(kind, [0, 0], [9, 9]), kind.empty(2)]
        assert placement.smallest_covering(keys, np.array([20, 3])) is None
        assert placement.smallest_covering([], np.array([0, 0])) is None

    def test_least_overlap_is_the_scalar_loop(self, kind):
        from .conftest import reference_least_overlap

        rng = np.random.default_rng(7)
        for _ in range(300):
            keys = []
            for _ in range(int(rng.integers(1, 7))):
                key = kind.empty(2)
                key.expand_points_inplace(rng.integers(0, 50, (int(rng.integers(1, 4)), 2)))
                keys.append(key)
            row = rng.integers(0, 60, 2)
            grown = _grown(keys, row)
            want = reference_least_overlap(kind, keys, grown, 2)
            assert placement.least_overlap(kind, keys, grown, 2) == want

    def test_disjoint_siblings_go_by_relative_growth(self, kind):
        """Every grown key misses its siblings (overlap -inf), so the
        least relative growth decides -- not the least absolute one."""
        from .conftest import reference_least_overlap

        keys = [
            _key(kind, [0, 0]),  # 1 cell more: twice the volume
            _key(kind, [3, 0], [102, 1]),  # 4 cells more: 2 % growth
        ]
        grown = _grown(keys, [1, 0])
        assert grown[0].log_overlap_volume(keys[1]) == float("-inf")
        assert grown[1].log_overlap_volume(keys[0]) == float("-inf")
        assert placement.least_overlap(kind, keys, grown, 2) == 1
        assert reference_least_overlap(kind, keys, grown, 2) == 1

    def test_exact_ties_go_to_the_first(self, kind):
        a, b = _key(kind, [0], [1]), _key(kind, [5], [6])
        # row 3 grows either key by the same factor, overlapping nothing
        assert placement.least_overlap(kind, [a, b], _grown([a, b], [3]), 1) == 0
        assert placement.least_overlap(kind, [b, a], _grown([b, a], [3]), 1) == 0
        same = [_key(kind, [0, 0], [4, 4]) for _ in range(3)]
        assert placement.least_overlap(kind, same, _grown(same, [7, 7]), 2) == 0

    def test_least_overlap_split_keeps_min_fill(self, kind):
        # the only disjoint cut (1) leaves one entry: below a quarter
        rows = [np.array([100])] + [np.array([0])] * 7
        assert placement.least_overlap_split(kind, rows, _grow_row, 1) == 4
        # a disjoint cut inside the fill bounds wins over the middle
        rows = [np.array([0])] * 3 + [np.array([10])] * 5
        assert placement.least_overlap_split(kind, rows, _grow_row, 1) == 3

    def test_least_overlap_split_ties_go_to_the_middle(self, kind):
        for n in (2, 7, 8, 9):
            sequential = [np.array([i]) for i in range(n)]  # every cut disjoint
            assert placement.least_overlap_split(kind, sequential, _grow_row, 1) == n // 2
            same = [np.array([3, 3])] * n  # every cut overlaps alike
            assert placement.least_overlap_split(kind, same, _grow_row, 2) == n // 2
            keys = [kind.from_point(r) for r in sequential]
            assert placement.least_overlap_split(kind, keys, _grow_key, 1) == n // 2

    def test_least_overlap_split_is_the_best_cut(self, kind):
        """Against every cut's two sides built on their own (the suffix
        from the end, as the scan grows it)."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 14))
            rows = list(rng.integers(0, 30, (n, 2)))
            lo = max(1, n // 4)
            ranks = []
            for i in range(lo, n - lo + 1):
                left, right = kind.empty(2), kind.empty(2)
                for r in rows[:i]:
                    left.expand_point_inplace(r)
                for r in reversed(rows[i:]):
                    right.expand_point_inplace(r)
                ranks.append((left.log_overlap_volume(right), abs(i - n // 2), i))
            want = min(ranks)[2]
            assert placement.least_overlap_split(kind, rows, _grow_row, 2) == want

    def test_halves_stable_median_of_widest_dimension(self, kind):
        # dim 1 spreads widest; 0 before 3 and 1 before 2 among equals
        points = np.array([[2, 0], [0, 5], [2, 5], [0, 0], [1, 3]])
        left, right = placement.halves(points)
        assert left.tolist() == [0, 3]
        assert right.tolist() == [4, 1, 2]
        left, right = placement.halves([[7.5, 1.0]] * 4)
        assert left.tolist() == [0, 1] and right.tolist() == [2, 3]
