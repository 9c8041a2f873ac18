"""Tests for the key interface (Box and MDS alike) and the key-policy
layer above it: kind-level factories, packed kernels, placement rules."""

import numpy as np
import pytest

from repro.core.keypolicy import MBRPolicy, MDSPolicy, make_policy
from repro.olap.keys import Box
from repro.olap.mds import MDS


@pytest.fixture(params=["mbr", "mds"])
def policy(request):
    return make_policy(request.param)


@pytest.fixture(params=[Box, MDS], ids=["mbr", "mds"])
def kind(request):
    """A key class: the trees and the image call its keys directly."""
    return request.param


class TestFactory:
    def test_kinds(self):
        assert make_policy("mbr").kind == "mbr"
        assert make_policy("mds").kind == "mds"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("nope")


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

    def test_union_of(self, policy):
        keys = [
            policy.from_point(np.array([i * 10, i * 10])) for i in range(3)
        ]
        u = policy.union_of(keys, 2)
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
        k_mbr = MBRPolicy().from_point(np.array([0]))
        k_mbr.expand_point_inplace(np.array([100]))
        k_mds = MDSPolicy().from_point(np.array([0]))
        k_mds.expand_point_inplace(np.array([100]))
        assert k_mbr.intersects_box(probe)
        assert not k_mds.intersects_box(probe)


class TestAdoptAcrossCaps:
    """Wire keys carry their own cap; adopting one yields the policy's."""

    def test_same_cap_is_a_plain_copy(self):
        key = MDS([[(0, 1), (5, 6), (9, 9)]], max_intervals=4)
        out = MDSPolicy().adopt(key)
        assert out == key and out is not key and out.max_intervals == 4
        out.expand_point_inplace([50])
        assert not key.covers_point([50])

    def test_narrower_cap_coalesces(self):
        key = MDS([[(0, 1), (5, 6), (9, 9), (20, 21), (100, 101)]], max_intervals=6)
        out = MDSPolicy().adopt(key)
        assert out.max_intervals == 4
        assert out.intervals == [[[0, 1], [5, 9], [20, 21], [100, 101]]]
        narrow = MDS([[(0, 9), (100, 101)]], max_intervals=2)
        wide = MDSPolicy().adopt(narrow)
        assert wide.max_intervals == 4 and wide == narrow


def test_covers_points_many_is_covers_point(policy):
    rng = np.random.default_rng(11)
    keys = [policy.empty(3)]
    for _ in range(5):
        key = policy.empty(3)
        key.expand_points_inplace(rng.integers(0, 60, (6, 3)))
        keys.append(key)
    rows = rng.integers(0, 60, (200, 3))
    got = policy.covers_points_many(policy.stack(keys), rows)
    assert got.shape == (200, 6)
    assert got.tolist() == [
        [key.covers_point(row) for key in keys] for row in rows
    ]
    assert policy.covers_points_many(policy.stack(keys), rows[:0]).shape == (0, 6)


def test_classify_is_intersects_and_within(policy):
    """On the raw block, hit and within equal the keys' own answers --
    empty keys and, for MDS, unused slots included -- and the block is
    read, never written."""
    rng = np.random.default_rng(12)
    keys = [policy.empty(3)]
    for n in (1, 3, 6, 6, 6, 20):
        key = policy.empty(3)
        key.expand_points_inplace(rng.integers(0, 60, (n, 3)))
        keys.append(key)
    block = policy.stack(keys)
    block.flags.writeable = False
    for _ in range(300):
        lo = rng.integers(0, 60, 3)
        box = Box(lo, lo + rng.integers(0, 60, 3))
        hit, within = policy.classify(block, box.lo, box.hi)
        assert hit.tolist() == [k.intersects_box(box) for k in keys]
        assert within.tolist() == [k.within_box(box) for k in keys]
        assert policy.intersects_many(block, box.lo, box.hi).tolist() == hit.tolist()
    whole = Box(np.zeros(3, dtype=np.int64), np.full(3, 60))
    assert policy.classify(block, whole.lo, whole.hi)[1].tolist() == [False] + [True] * 6


# -- placement rules --------------------------------------------------------


def _key(policy, lo, hi=None):
    """The solid box ``lo..hi`` (a point without ``hi``) as a key."""
    hi = lo if hi is None else hi
    return policy.adopt(Box(np.array(lo), np.array(hi)))


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
    def test_smallest_covering_first_of_equal_volumes(self, policy):
        keys = [
            _key(policy, [0, 0], [9, 9]),
            _key(policy, [2, 2], [4, 4]),
            _key(policy, [3, 3], [5, 5]),  # same volume, later
            _key(policy, [40, 40]),
        ]
        assert policy.smallest_covering(keys, np.array([3, 3])) == 1
        assert policy.smallest_covering(keys, np.array([5, 5])) == 2
        assert policy.smallest_covering(keys, np.array([8, 8])) == 0

    def test_smallest_covering_none_when_nothing_covers(self, policy):
        keys = [_key(policy, [0, 0], [9, 9]), policy.empty(2)]
        assert policy.smallest_covering(keys, np.array([20, 3])) is None
        assert policy.smallest_covering([], np.array([0, 0])) is None

    def test_least_overlap_is_the_scalar_loop(self, policy):
        from .conftest import reference_least_overlap

        rng = np.random.default_rng(7)
        for _ in range(300):
            keys = []
            for _ in range(int(rng.integers(1, 7))):
                key = policy.empty(2)
                key.expand_points_inplace(rng.integers(0, 50, (int(rng.integers(1, 4)), 2)))
                keys.append(key)
            row = rng.integers(0, 60, 2)
            grown = _grown(keys, row)
            assert policy.least_overlap(keys, grown, 2) == reference_least_overlap(
                policy, keys, grown, 2
            )

    def test_disjoint_siblings_go_by_relative_growth(self, policy):
        """Every grown key misses its siblings (overlap -inf), so the
        least relative growth decides -- not the least absolute one."""
        from .conftest import reference_least_overlap

        keys = [
            _key(policy, [0, 0]),  # 1 cell more: twice the volume
            _key(policy, [3, 0], [102, 1]),  # 4 cells more: 2 % growth
        ]
        grown = _grown(keys, [1, 0])
        assert grown[0].log_overlap_volume(keys[1]) == float("-inf")
        assert grown[1].log_overlap_volume(keys[0]) == float("-inf")
        assert policy.least_overlap(keys, grown, 2) == 1
        assert reference_least_overlap(policy, keys, grown, 2) == 1

    def test_exact_ties_go_to_the_first(self, policy):
        a, b = _key(policy, [0], [1]), _key(policy, [5], [6])
        # row 3 grows either key by the same factor, overlapping nothing
        assert policy.least_overlap([a, b], _grown([a, b], [3]), 1) == 0
        assert policy.least_overlap([b, a], _grown([b, a], [3]), 1) == 0
        same = [_key(policy, [0, 0], [4, 4]) for _ in range(3)]
        assert policy.least_overlap(same, _grown(same, [7, 7]), 2) == 0

    def test_least_overlap_split_keeps_min_fill(self, policy):
        # the only disjoint cut (1) leaves one entry: below a quarter
        rows = [np.array([100])] + [np.array([0])] * 7
        assert policy.least_overlap_split(rows, _grow_row, 1) == 4
        # a disjoint cut inside the fill bounds wins over the middle
        rows = [np.array([0])] * 3 + [np.array([10])] * 5
        assert policy.least_overlap_split(rows, _grow_row, 1) == 3

    def test_least_overlap_split_ties_go_to_the_middle(self, policy):
        for n in (2, 7, 8, 9):
            sequential = [np.array([i]) for i in range(n)]  # every cut disjoint
            assert policy.least_overlap_split(sequential, _grow_row, 1) == n // 2
            same = [np.array([3, 3])] * n  # every cut overlaps alike
            assert policy.least_overlap_split(same, _grow_row, 2) == n // 2
            keys = [policy.from_point(r) for r in sequential]
            assert policy.least_overlap_split(keys, _grow_key, 1) == n // 2

    def test_least_overlap_split_is_the_best_cut(self, policy):
        """Against every cut's two sides built on their own (the suffix
        from the end, as the scan grows it)."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 14))
            rows = list(rng.integers(0, 30, (n, 2)))
            lo = max(1, n // 4)
            ranks = []
            for i in range(lo, n - lo + 1):
                left, right = policy.empty(2), policy.empty(2)
                for r in rows[:i]:
                    left.expand_point_inplace(r)
                for r in reversed(rows[i:]):
                    right.expand_point_inplace(r)
                ranks.append((left.log_overlap_volume(right), abs(i - n // 2), i))
            want = min(ranks)[2]
            assert policy.least_overlap_split(rows, _grow_row, 2) == want

    def test_halves_stable_median_of_widest_dimension(self, policy):
        # dim 1 spreads widest; 0 before 3 and 1 before 2 among equals
        points = np.array([[2, 0], [0, 5], [2, 5], [0, 0], [1, 3]])
        left, right = policy.halves(points)
        assert left.tolist() == [0, 3]
        assert right.tolist() == [4, 1, 2]
        left, right = policy.halves([[7.5, 1.0]] * 4)
        assert left.tolist() == [0, 1] and right.tolist() == [2, 3]
