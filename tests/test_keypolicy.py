"""Tests for the key-policy strategy layer (MBR vs MDS uniformity)."""

import numpy as np
import pytest

from repro.core.keypolicy import MBRPolicy, MDSPolicy, make_policy
from repro.olap.keys import Box


@pytest.fixture(params=["mbr", "mds"])
def policy(request):
    return make_policy(request.param)


class TestFactory:
    def test_kinds(self):
        assert make_policy("mbr").kind == "mbr"
        assert make_policy("mds").kind == "mds"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_mds_cap_threaded_through(self):
        p = make_policy("mds", mds_max_intervals=2)
        key = p.from_point(np.array([0]))
        p.expand_point(key, np.array([10]))
        p.expand_point(key, np.array([20]))
        assert len(key.intervals[0]) <= 2


class TestUniformBehaviour:
    """Both policies satisfy the same contracts the trees rely on."""

    def test_from_point_covers_point(self, policy):
        pt = np.array([3, 7])
        key = policy.from_point(pt)
        assert policy.covers_point(key, pt)

    def test_expand_point_reports_change(self, policy):
        key = policy.from_point(np.array([0, 0]))
        assert policy.expand_point(key, np.array([5, 5]))
        assert not policy.expand_point(key, np.array([0, 0]))

    def test_expand_key(self, policy):
        a = policy.from_point(np.array([0, 0]))
        b = policy.from_point(np.array([9, 9]))
        assert policy.expand(a, b)
        assert policy.covers_point(a, np.array([9, 9]))

    def test_intersects_and_within(self, policy):
        key = policy.from_point(np.array([5, 5]))
        policy.expand_point(key, np.array([7, 7]))
        big = Box(np.array([0, 0]), np.array([10, 10]))
        small = Box(np.array([7, 7]), np.array([7, 7]))
        off = Box(np.array([20, 20]), np.array([30, 30]))
        assert policy.intersects_box(key, big)
        assert policy.intersects_box(key, small)
        assert not policy.intersects_box(key, off)
        assert policy.within_box(key, big)
        assert not policy.within_box(key, small)

    def test_empty_key_semantics(self, policy):
        key = policy.empty(2)
        box = Box(np.array([0, 0]), np.array([10, 10]))
        assert not policy.intersects_box(key, box)

    def test_log_overlap_symmetry(self, policy):
        a = policy.from_point(np.array([0, 0]))
        policy.expand_point(a, np.array([5, 5]))
        b = policy.from_point(np.array([3, 3]))
        policy.expand_point(b, np.array([8, 8]))
        assert policy.log_overlap(a, b) == policy.log_overlap(b, a)

    def test_log_overlap_disjoint_is_neg_inf(self, policy):
        a = policy.from_point(np.array([0, 0]))
        b = policy.from_point(np.array([50, 50]))
        assert policy.log_overlap(a, b) == float("-inf")

    def test_union_of(self, policy):
        keys = [
            policy.from_point(np.array([i * 10, i * 10])) for i in range(3)
        ]
        u = policy.union_of(keys, 2)
        for i in range(3):
            assert policy.covers_point(u, np.array([i * 10, i * 10]))

    def test_mbr_extraction(self, policy):
        key = policy.from_point(np.array([2, 3]))
        policy.expand_point(key, np.array([8, 1]))
        mbr = policy.mbr(key)
        assert isinstance(mbr, Box)
        assert mbr.lo.tolist() == [2, 1]
        assert mbr.hi.tolist() == [8, 3]

    def test_copy_is_independent(self, policy):
        key = policy.from_point(np.array([0, 0]))
        cp = policy.copy(key)
        policy.expand_point(cp, np.array([9, 9]))
        assert not policy.covers_point(key, np.array([9, 9]))

    def test_covers(self, policy):
        a = policy.from_point(np.array([0, 0]))
        policy.expand_point(a, np.array([10, 10]))
        b = policy.from_point(np.array([10, 10]))
        assert policy.covers(a, b)
        c = policy.from_point(np.array([40, 40]))
        assert not policy.covers(a, c)


class TestPolicyDifferences:
    def test_mds_excludes_gaps_mbr_does_not(self):
        """The structural difference that motivates MDS keys."""
        mbr, mds = MBRPolicy(), MDSPolicy(max_intervals=4)
        probe = Box(np.array([50]), np.array([50]))
        k_mbr = mbr.from_point(np.array([0]))
        mbr.expand_point(k_mbr, np.array([100]))
        k_mds = mds.from_point(np.array([0]))
        mds.expand_point(k_mds, np.array([100]))
        assert mbr.intersects_box(k_mbr, probe)
        assert not mds.intersects_box(k_mds, probe)


class TestAdoptAcrossCaps:
    def test_same_cap_is_a_plain_copy(self):
        from repro.olap.mds import MDS

        key = MDS([[(0, 1), (5, 6), (9, 9)]], max_intervals=4)
        out = MDSPolicy(4).adopt(key)
        assert out == key and out is not key and out.max_intervals == 4
        out.expand_point_inplace([50])
        assert not key.covers_point([50])

    def test_narrower_cap_coalesces(self):
        from repro.olap.mds import MDS

        key = MDS([[(0, 1), (5, 6), (9, 9), (100, 101)]], max_intervals=4)
        out = MDSPolicy(2).adopt(key)
        assert out.max_intervals == 2
        assert out.intervals == [[[0, 9], [100, 101]]]
        wide = MDSPolicy(6).adopt(out)
        assert wide.max_intervals == 6 and wide == out


def test_covers_points_many_is_covers_point(policy):
    rng = np.random.default_rng(11)
    keys = [policy.empty(3)]
    for _ in range(5):
        key = policy.empty(3)
        policy.expand_points(key, rng.integers(0, 60, (6, 3)))
        keys.append(key)
    rows = rng.integers(0, 60, (200, 3))
    got = policy.covers_points_many(policy.pack_keys(keys, 3), rows)
    assert got.shape == (200, 6)
    assert got.tolist() == [
        [policy.covers_point(key, row) for key in keys] for row in rows
    ]
    assert policy.covers_points_many(policy.pack_keys(keys, 3), rows[:0]).shape == (0, 6)


# -- placement rules --------------------------------------------------------


def _key(policy, lo, hi=None):
    """The solid box ``lo..hi`` (a point without ``hi``) as a key."""
    hi = lo if hi is None else hi
    return policy.adopt(Box(np.array(lo), np.array(hi)))


def _grown(policy, keys, row):
    grown = [policy.copy(k) for k in keys]
    for g in grown:
        policy.expand_point(g, np.array(row))
    return grown


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
                policy.expand_points(key, rng.integers(0, 50, (int(rng.integers(1, 4)), 2)))
                keys.append(key)
            row = rng.integers(0, 60, 2)
            grown = _grown(policy, keys, row)
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
        grown = _grown(policy, keys, [1, 0])
        assert policy.log_overlap(grown[0], keys[1]) == float("-inf")
        assert policy.log_overlap(grown[1], keys[0]) == float("-inf")
        assert policy.least_overlap(keys, grown, 2) == 1
        assert reference_least_overlap(policy, keys, grown, 2) == 1

    def test_exact_ties_go_to_the_first(self, policy):
        a, b = _key(policy, [0], [1]), _key(policy, [5], [6])
        # row 3 grows either key by the same factor, overlapping nothing
        assert policy.least_overlap([a, b], _grown(policy, [a, b], [3]), 1) == 0
        assert policy.least_overlap([b, a], _grown(policy, [b, a], [3]), 1) == 0
        same = [_key(policy, [0, 0], [4, 4]) for _ in range(3)]
        assert policy.least_overlap(same, _grown(policy, same, [7, 7]), 2) == 0

    def test_least_overlap_split_keeps_min_fill(self, policy):
        # the only disjoint cut (1) leaves one entry: below a quarter
        rows = [np.array([100])] + [np.array([0])] * 7
        assert policy.least_overlap_split(rows, policy.expand_point, 1) == 4
        # a disjoint cut inside the fill bounds wins over the middle
        rows = [np.array([0])] * 3 + [np.array([10])] * 5
        assert policy.least_overlap_split(rows, policy.expand_point, 1) == 3

    def test_least_overlap_split_ties_go_to_the_middle(self, policy):
        for n in (2, 7, 8, 9):
            sequential = [np.array([i]) for i in range(n)]  # every cut disjoint
            assert policy.least_overlap_split(sequential, policy.expand_point, 1) == n // 2
            same = [np.array([3, 3])] * n  # every cut overlaps alike
            assert policy.least_overlap_split(same, policy.expand_point, 2) == n // 2
            keys = [policy.from_point(r) for r in sequential]
            assert policy.least_overlap_split(keys, policy.expand, 1) == n // 2

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
                    policy.expand_point(left, r)
                for r in reversed(rows[i:]):
                    policy.expand_point(right, r)
                ranks.append((policy.log_overlap(left, right), abs(i - n // 2), i))
            want = min(ranks)[2]
            assert policy.least_overlap_split(rows, policy.expand_point, 2) == want

    def test_halves_stable_median_of_widest_dimension(self, policy):
        # dim 1 spreads widest; 0 before 3 and 1 before 2 among equals
        points = np.array([[2, 0], [0, 5], [2, 5], [0, 0], [1, 3]])
        left, right = policy.halves(points)
        assert left.tolist() == [0, 3]
        assert right.tolist() == [4, 1, 2]
        left, right = policy.halves([[7.5, 1.0]] * 4)
        assert left.tolist() == [0, 1] and right.tolist() == [2, 3]
