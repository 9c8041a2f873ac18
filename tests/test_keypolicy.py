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
