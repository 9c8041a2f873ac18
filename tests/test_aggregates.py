"""Tests for the Aggregate bundle and OpStats/TreeConfig plumbing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.aggregates import Aggregate
from repro.core.config import OpStats, TreeConfig


class TestAggregate:
    def test_empty(self):
        a = Aggregate.empty()
        assert a.is_empty
        assert a.count == 0

    def test_of_value(self):
        a = Aggregate.of_value(3.5)
        assert a.count == 1
        assert a.total == 3.5
        assert a.vmin == a.vmax == 3.5

    def test_of_array(self):
        a = Aggregate.of_array(np.array([1.0, 2.0, 3.0]))
        assert a.count == 3
        assert a.total == 6.0
        assert a.vmin == 1.0 and a.vmax == 3.0

    def test_of_empty_array(self):
        assert Aggregate.of_array(np.array([])).is_empty

    def test_add_value(self):
        a = Aggregate.empty()
        a.add_value(5.0)
        a.add_value(-1.0)
        assert a.count == 2
        assert a.total == 4.0
        assert a.vmin == -1.0 and a.vmax == 5.0

    def test_merge(self):
        a = Aggregate.of_array(np.array([1.0, 2.0]))
        b = Aggregate.of_array(np.array([5.0]))
        a.merge(b)
        assert a.count == 3 and a.total == 8.0 and a.vmax == 5.0

    def test_merge_with_empty_is_identity(self):
        a = Aggregate.of_value(2.0)
        before = a.to_tuple()
        a.merge(Aggregate.empty())
        assert a.to_tuple() == before

    def test_merged_does_not_mutate(self):
        a = Aggregate.of_value(1.0)
        b = Aggregate.of_value(2.0)
        c = a.merged(b)
        assert a.count == 1 and c.count == 2

    def test_mean(self):
        a = Aggregate.of_array(np.array([2.0, 4.0]))
        assert a.mean == 3.0
        with pytest.raises(ValueError):
            Aggregate.empty().mean

    def test_approx_equal(self):
        a = Aggregate.of_array(np.array([0.1] * 10))
        b = Aggregate.empty()
        for _ in range(10):
            b.add_value(0.1)
        assert a.approx_equal(b)
        assert not a.approx_equal(Aggregate.of_value(1.0))

    def test_copy_independent(self):
        a = Aggregate.of_value(1.0)
        b = a.copy()
        b.add_value(9.0)
        assert a.count == 1


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
def test_merge_associativity_property(values):
    """Property: incremental adds == one-shot array aggregate."""
    arr = np.array(values)
    one_shot = Aggregate.of_array(arr)
    incremental = Aggregate.empty()
    for v in values:
        incremental.add_value(v)
    assert incremental.approx_equal(one_shot, rel=1e-6)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=29),
)
def test_merge_split_property(values, k):
    """Property: aggregating two halves then merging == aggregating all."""
    k = min(k, len(values))
    arr = np.array(values)
    left = Aggregate.of_array(arr[:k])
    right = Aggregate.of_array(arr[k:])
    assert left.merged(right).approx_equal(Aggregate.of_array(arr), rel=1e-6)


class TestOpStats:
    def test_merge(self):
        a = OpStats(nodes_visited=2, items_scanned=10)
        b = OpStats(nodes_visited=3, splits=1, agg_hits=2)
        a.merge(b)
        assert a.nodes_visited == 5
        assert a.items_scanned == 10
        assert a.splits == 1
        assert a.agg_hits == 2

    def test_work_positive(self):
        assert OpStats(nodes_visited=1).work >= 1


class TestTreeConfig:
    def test_defaults_valid(self):
        c = TreeConfig()
        assert c.leaf_capacity == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"leaf_capacity": 1},
            {"fanout": 1},
            {"key_kind": "weird"},
            {"insert_policy": "nope"},
            {"split_policy": "nope"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TreeConfig(**kwargs)

    def test_frozen(self):
        c = TreeConfig()
        with pytest.raises(AttributeError):
            c.leaf_capacity = 10
