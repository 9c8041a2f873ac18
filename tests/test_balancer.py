"""Balancer policies: pure ``plan()`` unit tests, no simulator.

Every policy plans against a hand-built :class:`WorkerView` snapshot --
no clock, transport, or Zookeeper -- which is the point of the strategy
split: decisions are testable as plain functions.
"""

from repro.cluster import (
    BalancerPolicy,
    MemoryPressurePolicy,
    MigrateAction,
    SplitAction,
    ThresholdPolicy,
    WorkerView,
)


def view(sizes, shards, busy=(), budget=4):
    return WorkerView(
        sizes=dict(sizes),
        shards={w: dict(s) for w, s in shards.items()},
        busy=frozenset(busy),
        budget=budget,
    )


def balanced_view(budget=4):
    return view(
        {0: 1000, 1: 1000},
        {0: {1: 500, 2: 500}, 1: {3: 500, 4: 500}},
        budget=budget,
    )


def skewed_view(busy=(), budget=4):
    """Worker 0 carries 3000 items, worker 1 is empty."""
    return view(
        {0: 3000, 1: 0},
        {0: {1: 1200, 2: 1000, 3: 800}, 1: {}},
        busy=busy,
        budget=budget,
    )


# -- threshold (the default) ------------------------------------------------


def test_balanced_cluster_plans_nothing():
    assert ThresholdPolicy(max_shard_items=8000).plan(balanced_view()) == []


def test_oversize_shard_is_split():
    policy = ThresholdPolicy(max_shard_items=400, imbalance_ratio=100.0)
    actions = policy.plan(balanced_view())
    assert actions == [
        SplitAction(0, 1),
        SplitAction(0, 2),
        SplitAction(1, 3),
        SplitAction(1, 4),
    ]


def test_imbalance_triggers_migration_of_largest_fitting_shard():
    policy = ThresholdPolicy(
        max_shard_items=8000, imbalance_ratio=1.4, min_migrate_items=200
    )
    actions = policy.plan(skewed_view())
    assert actions[0] == MigrateAction(0, 1, 1)  # the largest that fits
    # after the move projects 1800 vs 1200, nothing fits half the new
    # gap, so the plan falls back to preparing a smaller piece
    assert actions == [MigrateAction(0, 1, 1), SplitAction(0, 2)]


def test_busy_shards_are_never_planned():
    policy = ThresholdPolicy(max_shard_items=8000, min_migrate_items=200)
    actions = policy.plan(skewed_view(busy={1}))
    assert all(a.shard_id != 1 for a in actions)


def test_budget_bounds_the_plan():
    policy = ThresholdPolicy(max_shard_items=400, imbalance_ratio=100.0)
    assert len(policy.plan(balanced_view(budget=2))) == 2
    assert policy.plan(balanced_view(budget=0)) == []


def test_split_for_migration_fallback():
    """Nothing movable fits half the gap: split the largest splittable
    shard instead (paper III-E) and stop planning."""
    policy = ThresholdPolicy(
        max_shard_items=8000, imbalance_ratio=1.2, min_migrate_items=200
    )
    v = view({0: 2000, 1: 0}, {0: {1: 2000}, 1: {}})
    assert policy.plan(v) == [SplitAction(0, 1)]


def test_base_policy_is_threshold_bit_for_bit():
    """``BalancerPolicy(...)`` (the old constructor spelling) must plan
    exactly like ``ThresholdPolicy`` on every view."""
    views = [
        balanced_view(),
        skewed_view(),
        skewed_view(busy={2}),
        view({0: 900, 1: 610, 2: 100}, {
            0: {1: 450, 2: 450},
            1: {3: 610},
            2: {4: 100},
        }),
    ]
    kw = dict(max_shard_items=700, imbalance_ratio=1.3, min_migrate_items=100)
    for v in views:
        assert BalancerPolicy(**kw).plan(v) == ThresholdPolicy(**kw).plan(v)


def test_plan_is_pure_and_does_not_mutate_the_view():
    v = skewed_view()
    sizes_before = dict(v.sizes)
    shards_before = {w: dict(s) for w, s in v.shards.items()}
    for policy in (
        ThresholdPolicy(max_shard_items=500),
        MemoryPressurePolicy(worker_capacity_items=2000),
    ):
        first = policy.plan(v)
        assert v.sizes == sizes_before
        assert v.shards == shards_before
        assert policy.plan(v) == first  # deterministic


# -- memory pressure --------------------------------------------------------


def test_memory_pressure_idle_below_watermark():
    """Imbalanced but nobody near capacity: the paper's memory-pressure
    policy does nothing (unlike threshold)."""
    policy = MemoryPressurePolicy(
        worker_capacity_items=20_000, max_shard_items=8000
    )
    v = skewed_view()  # 3000 vs 0, far below 0.85 * 20000
    assert policy.plan(v) == []
    assert ThresholdPolicy(max_shard_items=8000).plan(v) != []


def test_memory_pressure_sheds_to_least_loaded():
    policy = MemoryPressurePolicy(
        worker_capacity_items=3000,
        high_watermark=0.85,
        low_watermark=0.6,
        max_shard_items=8000,
        min_migrate_items=100,
    )
    v = view(
        {0: 2800, 1: 500, 2: 900},
        {0: {1: 1000, 2: 1000, 3: 800}, 1: {4: 500}, 2: {5: 900}},
    )
    actions = policy.plan(v)
    assert actions, "worker 0 is above the high watermark"
    assert all(isinstance(a, MigrateAction) for a in actions)
    assert all(a.src == 0 and a.dst == 1 for a in actions[:1])
    # sheds until projected below the low watermark (1800): one
    # 1000-item move suffices (size ties resolve to the higher shard id)
    assert actions == [MigrateAction(0, 1, 2)]


def test_memory_pressure_respects_destination_headroom():
    """Never pushes the destination itself over the high watermark."""
    policy = MemoryPressurePolicy(
        worker_capacity_items=1000,
        high_watermark=0.9,
        low_watermark=0.2,
        max_shard_items=8000,
        min_migrate_items=50,
    )
    # dst has 800/1000: headroom is 100, so only the 90-item shard fits
    v = view(
        {0: 950, 1: 800},
        {0: {1: 500, 2: 360, 3: 90}, 1: {4: 800}},
    )
    actions = policy.plan(v)
    assert actions == [MigrateAction(0, 1, 3)]


def test_memory_pressure_still_splits_oversize_shards():
    policy = MemoryPressurePolicy(
        worker_capacity_items=100_000, max_shard_items=400
    )
    actions = policy.plan(balanced_view())
    assert SplitAction(0, 1) in actions and len(actions) == 4
