"""Rollup cache tier: kernel units, store policy, adaptive routing,
and the differential/chaos guarantees of the unified query API.

The strict tests use integer-valued measures so float64 sums are exact
regardless of merge order -- "bit-identical" then means every Aggregate
field compares equal between the rollup path and a tree descent over
the same data.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, RollupConfig, VOLAPCluster
from repro.core.aggregates import Aggregate
from repro.olap.keys import Box
from repro.olap.query import Query, full_query
from repro.olap.rollup import (
    CubeCells,
    CubeKey,
    accumulate_cells,
    cell_indices,
    cube_candidate,
    cube_ranges,
    cube_shape,
)
from repro.olap.rollup_store import RollupStore
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch

#: deterministic-replay and model-timer assertions; see conftest
pytestmark = pytest.mark.sim_only


SCHEMA_SPEC = [[8, 12], [4, 16]]  # small: cubes stay admissible


def int_batch(schema, n, seed):
    b = random_batch(schema, n, seed=seed)
    b.measures[:] = np.floor(b.measures * 100.0)
    return b


def insert_ops(batch):
    return [
        Operation(
            "insert", coords=batch.coords[i], measure=float(batch.measures[i])
        )
        for i in range(len(batch))
    ]


def brute(schema, batch, box):
    keep = np.all(
        (batch.coords >= box.lo) & (batch.coords <= box.hi), axis=1
    )
    m = batch.measures[keep]
    if len(m) == 0:
        return Aggregate.empty()
    return Aggregate(len(m), float(m.sum()), float(m.min()), float(m.max()))


def make_cluster(schema, boot, *, rollup, seed=3, **kw):
    cluster = VOLAPCluster(
        schema,
        ClusterConfig(
            num_workers=kw.pop("num_workers", 3),
            num_servers=kw.pop("num_servers", 1),
            seed=seed,
            rollup=rollup,
            **kw,
        ),
    )
    cluster.bootstrap(boot)
    return cluster


def assert_same_agg(a: Aggregate, b: Aggregate) -> None:
    assert a.count == b.count
    assert a.total == b.total
    assert a.vmin == b.vmin
    assert a.vmax == b.vmax


def warm(cluster, query, rounds=4, budget=1.0):
    for _ in range(rounds):
        cluster.execute(query, max_staleness=budget)
    cluster.run_for(1.0)  # quiesce streams: acks, watermarks


# -- kernel units ------------------------------------------------------------


class TestCubeKernel:
    def test_cube_shape_and_indices(self):
        schema = make_schema(SCHEMA_SPEC)
        key = CubeKey.make(schema, [("d0", 1), ("d1", 1)])
        shape = cube_shape(schema, key)
        h0 = schema.dimensions[0].hierarchy
        h1 = schema.dimensions[1].hierarchy
        assert shape == (
            1 << (h0.total_bits - h0.suffix_bits(1)),
            1 << (h1.total_bits - h1.suffix_bits(1)),
        )
        coords = np.array([[0, 0], [1, 1]], dtype=np.int64)
        idx = cell_indices(schema, key, coords)
        s0 = h0.suffix_bits(1)
        s1 = h1.suffix_bits(1)
        want = (coords[:, 0] >> s0) * shape[1] + (coords[:, 1] >> s1)
        assert np.array_equal(idx, want)

    def test_leaf_key_is_identity(self):
        schema = make_schema(SCHEMA_SPEC)
        d0_depth = len(schema.dimensions[0].hierarchy.levels)
        key = CubeKey.make(schema, [("d0", d0_depth)])
        h0 = schema.dimensions[0].hierarchy
        assert cube_shape(schema, key)[0] == 1 << h0.total_bits

    def test_make_sorts_by_schema_order(self):
        schema = make_schema(SCHEMA_SPEC)
        a = CubeKey.make(schema, [("d1", 1), ("d0", 2)])
        b = CubeKey.make(schema, [("d0", 2), ("d1", 1)])
        assert a == b
        assert a.dims == ("d0", "d1")
        assert CubeKey.from_wire(a.to_wire()) == a

    def test_accumulate_matches_brute_force(self):
        schema = make_schema(SCHEMA_SPEC)
        batch = int_batch(schema, 500, seed=7)
        key = CubeKey.make(schema, [("d0", 1)])
        cells = accumulate_cells(schema, key, batch.coords, batch.measures)
        shape = cube_shape(schema, key)
        h0 = schema.dimensions[0].hierarchy
        width = 1 << h0.suffix_bits(1)
        total = Aggregate.empty()
        for g in range(shape[0]):
            got = cells.select(shape, [(g, g)])
            lo = np.array([g * width, 0], dtype=np.int64)
            hi = np.array(
                [g * width + width - 1, schema.leaf_limits[1]],
                dtype=np.int64,
            )
            want = brute(schema, batch, Box(lo, hi))
            assert_same_agg(got, want)
            total.merge(got)
        assert_same_agg(total, brute(schema, batch, full_query(schema).box))

    def test_global_cube_single_cell(self):
        schema = make_schema(SCHEMA_SPEC)
        batch = int_batch(schema, 200, seed=9)
        key = CubeKey((), ())
        cells = accumulate_cells(schema, key, batch.coords, batch.measures)
        assert cells.num_cells == 1
        got = cells.select((), [])
        assert_same_agg(got, brute(schema, batch, full_query(schema).box))

    def test_cube_ranges_alignment(self):
        schema = make_schema(SCHEMA_SPEC)
        key = CubeKey.make(schema, [("d0", 1)])
        h0 = schema.dimensions[0].hierarchy
        width = 1 << h0.suffix_bits(1)
        full = full_query(schema).box
        # aligned level-1 interval on the key dim: answerable
        lo = full.lo.copy()
        hi = full.hi.copy()
        lo[0], hi[0] = width, 2 * width - 1
        assert cube_ranges(schema, key, Box(lo, hi)) == [(1, 1)]
        # unaligned interval: not answerable
        hi2 = hi.copy()
        hi2[0] = 2 * width - 2
        assert cube_ranges(schema, key, Box(lo, hi2)) is None
        # constrained non-key dim: not answerable
        hi3 = hi.copy()
        hi3[1] = full.hi[1] - 1
        assert cube_ranges(schema, key, Box(lo, hi3)) is None
        # full box: trivially answerable by any cube
        assert cube_ranges(schema, key, full) is not None

    def test_cube_candidate_picks_coarsest(self):
        schema = make_schema(SCHEMA_SPEC)
        full = full_query(schema).box
        assert cube_candidate(schema, full) == CubeKey((), ())
        h0 = schema.dimensions[0].hierarchy
        width = 1 << h0.suffix_bits(1)
        lo = full.lo.copy()
        hi = full.hi.copy()
        lo[0], hi[0] = 0, width - 1
        assert cube_candidate(schema, Box(lo, hi)) == CubeKey.make(
            schema, [("d0", 1)]
        )
        # unaligned on d0: falls through to the leaf depth
        hi[0] = width - 2
        key = cube_candidate(schema, Box(lo, hi))
        assert key.dims == ("d0",)
        assert key.depths[0] == len(h0.levels)


# -- store policy ------------------------------------------------------------


class TestRollupStore:
    def test_demand_threshold_gates_admission(self):
        schema = make_schema(SCHEMA_SPEC)
        store = RollupStore(schema, admit_after=3)
        key = CubeKey((), ())
        assert store.note_miss(key, 0.0) is False
        assert store.note_miss(key, 0.0) is False
        assert store.note_miss(key, 0.0) is True
        assert store.admit(key, 0.0) is not None
        assert key in store

    def test_budget_evicts_coldest(self):
        schema = make_schema(SCHEMA_SPEC)
        k_cold = CubeKey.make(schema, [("d0", 1)])
        k_hot = CubeKey.make(schema, [("d1", 1)])
        k_new = CubeKey.make(schema, [("d0", 2)])
        cells = 1
        for n in cube_shape(schema, k_new):
            cells *= n
        store = RollupStore(
            schema, budget_bytes=cells * 32 + 256, admit_after=1
        )
        assert store.admit(k_cold, 0.0) is not None
        assert store.admit(k_hot, 0.0) is not None
        # cubes occupy bytes only once slabs install; fake one each
        for k in (k_cold, k_hot):
            cube = store.cubes[k]
            cube.slabs[0] = CubeCells(cube.num_cells)
        store.touch(k_hot, 1.0)
        store.touch(k_hot, 1.1)
        # make the incoming key hot enough to outrank the cold cube
        for t in (1.0, 1.05, 1.1):
            store.note_miss(k_new, t)
        assert store.admit(k_new, 1.2, shard_count=1) is not None
        assert k_cold not in store
        assert k_hot in store  # decayed hits beat the incoming demand
        assert store.evictions >= 1

    def test_oversized_key_refused(self):
        schema = make_schema()  # default: d0 has 8*12*31 leaves
        store = RollupStore(schema, max_cells=16)
        leaf = len(schema.dimensions[0].hierarchy.levels)
        big = CubeKey.make(schema, [("d0", leaf)])
        assert store.admit(big, 0.0) is None

    def test_match_prefers_fewest_cells(self):
        schema = make_schema(SCHEMA_SPEC)
        store = RollupStore(schema, admit_after=1)
        fine = CubeKey.make(schema, [("d0", 2)])
        coarse = CubeKey((), ())
        store.admit(fine, 0.0)
        store.admit(coarse, 0.0)
        cube, ranges = store.match(full_query(schema).box)
        assert cube.key == coarse  # 1 cell beats the level-2 grid
        assert ranges == []

    def test_missing_slab_reported(self):
        schema = make_schema(SCHEMA_SPEC)
        store = RollupStore(schema, admit_after=1)
        key = CubeKey((), ())
        cube = store.admit(key, 0.0)
        batch = int_batch(schema, 100, seed=3)
        cube.slabs[7] = accumulate_cells(
            schema, key, batch.coords, batch.measures
        )
        agg, missing = store.cube_answer(cube, [], [7, 9])
        assert missing == [9]
        assert agg.count == 100
        store.drop_shard(7)
        agg, missing = store.cube_answer(cube, [], [7, 9])
        assert missing == [7, 9]
        assert agg.count == 0


# -- unified API -------------------------------------------------------------


class TestUnifiedAPI:
    def setup_method(self):
        self.schema = make_schema(SCHEMA_SPEC)
        self.boot = int_batch(self.schema, 800, seed=2)

    def test_execute_shapes(self):
        cluster = make_cluster(self.schema, self.boot, rollup=None)
        q = full_query(self.schema)
        single = cluster.execute(q)
        assert single.value.count == len(self.boot)
        assert single.source == "tree"
        assert single.coverage == 1.0
        many = cluster.execute([q, q])
        assert isinstance(many, list) and len(many) == 2
        assert_same_agg(many[0].value, many[1].value)

    def test_routing_validation(self):
        cluster = make_cluster(self.schema, self.boot, rollup=None)
        with pytest.raises(ValueError, match="routing"):
            cluster.execute(full_query(self.schema), routing="warp")

    def test_per_query_fields_override_args(self):
        cluster = make_cluster(
            self.schema, self.boot, rollup=RollupConfig(admit_after=1)
        )
        q = full_query(self.schema)
        warm(cluster, q, rounds=3)
        pinned = Query(q.box, routing="tree", max_staleness=1.0)
        res = cluster.execute([pinned], routing="auto", max_staleness=1.0)
        assert res[0].source == "tree"

    def test_rollup_disabled_is_inert(self):
        cluster = make_cluster(self.schema, self.boot, rollup=None)
        q = full_query(self.schema)
        for _ in range(4):
            r = cluster.execute(q, max_staleness=1.0)
            assert r.source == "tree"
        snap = cluster.metrics.snapshot()
        for fam in list(snap["counters"]) + list(snap["gauges"]):
            assert "rollup" not in fam

    def test_rollup_builder_cross_product(self):
        qs = Query.rollup(self.schema, group_by=("d0:1", "d1:1"))
        h0 = self.schema.dimensions[0].hierarchy
        h1 = self.schema.dimensions[1].hierarchy
        assert len(qs) == h0.levels[0].fanout * h1.levels[0].fanout
        assert all(q.group_levels == (("d0", 1), ("d1", 1)) for q in qs)
        paths = {q.group_path for q in qs}
        assert len(paths) == len(qs)

    def test_rollup_builder_where_restricts(self):
        qs = Query.rollup(
            self.schema, group_by=("d1:1",), where={"d0": (1, (2,))}
        )
        h1 = self.schema.dimensions[1].hierarchy
        assert len(qs) == h1.levels[0].fanout
        h0 = self.schema.dimensions[0].hierarchy
        width = 1 << h0.suffix_bits(1)
        for q in qs:
            assert q.box.lo[0] == 2 * width
            assert q.box.hi[0] == 3 * width - 1

    def test_rollup_builder_rejects_duplicates(self):
        with pytest.raises(ValueError, match="twice"):
            Query.rollup(self.schema, group_by=("d0:1", "d0:2"))
        with pytest.raises(ValueError, match="dim:level"):
            Query.rollup(self.schema, group_by=("d0",))


# -- satellite 3: budget-less stays pure tree descent ------------------------


class TestBudgetlessIdentity:
    def test_never_cube_routed_even_when_warm(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 1000, seed=4)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1)
        )
        q = full_query(schema)
        warm(cluster, q, rounds=4)
        assert len(cluster.servers[0].router.store) >= 1
        for _ in range(3):
            r = cluster.execute(q)
            assert r.source == "tree"
            assert r.staleness == 0.0
        pinned = cluster.execute(q, routing="tree")
        assert_same_agg(r.value, pinned.value)
        assert_same_agg(r.value, brute(schema, boot, q.box))

    def test_budgetless_identical_under_racing_inserts(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 600, seed=5)
        stream = int_batch(schema, 300, seed=6)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1)
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        sess = cluster.session(concurrency=4)
        sess.run_stream(insert_ops(stream))
        while not sess.done:
            r = cluster.execute(q)  # races the insert stream
            assert r.source == "tree"
            cluster.run_for(0.05)
        cluster.run_for(1.0)
        final = cluster.execute(q)
        assert final.source == "tree"
        want = brute(schema, boot, q.box)
        want.merge(brute(schema, stream, q.box))
        assert_same_agg(final.value, want)


# -- satellite 4: differential suite -----------------------------------------


CUBE_QUERIES = [
    ("global", lambda s: full_query(s)),
    ("d0-level1", lambda s: Query.rollup(s, group_by=("d0:1",))[1]),
    ("d0xd1", lambda s: Query.rollup(s, group_by=("d0:1", "d1:1"))[3]),
    ("d1-level2", lambda s: Query.rollup(s, group_by=("d1:2",))[5]),
]


class TestDifferential:
    @pytest.mark.parametrize("name,qf", CUBE_QUERIES)
    @pytest.mark.parametrize("budget", [5e-3, 1.0])
    def test_rollup_hit_bit_identical(self, name, qf, budget):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 900, seed=8)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1)
        )
        q = qf(schema)
        warm(cluster, q, rounds=3, budget=budget)
        hit = cluster.execute(q, max_staleness=budget)
        tree = cluster.execute(q, routing="tree")
        assert hit.source == "rollup"
        assert hit.staleness <= budget
        assert_same_agg(hit.value, tree.value)
        assert_same_agg(tree.value, brute(schema, boot, q.box))

    def test_zero_budget_falls_back_to_tree(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 500, seed=9)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1)
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        r = cluster.execute(q, max_staleness=0.0)
        # lag is measured against heartbeat age, never exactly zero
        assert r.source == "tree"
        assert_same_agg(r.value, brute(schema, boot, q.box))

    def test_forced_rollup_ignores_budget(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 500, seed=10)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1)
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        r = cluster.execute(q, routing="rollup", max_staleness=0.0)
        assert r.source == "rollup"
        assert_same_agg(r.value, brute(schema, boot, q.box))

    def test_racing_inserts_converge_bit_identical(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 600, seed=11)
        stream = int_batch(schema, 400, seed=12)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1), batch_size=8,
            batch_linger=5e-4,
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        sess = cluster.session(concurrency=8)
        sess.run_stream(insert_ops(stream))
        while not sess.done:
            r = cluster.execute(q, max_staleness=1.0)
            assert r.value.count <= len(boot) + len(stream)
            cluster.run_for(0.05)
        cluster.run_for(1.5)  # drain tees, acks, watermarks
        hit = cluster.execute(q, routing="rollup")
        tree = cluster.execute(q, routing="tree")
        assert hit.source == "rollup"
        want = brute(schema, boot, q.box)
        want.merge(brute(schema, stream, q.box))
        assert_same_agg(tree.value, want)
        assert_same_agg(hit.value, want)

    def test_hybrid_path_bit_identical(self):
        """Dropping one shard's slab forces rollup + tree delta; the
        merged answer must equal a pure descent."""
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 800, seed=13)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1)
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        router = cluster.servers[0].router
        sids = sorted(router.store.shard_ids())
        assert len(sids) >= 2
        # forget one shard's slab but keep its stream state intact:
        # plan() sees a missing slab -> that shard goes down the tree
        for cube in router.store.cubes.values():
            cube.slabs.pop(sids[0], None)
        hit = cluster.execute(q, max_staleness=1.0)
        assert hit.source == "hybrid"
        assert_same_agg(hit.value, brute(schema, boot, q.box))

    def test_eviction_mid_query_safe(self):
        """A cube evicted between routing and reply must not corrupt
        the in-flight answer, and the next query re-misses cleanly."""
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 700, seed=14)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1)
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        router = cluster.servers[0].router
        keys = list(router.store.cubes)
        # drop every cube in the window between the route decision
        # (query arrives after ~200us of transport latency) and the
        # reply: the answer was computed eagerly at plan time, so the
        # eviction must not corrupt it
        cluster.clock.after(
            3.5e-4, lambda: [router.store.drop(k) for k in keys]
        )
        r = cluster.execute(q, max_staleness=1.0)
        assert r.source == "rollup"  # routed before the eviction hit
        assert_same_agg(r.value, brute(schema, boot, q.box))
        assert len(router.store) == 0
        nxt = cluster.execute(q, max_staleness=1.0)
        assert_same_agg(nxt.value, brute(schema, boot, q.box))


# -- satellite 4: chaos coverage ---------------------------------------------


class TestChaos:
    def test_cube_survives_migration(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 900, seed=15)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1), num_workers=3,
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        # force-migrate one warm shard to another worker
        src_wid, src = next(
            (wid, w) for wid, w in cluster.workers.items() if w.shards
        )
        sid = next(iter(src.shards))
        dst_wid = next(w for w in cluster.workers if w != src_wid)
        cluster.manager._start_migration(src_wid, dst_wid, sid)
        cluster.run_for(2.0)
        assert sid in cluster.workers[dst_wid].shards
        tree = cluster.execute(q, routing="tree")
        assert_same_agg(tree.value, brute(schema, boot, q.box))
        # the router fenced the moved shard and resynced from the new
        # owner; once streams settle the cube answer matches again
        cluster.run_for(2.0)
        hit = cluster.execute(q, routing="rollup")
        assert_same_agg(hit.value, tree.value)

    def test_cube_survives_promotion(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 900, seed=16)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1),
            num_workers=3, replication_factor=1,
        )
        cluster.run_for(2.0)  # let replicas seed
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        wid = next(wid for wid, w in cluster.workers.items() if w.shards)
        cluster.crash_worker(wid)
        cluster.run_for(4.0)
        tree = cluster.execute(q, routing="tree")
        hit = cluster.execute(q, routing="rollup")
        # whatever survived the failover, both tiers agree exactly
        assert_same_agg(hit.value, tree.value)
        assert tree.value.count > 0

    def test_inserts_after_migration_keep_cube_fresh(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 600, seed=17)
        stream = int_batch(schema, 200, seed=18)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=1), num_workers=3,
        )
        q = full_query(schema)
        warm(cluster, q, rounds=3)
        src_wid, src = next(
            (wid, w) for wid, w in cluster.workers.items() if w.shards
        )
        sid = next(iter(src.shards))
        dst_wid = next(w for w in cluster.workers if w != src_wid)
        cluster.manager._start_migration(src_wid, dst_wid, sid)
        cluster.run_for(2.0)
        sess = cluster.session(concurrency=4)
        sess.run_stream(insert_ops(stream))
        cluster.run_for(3.0)
        assert sess.done
        want = brute(schema, boot, q.box)
        want.merge(brute(schema, stream, q.box))
        tree = cluster.execute(q, routing="tree")
        hit = cluster.execute(q, routing="rollup")
        assert_same_agg(tree.value, want)
        assert_same_agg(hit.value, want)


# -- metrics -----------------------------------------------------------------


class TestRollupMetrics:
    def test_counters_and_gauges_exported(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 600, seed=19)
        cluster = make_cluster(
            schema, boot, rollup=RollupConfig(admit_after=2)
        )
        q = full_query(schema)
        for _ in range(4):
            cluster.execute(q, max_staleness=1.0)
        cluster.run_for(1.0)
        snap = cluster.metrics.snapshot()
        hits = snap["counters"]["volap_rollup_hits_total"]["series"]
        misses = snap["counters"]["volap_rollup_misses_total"]["series"]
        assert sum(s["value"] for s in hits) >= 1
        assert sum(s["value"] for s in misses) >= 1
        assert "volap_rollup_cubes" in snap["gauges"]
        assert "volap_rollup_resident_bytes" in snap["gauges"]
        assert "volap_rollup_staleness_seconds" in snap["gauges"]
        cubes = snap["gauges"]["volap_rollup_cubes"]["series"]
        assert sum(s["value"] for s in cubes) >= 1

    def test_eviction_counter(self):
        schema = make_schema(SCHEMA_SPEC)
        boot = int_batch(schema, 400, seed=20)
        # budget fits one cube: pinning a second one must evict
        cluster = make_cluster(
            schema, boot,
            rollup=RollupConfig(admit_after=1, budget_bytes=1600),
        )
        q = full_query(schema)
        warm(cluster, q, rounds=2)
        router = cluster.servers[0].router
        assert len(router.store) == 1
        shards = len(cluster.servers[0].image.search(router._full_box))
        big = CubeKey.make(schema, [("d1", 1)])
        # give the incoming key enough demand to outbid the resident
        for _ in range(4):
            router.store.note_miss(big, cluster.clock.now)
        assert router.materialize(big, shard_count=shards)
        assert router.store.evictions >= 1
        assert big in router.store
        snap = cluster.metrics.snapshot()
        ev = snap["counters"]["volap_rollup_evictions_total"]["series"]
        assert sum(s["value"] for s in ev) >= 1
