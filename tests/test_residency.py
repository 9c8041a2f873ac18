"""Shard residency tier: spill, lazy rehydrate, and larger-than-memory.

Covers the residency state machine (HOT <-> WARM) end to end: the
unified blob codec, budget-driven LRU spills with the ±1-shard
hysteresis, bounding-key pruning of WARM shards, checkpoint-tick
elision (a spill's blob *is* the checkpoint), the manager-driven
spill/rehydrate protocol under its own lifecycle pool, and the
headline differential: a cluster whose hot budget is a fraction of the
dataset serves full-coverage queries **bit-identical** to an all-hot
twin -- including under message chaos and a crash of the worker
holding spilled shards.

Every differential uses integer-valued measures: float64 integer sums
below 2**53 are exact, so aggregate equality is independent of
summation order (see ``repro.workloads.sensors`` for the fixed-point
stream variant).
"""

import numpy as np
import pytest

from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    FaultPlan,
    MemoryPressurePolicy,
    ShardOpMachine,
    VOLAPCluster,
    WorkerView,
)
from repro.cluster.simclock import SimClock
from repro.cluster.storage import HOT, WARM
from repro.core import TreeConfig
from repro.olap.keys import Box
from repro.olap.query import Query, full_query
from repro.olap.records import RecordBatch

from .conftest import make_schema, random_boxes
from .test_chaos import CHAOS_RETRY, INSERT_KINDS, insert_ops

#: deterministic-replay and model-timer assertions; see conftest
pytestmark = pytest.mark.sim_only


def int_batch(schema, n, seed=0):
    """Random rows with integer-valued measures (exact float64 sums)."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(
        0, schema.leaf_limits + 1, size=(n, schema.num_dims), dtype=np.int64
    )
    measures = rng.integers(1, 1_000_000, size=n).astype(np.float64)
    return RecordBatch(coords, measures)


def residency_cluster(
    schema,
    n_items=1500,
    budget=None,
    seed=3,
    shards_per_worker=2,
    retry=None,
    checkpoint_period=0.4,
):
    cfg = ClusterConfig(
        num_workers=3,
        num_servers=1,
        tree_config=TreeConfig(leaf_capacity=32, fanout=8),
        balancer=BalancerPolicy(
            max_shard_items=100_000, scan_period=0.1, op_timeout=2.0
        ),
        retry=retry if retry is not None else CHAOS_RETRY,
        heartbeat_period=0.1,
        heartbeat_miss_k=3,
        checkpoint_period=checkpoint_period,
        hot_budget_bytes=budget,
        seed=seed,
    )
    cluster = VOLAPCluster(schema, cfg)
    batch = int_batch(schema, n_items, seed=seed)
    cluster.bootstrap(batch, shards_per_worker=shards_per_worker)
    return cluster, batch


def agg_tuples(results):
    return [r.value.to_tuple() for r in results]


@pytest.fixture
def schema():
    return make_schema()


# -- state machine unit behaviour ------------------------------------------


class TestResidencyStateMachine:
    def test_spill_then_rehydrate_roundtrip(self, schema):
        cluster, _ = residency_cluster(schema)
        w = cluster.workers[0]
        sid = sorted(w.shards)[0]
        items = len(w.shards[sid])
        bytes_before = w.resident_bytes()

        entry = w.storage.spill(sid)
        assert w.storage.residency(sid) == WARM
        assert sid not in w.shards and sid in w.storage.cold
        assert entry.items == items and entry.blob_bytes > 0
        assert w.resident_bytes() < bytes_before
        assert w.total_items() >= items  # WARM items still counted

        store = w.storage.rehydrate(sid)
        assert w.storage.residency(sid) == HOT
        assert len(store) == items and sid not in w.storage.cold
        assert w.storage.spills == 1 and w.storage.rehydrates == 1

    def test_resident_bytes_is_leaves_plus_directory_blocks(self, schema):
        """``resident_bytes()`` is leaf columns + every directory's key
        block (each child key is a row of it, never a second copy); a
        query leaves it alone, and a spill -> rehydrate round trip
        comes back at the same figure."""
        cluster, _ = residency_cluster(schema)
        w = cluster.workers[0]
        sid = sorted(w.shards)[0]
        store = w.shards[sid]

        def parts(tree):
            leaves, blocks, stack = 0, 0, [tree.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    leaves += tree.arena.slot_bytes
                else:
                    stack.extend(node.children)
                    blocks += node.block.nbytes
            return leaves, blocks

        leaf_bytes, block_bytes = parts(store)
        assert block_bytes > 0
        bare = store.resident_bytes()
        assert bare == leaf_bytes + block_bytes
        # half of the shard's own extent: the root is hit, not within,
        # so the scan expands directories
        box = store.mbr()
        box.hi[0] = (box.lo[0] + box.hi[0]) // 2
        store.query(box)
        assert store.resident_bytes() == bare
        assert w.resident_bytes() >= store.resident_bytes()

        w.storage.spill(sid)
        back = w.storage.rehydrate(sid)
        assert parts(back) == (leaf_bytes, block_bytes)
        assert back.resident_bytes() == bare

    def test_rehydrate_is_idempotent(self, schema):
        cluster, _ = residency_cluster(schema)
        w = cluster.workers[0]
        sid = sorted(w.shards)[0]
        w.storage.spill(sid)
        first = w.storage.rehydrate(sid)
        again = w.storage.rehydrate(sid)
        assert again is first
        assert w.storage.rehydrates == 1
        assert w.storage.rehydrate(999_999) is None  # unknown shard

    def test_frozen_shard_refuses_to_spill(self, schema):
        cluster, _ = residency_cluster(schema)
        w = cluster.workers[0]
        sid = sorted(w.shards)[0]
        w.frozen.add(sid)
        with pytest.raises(ValueError, match="frozen"):
            w.storage.spill(sid)
        w.frozen.discard(sid)
        with pytest.raises(ValueError, match="not HOT"):
            w.storage.spill(999_999)

    def test_spill_publishes_warm_residency(self, schema):
        cluster, _ = residency_cluster(schema)
        w = cluster.workers[0]
        server = cluster.servers[0]
        sid = sorted(w.shards)[0]
        w.storage.spill(sid)
        cluster.run_for(0.2)  # let the zk watch fan out
        assert cluster.zk.get(f"/shards/{sid}")[4] == WARM
        assert server.image.get(sid).residency == WARM
        w.storage.rehydrate(sid)
        cluster.run_for(0.2)
        assert cluster.zk.get(f"/shards/{sid}")[4] == HOT
        assert server.image.get(sid).residency == HOT

    def test_residency_pool_is_separate(self):
        class _Transport:
            obs = None

        m = ShardOpMachine(SimClock(), _Transport())
        m.max_inflight_residency = 2
        assert m.admit("spill", 1, src=0) is not None
        m.dispatched(1)
        assert m.admit("rehydrate", 2, src=0) is not None
        m.dispatched(2)
        assert m.admit("spill", 3, src=0) is None  # pool exhausted
        assert m.admit("split", 4) is not None  # balance pool unaffected
        assert m.residency_inflight == 2 and m.balance_inflight == 1
        assert m.complete(1, "spill")
        assert m.admit("rehydrate", 3, src=0) is not None
        assert m.started["spill"] == 1 and m.started["rehydrate"] == 2


# -- lazy rehydrate on the data paths --------------------------------------


class TestLazyRehydrate:
    def test_query_rehydrates_and_matches_all_hot_result(self, schema):
        cluster, _ = residency_cluster(schema)
        q = full_query(schema)
        before = cluster.execute(q)
        w = cluster.workers[0]
        for sid in sorted(w.shards):
            w.storage.spill(sid)
        assert w.storage.cold and not w.shards
        after = cluster.execute(q)
        assert after.value.to_tuple() == before.value.to_tuple()
        assert after.coverage == 1.0
        assert w.storage.rehydrates > 0
        # the blobs never left the worker: not a checkpoint restore
        assert w.transfer.checkpoint_deserializations == 0

    def test_insert_rehydrates_target_shard(self, schema):
        cluster, batch = residency_cluster(schema)
        w = cluster.workers[0]
        sid = sorted(w.shards)[0]
        w.storage.spill(sid)
        server = cluster.servers[0]
        # find a row routed to the spilled shard and insert it
        row = next(
            i
            for i in range(len(batch))
            if server.image.route_insert(batch.coords[i][None]).shard_id == sid
        )
        sess = cluster.session(0, concurrency=1)
        sess.run_stream(
            [insert_ops(batch.slice(row, row + 1))[0]]
        )
        cluster.run_until_clients_done(max_virtual=60.0)
        assert w.storage.residency(sid) == HOT
        assert w.storage.rehydrates == 1

    def test_warm_shard_bbox_prunes_without_reading_blob(self, schema):
        cluster, _ = residency_cluster(schema, n_items=0, shards_per_worker=1)
        w = cluster.workers[0]
        rng = np.random.default_rng(7)
        limits = schema.leaf_limits
        # two shards with disjoint d0 ranges so their boxes cannot touch
        half = int(limits[0]) // 2
        lo_coords = rng.integers(
            0, limits + 1, size=(200, schema.num_dims), dtype=np.int64
        )
        lo_coords[:, 0] = rng.integers(0, half, size=200)
        hi_coords = rng.integers(
            0, limits + 1, size=(200, schema.num_dims), dtype=np.int64
        )
        hi_coords[:, 0] = rng.integers(half + 1, int(limits[0]) + 1, size=200)
        lo_batch = RecordBatch(
            lo_coords, rng.integers(1, 1000, 200).astype(np.float64)
        )
        hi_batch = RecordBatch(
            hi_coords, rng.integers(1, 1000, 200).astype(np.float64)
        )
        make = lambda b: cluster.config.store_cls.from_batch(  # noqa: E731
            schema, b, cluster.config.tree_config
        )
        sid_lo, sid_hi = 7001, 7002
        w.install_shard(sid_lo, make(lo_batch))
        w.install_shard(sid_hi, make(hi_batch))
        for s in cluster.servers:
            s.load_image()
        w.storage.spill(sid_hi)
        decoded_before = w.storage.blobs_decoded
        # a box covering only the low half: the WARM shard is pruned by
        # its bounding key -- counted as searched, blob untouched
        lo_box = Box(
            np.zeros(schema.num_dims, dtype=np.int64),
            np.array([half] + list(limits[1:]), dtype=np.int64),
        )
        r = cluster.execute(Query(lo_box))
        assert r.coverage == 1.0
        assert r.value.count == 200
        assert r.value.total == float(lo_batch.measures.sum())
        assert w.storage.blobs_decoded == decoded_before
        assert w.storage.residency(sid_hi) == WARM
        # the full box does need the blob: lazy rehydrate kicks in
        r2 = cluster.execute(full_query(schema))
        assert r2.value.count == 400
        assert w.storage.blobs_decoded == decoded_before + 1
        assert w.storage.residency(sid_hi) == HOT


# -- checkpoint interaction ------------------------------------------------


class TestCheckpointElision:
    def test_checkpoint_tick_skips_warm_shards(self, schema):
        cluster, _ = residency_cluster(schema, checkpoint_period=0.5)
        cluster.run_for(1.0)  # at least one checkpoint tick for every shard
        w = cluster.workers[0]
        sid = sorted(w.shards)[0]
        hot_sid = sorted(w.shards)[1]
        w.storage.spill(sid)
        spill_blob, _, spill_time = cluster.checkpoints.get(sid)
        cluster.run_for(1.6)  # several more ticks
        blob, _, t = cluster.checkpoints.get(sid)
        assert t == spill_time, "checkpoint tick re-encoded a WARM shard"
        assert blob is spill_blob
        # hot shards kept checkpointing meanwhile
        assert cluster.checkpoints.get(hot_sid)[2] > spill_time

    def test_rehydrate_serves_restore_without_deserialization_count(
        self, schema
    ):
        """A rehydrate is *not* a checkpoint restore: the counter the
        failover path uses stays untouched when reads pull WARM shards
        back, so restore metrics keep meaning 'blob replayed after a
        crash'."""
        cluster, _ = residency_cluster(schema)
        w = cluster.workers[0]
        for sid in sorted(w.shards):
            w.storage.spill(sid)
        cluster.execute(full_query(schema))
        assert w.storage.rehydrates > 0
        assert all(
            wk.transfer.checkpoint_deserializations == 0
            for wk in cluster.workers.values()
        )


# -- manager-driven residency protocol -------------------------------------


class TestManagerResidencyOps:
    def test_spill_and_rehydrate_via_protocol(self, schema):
        cluster, _ = residency_cluster(schema)
        m = cluster.manager
        w = cluster.workers[1]
        sid = sorted(w.shards)[0]
        m._start_spill(1, sid)
        assert m.lifecycle.residency_inflight == 1
        cluster.run_for(1.0)
        assert w.storage.residency(sid) == WARM
        assert m.spills_done == 1 and m.lifecycle.quiescent()
        m._start_rehydrate(1, sid)
        cluster.run_for(1.0)
        assert w.storage.residency(sid) == HOT
        assert m.rehydrates_done == 1 and m.lifecycle.quiescent()
        assert m.lifecycle.residency_inflight == 0

    def test_spill_of_missing_shard_fails_cleanly(self, schema):
        cluster, _ = residency_cluster(schema)
        m = cluster.manager
        m._start_spill(1, 424242)
        cluster.run_for(1.0)
        assert m.spills_done == 0 and m.lifecycle.quiescent()

    def test_memory_pressure_policy_plans_spills(self, schema):
        cluster, _ = residency_cluster(schema, budget=1)
        cluster.run_for(0.5)
        for w in cluster.workers.values():
            w.publish_stats()
        view = WorkerView.from_stats(
            {
                wid: cluster.zk.get(f"/stats/workers/{wid}")
                for wid in cluster.workers
            },
            busy=(),
            budget=4,
        )
        assert view.resident_bytes  # workers exported measured bytes
        policy = MemoryPressurePolicy(worker_budget_bytes=64)
        actions = policy.plan(view)
        spills = [a for a in actions if a.kind == "spill"]
        # every worker is far over a 64-byte budget: spills are planned
        # for hot shards (never already-warm ones)
        assert spills
        for a in spills:
            assert a.shard_id in view.hot_shards(a.worker_id)


# -- budget enforcement and the larger-than-memory differential ------------


class TestLargerThanMemory:
    def _budget_for(self, schema, n_items, seed, divisor=4):
        """Per-worker budget sized so the dataset is >= 3x the
        aggregate hot budget, measured on an unconstrained twin."""
        ref, _ = residency_cluster(schema, n_items=n_items, seed=seed)
        total = sum(w.resident_bytes() for w in ref.workers.values())
        max_shard = max(
            s.resident_bytes()
            for w in ref.workers.values()
            for s in w.shards.values()
        )
        budget = max(total // (len(ref.workers) * divisor), 1)
        return ref, budget, max_shard

    def test_budget_bounds_residency_with_hysteresis(self, schema):
        n = 4000
        ref, budget, max_shard = self._budget_for(schema, n, seed=11)
        cluster, _ = residency_cluster(
            schema, n_items=n, budget=budget, seed=11, shards_per_worker=4
        )
        # the dataset cannot fit: every worker spilled something
        for w in cluster.workers.values():
            assert w.storage.spills > 0
            assert w.resident_bytes() <= budget + max_shard
        total_data = sum(w.resident_bytes() for w in ref.workers.values())
        assert total_data >= 3 * budget * len(cluster.workers)

    def test_full_coverage_differential_bit_identical(self, schema):
        n = 4000
        ref, budget, max_shard = self._budget_for(schema, n, seed=11)
        queries = [full_query(schema)] + [
            Query(b) for b in random_boxes(schema, 6, seed=2)
        ]
        expected = agg_tuples(ref.execute(queries))
        cluster, _ = residency_cluster(
            schema, n_items=n, budget=budget, seed=11, shards_per_worker=4
        )
        got = cluster.execute(queries)
        assert agg_tuples(got) == expected
        assert all(r.coverage == 1.0 for r in got)
        # serving the queries rehydrated lazily, then re-spilled to stay
        # under budget: the tier was genuinely exercised
        assert sum(w.storage.rehydrates for w in cluster.workers.values()) > 0
        for w in cluster.workers.values():
            assert w.resident_bytes() <= budget + max_shard

    def test_differential_under_chaos_and_spilled_failover(self, schema):
        """Drop/duplicate chaos on the insert path, then a crash of the
        worker holding spilled shards: the healed, budgeted cluster
        still answers bit-identical to the all-hot fault-free twin."""
        n = 3000
        ref, budget, max_shard = self._budget_for(schema, n, seed=13)
        extra = int_batch(schema, 200, seed=99)
        # reference: all-hot, fault-free, same extra inserts
        sess = ref.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        ref.run_until_clients_done(max_virtual=300.0)
        assert ref.stats.failures == 0
        queries = [full_query(schema)] + [
            Query(b) for b in random_boxes(schema, 4, seed=5)
        ]
        expected = agg_tuples(ref.execute(queries))

        cluster, _ = residency_cluster(
            schema, n_items=n, budget=budget, seed=13, shards_per_worker=4
        )
        inj = cluster.inject_faults(
            FaultPlan()
            .drop(0.08, kinds=INSERT_KINDS)
            .duplicate(0.08, kinds=INSERT_KINDS),
            seed=21,
        )
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_until_clients_done(max_virtual=300.0)
        assert cluster.stats.failures == 0, "retry budget must absorb chaos"
        assert inj.dropped > 0 and inj.duplicated > 0
        cluster.clear_faults()
        # quiesce past a checkpoint period so every hot shard's blob is
        # current, then kill the worker with the most spilled shards
        cluster.run_for(1.0)
        victim = max(
            cluster.workers.values(), key=lambda w: len(w.storage.cold)
        )
        assert victim.storage.cold, "budget run must leave spilled shards"
        lost = len(victim.shards) + len(victim.storage.cold)
        cluster.crash_worker(victim.worker_id)
        for _ in range(400):
            cluster.run_for(0.25)
            if (
                cluster.manager.restores_done >= lost
                and cluster.manager.lifecycle.quiescent()
                and not cluster.manager._pending_restores
            ):
                break
        assert cluster.manager.restores_done >= lost
        got = cluster.execute(queries)
        assert agg_tuples(got) == expected
        assert all(r.coverage == 1.0 for r in got)
        for w in cluster.workers.values():
            if not w.crashed:
                assert w.resident_bytes() <= budget + 2 * max_shard
