"""Observability subsystem: spans, metrics, profiler, exporters, API.

Covers the documented guarantees of docs/observability.md:

* span trees follow the fixed stage sequences, and on a fault-free run
  every closed child span ends at or before its parent's end;
* under chaos (drops/duplicates, crash + failover) traces stay
  *structurally* well-formed -- every parent exists, stage names come
  from the documented vocabulary, and open spans belong only to crashed
  workers -- while strict timing is intentionally allowed to bend;
* the metrics snapshot schema, and the regression that two sequential
  clusters in one process report independent metrics (no module state);
* the Prometheus text exposition against a golden file;
* the batching knobs have one spelling (the old aliases are gone);
* zero-overhead default: ``transport.obs`` is None.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import MetricsRegistry, Query, TreeProfiler
from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    FaultPlan,
    RetryPolicy,
    VOLAPCluster,
)
from repro.core import HilbertPDCTree, TreeConfig
from repro.obs.export import to_prometheus
from repro.olap.query import full_query
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch

GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"

#: every stage name a span may legally carry
STAGE_VOCAB = {
    "client.insert", "server.route_insert", "worker.apply_insert",
    "tree.insert",
    "client.query", "server.route_query", "worker.query", "tree.query",
    "manager.split", "worker.split", "manager.migrate", "manager.restore",
    "manager.replicate", "worker.replicate", "manager.promote",
    "worker.promote",
}

FAST_RETRY = RetryPolicy(
    timeout=0.4,
    max_attempts=12,
    insert_timeout=0.1,
    max_insert_retries=8,
    query_deadline=0.3,
    backoff_base=0.02,
    backoff_factor=1.5,
    backoff_jitter=0.005,
)


def small_cluster(schema, n_items=1200, workers=3, batch_size=1, seed=3,
                  **cfg_kwargs):
    cfg = ClusterConfig(
        num_workers=workers,
        num_servers=1,
        tree_config=TreeConfig(leaf_capacity=32, fanout=8),
        balancer=BalancerPolicy(max_shard_items=100_000, scan_period=0.1),
        batch_size=batch_size,
        seed=seed,
        **cfg_kwargs,
    )
    cluster = VOLAPCluster(schema, cfg)
    cluster.bootstrap(random_batch(schema, n_items, seed=seed),
                      shards_per_worker=2)
    return cluster


def insert_ops(batch):
    return [
        Operation(
            "insert", coords=batch.coords[i], measure=float(batch.measures[i])
        )
        for i in range(len(batch))
    ]


def run_ops(cluster, ops, concurrency=4, max_virtual=300.0):
    sess = cluster.session(0, concurrency=concurrency)
    sess.run_stream(ops)
    cluster.run_until_clients_done(max_virtual=max_virtual)
    return sess


def assert_well_formed(obs):
    """Structural trace invariants that hold under ANY fault plan."""
    by_id = {s.span_id: s for s in obs.tracer.spans}
    for s in obs.tracer.spans:
        assert s.name in STAGE_VOCAB, s.name
        if s.parent_id is not None:
            parent = by_id[s.parent_id]
            assert parent.trace_id == s.trace_id
        else:
            assert s.name.startswith(("client.", "manager."))
        assert s.end is None or s.end >= s.start


@pytest.fixture
def schema():
    return make_schema()


class TestSpanTrees:
    def test_disabled_by_default(self, schema):
        cluster = small_cluster(schema, n_items=50)
        assert cluster.obs is None
        assert cluster.transport.obs is None
        for w in cluster.workers.values():
            for store in w.shards.values():
                assert getattr(store, "profiler", None) is None

    def test_observe_idempotent_and_unobserve(self, schema):
        cluster = small_cluster(schema, n_items=50)
        obs = cluster.observe()
        assert cluster.observe() is obs
        assert cluster.obs is obs
        assert obs.registry is cluster.metrics
        cluster.unobserve()
        assert cluster.obs is None

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_insert_and_query_sequences(self, schema, batch_size):
        """Fault-free: the exact documented stage sequences, whatever
        the batch size -- one trace per op, everything closed, child
        ends <= parent ends."""
        cluster = small_cluster(schema, batch_size=batch_size)
        obs = cluster.observe()
        extra = random_batch(schema, 30, seed=11)
        ops = insert_ops(extra) + [
            Operation("query", query=full_query(schema)) for _ in range(5)
        ]
        run_ops(cluster, ops, concurrency=16)

        traces = obs.traces()
        assert len(traces) == len(ops)
        assert obs.open_spans() == []
        n_insert = n_query = 0
        for tid, spans in traces.items():
            seq = obs.span_tree(tid)
            assert not any("batched" in s.tags for s in spans)
            if seq[0] == "client.insert":
                n_insert += 1
                assert seq == [
                    "client.insert",
                    "server.route_insert",
                    "worker.apply_insert",
                    "tree.insert",
                ]
            else:
                n_query += 1
                assert seq[0] == "client.query"
                assert seq[1] == "server.route_query"
                # then one worker.query per worker, each with >= 1
                # tree.query child
                rest = seq[2:]
                assert rest, "full query must reach workers"
                assert set(rest) == {"worker.query", "tree.query"}
                assert rest[0] == "worker.query"
        assert n_insert == len(extra) and n_query == 5
        # fault-free timing invariant: closed children end before parents
        by_id = {s.span_id: s for s in obs.tracer.spans}
        for s in obs.tracer.spans:
            if s.parent_id is not None:
                assert s.end <= by_id[s.parent_id].end
        assert_well_formed(obs)

    def test_profiler_reports_the_kernel_that_ran(self, schema):
        """Inserts always apply through one ``insert_batch`` tree call
        per (message, shard), so the profiler never sees a per-row
        ``insert``; likewise every shard a query message touches runs
        one ``query_batch`` call, ``rows`` boxes wide -- one box or
        several."""
        cluster = small_cluster(schema, batch_size=8)
        obs = cluster.observe()
        extra = random_batch(schema, 40, seed=12)
        run_ops(cluster, insert_ops(extra), concurrency=16)

        assert obs.open_spans() == []
        worker_rows = sum(
            s.name == "worker.apply_insert" for s in obs.tracer.spans
        )
        assert worker_rows == len(extra)
        kinds = {p.kind for p in obs.profiler.records}
        assert "insert_batch" in kinds and "insert" not in kinds
        assert sum(
            p.rows for p in obs.profiler.select("insert_batch")
        ) == len(extra)

        cluster.execute(Query(full_query(schema).box))
        assert not obs.profiler.select("query")
        lone = obs.profiler.select("query_batch")
        assert lone and all(p.rows == 1 for p in lone)
        cluster.execute([Query(full_query(schema).box) for _ in range(4)])
        assert not obs.profiler.select("query")
        wide = obs.profiler.select("query_batch")[len(lone):]
        assert wide and all(p.rows == 4 for p in wide)

    def test_span_durations_feed_registry(self, schema):
        cluster = small_cluster(schema)
        obs = cluster.observe()
        run_ops(cluster, insert_ops(random_batch(schema, 10, seed=13)))
        snap = cluster.metrics.snapshot()
        hist = snap["histograms"]["volap_span_seconds"]
        assert hist["count"] == len(obs.tracer.spans)
        stages = {s["labels"]["stage"] for s in hist["series"]}
        assert "client.insert" in stages and "tree.insert" in stages


class TestSpansUnderChaos:
    def test_drop_duplicate_traces_stay_well_formed(self, schema):
        """10% drop + duplicate on the insert path: stage sequences stay
        within the vocabulary and every span's parent exists.  Strict
        child-before-parent timing is NOT asserted -- a retransmit's
        second server subtree may outlive the client span by design."""
        cluster = small_cluster(schema, retry=FAST_RETRY)
        obs = cluster.observe()
        kinds = {
            "client_insert_batch", "insert_batch", "insert_batch_ack",
            "insert_done_batch",
        }
        inj = cluster.inject_faults(
            FaultPlan().drop(0.10, kinds=kinds).duplicate(0.10, kinds=kinds),
            seed=7,
        )
        extra = random_batch(schema, 120, seed=17)
        run_ops(cluster, insert_ops(extra))

        assert inj.dropped > 0
        assert_well_formed(obs)
        # no crash happened, so every span eventually closes -- a
        # duplicated client batch may still be routing when the clients
        # are done, so drive until the last one does (under a horizon)
        cluster.runtime.drive(
            lambda: not obs.open_spans(),
            horizon=cluster.clock.now + 30.0,
            desc="open spans",
        )
        assert obs.open_spans() == []
        # retransmits: some traces carry more than one server subtree
        retried = [
            tid
            for tid, spans in obs.traces().items()
            if sum(s.name == "server.route_insert" for s in spans) > 1
        ]
        assert retried, "fault plan should force at least one retransmit"

    def test_crash_failover_spans_and_open_spans(self, schema):
        """Crash a worker mid-ingest: manager.restore spans appear, and
        any span left open belongs to the crashed worker."""
        cluster = small_cluster(
            schema,
            workers=3,
            retry=FAST_RETRY,
            heartbeat_period=0.1,
            heartbeat_miss_k=3,
            checkpoint_period=0.4,
        )
        obs = cluster.observe()
        cluster.run_for(1.0)  # let checkpoints land
        extra = random_batch(schema, 150, seed=19)
        sess = cluster.session(0, concurrency=4)
        sess.run_stream(insert_ops(extra))
        cluster.run_for(0.05)
        cluster.crash_worker(1)
        cluster.run_until_clients_done(max_virtual=300.0)
        cluster.run_for(5.0)  # failure detection + restores

        assert_well_formed(obs)
        restores = [s for s in obs.tracer.spans if s.name == "manager.restore"]
        assert restores and all(s.closed for s in restores)
        for s in obs.open_spans():
            assert s.entity == "worker-1", s


class TestMetricsRegistry:
    def test_snapshot_schema_and_op_counts(self, schema):
        cluster = small_cluster(schema)
        extra = random_batch(schema, 25, seed=5)
        ops = insert_ops(extra) + [
            Operation("query", query=full_query(schema)) for _ in range(3)
        ]
        run_ops(cluster, ops)
        snap = cluster.metrics.snapshot()  # live without observe()
        assert set(snap) == {"counters", "gauges", "histograms"}
        ops_total = snap["counters"]["volap_ops_total"]
        assert ops_total["total"] == len(ops)
        for row in ops_total["series"]:
            assert set(row) == {"labels", "value"}
        lat = snap["histograms"]["volap_op_latency_seconds"]
        for key in ("count", "sum", "mean", "p50", "p95", "p99",
                    "buckets", "series"):
            assert key in lat
        assert lat["count"] == len(ops)
        # snapshot-time collector pulled live per-entity gauges
        items = snap["gauges"]["volap_worker_items"]
        assert items["total"] == cluster.total_items()

    def test_two_sequential_clusters_are_independent(self, schema):
        """Regression for shared mutable state: metrics and stats of a
        second cluster must not see the first cluster's ops."""
        first = small_cluster(schema, n_items=300)
        run_ops(first, insert_ops(random_batch(schema, 20, seed=1)))
        second = small_cluster(schema, n_items=300)
        run_ops(second, insert_ops(random_batch(schema, 7, seed=2)))

        s1 = first.stats.registry.snapshot()
        s2 = second.stats.registry.snapshot()
        assert s1["counters"]["volap_ops_total"]["total"] == 20
        assert s2["counters"]["volap_ops_total"]["total"] == 7
        assert len(first.stats.ops) == 20 and len(second.stats.ops) == 7
        assert first.metrics is not second.metrics

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("x_total").inc()
        with pytest.raises(ValueError):
            r.gauge("x_total")

    def test_counter_monotonic(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.counter("c").inc(-1)

    def test_histogram_quantiles_and_merge(self):
        r = MetricsRegistry()
        h = r.histogram("h", buckets=(1, 2, 4, 8))
        for v in (0.5, 1.5, 3, 3, 7):
            h.observe(v)
        assert h.count == 5 and h.quantile(0.5) == 4.0
        merged = h.merged(r.histogram("h", buckets=(1, 2, 4, 8), extra="y"))
        assert merged.count == 5


class TestPrometheusGolden:
    @staticmethod
    def _registry():
        r = MetricsRegistry()
        r.counter("volap_ops_total", help="completed client operations",
                  kind="insert", ok="true").inc(41)
        r.counter("volap_ops_total", kind="query", ok="true").inc(7)
        r.gauge("volap_worker_items", worker="0").set(1200)
        r.gauge("volap_worker_items", worker="1").set(800)
        h = r.histogram("volap_op_latency_seconds",
                        buckets=(0.001, 0.01, 0.1), kind="insert")
        for v in (0.0005, 0.002, 0.002, 0.05, 0.5):
            h.observe(v)
        return r

    def test_matches_golden_file(self):
        text = to_prometheus(self._registry())
        assert text == GOLDEN.read_text()

    def test_cluster_export_parses(self, schema):
        """Every exposition line from a real run matches the format."""
        cluster = small_cluster(schema)
        obs = cluster.observe()
        run_ops(cluster, insert_ops(random_batch(schema, 10, seed=3)))
        text = obs.to_prometheus()
        assert "volap_messages_total" in text
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name_part, value = line.rsplit(" ", 1)
                assert name_part.startswith("volap_")
                float(value)  # parseable number


class TestBatchingKnobs:
    def test_one_spelling_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ClusterConfig(batch_size=16, batch_linger=2e-3)
        assert cfg.batch_size == 16
        assert cfg.batch_linger == 2e-3
        # the pre-PR-3 aliases are gone, not silently ignored
        with pytest.raises(TypeError):
            ClusterConfig(client_batch_size=8)
        with pytest.raises(TypeError):
            ClusterConfig(client_batch_linger=1e-3)


class TestTreeProfiler:
    def test_standalone_tree_profiling(self, schema):
        batch = random_batch(schema, 400, seed=9)
        tree = HilbertPDCTree(schema)
        prof = TreeProfiler()
        for i in range(200):
            prof.record(
                "insert", tree.insert(batch.coords[i], float(batch.measures[i]))
            )
        tail = batch.slice(200, 400)
        prof.record("insert_batch", tree.insert_batch(tail), rows=len(tail))
        prof.record("query", tree.query(full_query(schema).box)[1])

        summary = prof.summary()
        assert summary["insert"]["ops"] == 200
        assert summary["insert_batch"]["rows"] == 200
        assert summary["query"]["ops"] == 1
        assert summary["query"]["nodes_visited"] >= 1

    def test_profiler_ring_bound(self, schema):
        prof = TreeProfiler(keep=5)
        tree = HilbertPDCTree(schema)
        batch = random_batch(schema, 20, seed=2)
        for coords, m in batch.iter_rows():
            prof.record("insert", tree.insert(coords, m))
        assert len(prof.records) == 5
        assert prof.dropped == 15 and prof.ops == 20


class TestPublicApi:
    def test_curated_exports(self):
        import repro

        for name in ("MetricsRegistry", "Observability", "TreeProfiler",
                     "Query", "full_query", "query_from_levels"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_query_range_level_names(self, schema):
        dim = schema.dimensions[0]
        level = dim.hierarchy.levels[0]
        by_name = Query.range(schema, **{dim.name: (level.name, (1,))})
        by_depth = Query.range(schema, **{dim.name: (1, (1,))})
        assert np.array_equal(by_name.box.lo, by_depth.box.lo)
        assert np.array_equal(by_name.box.hi, by_depth.box.hi)
        with pytest.raises(ValueError, match="no level named"):
            Query.range(schema, **{dim.name: ("nope", (1,))})
