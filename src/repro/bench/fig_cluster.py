"""Cluster experiments: paper Figures 6-9 and the headline throughput.

All cluster numbers are *virtual-time* rates and latencies from the
discrete-event substrate (DESIGN.md section 2); real index and protocol
code runs underneath.  Database sizes follow the scale-down rule
N ~ p x `items_per_worker` with `items_per_worker` three orders of
magnitude below the paper's 50 M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cluster import (
    BalancerPolicy,
    ClusterConfig,
    MemoryPressurePolicy,
    ThresholdPolicy,
    VOLAPCluster,
)
from ..core import TreeConfig
from ..olap.schema import Schema
from ..workloads.querygen import PAPER_BIN_NAMES, PAPER_BINS, QueryGenerator
from ..workloads.streams import Operation, StreamGenerator
from ..workloads.tpcds import TPCDSGenerator, tpcds_schema

__all__ = [
    "ScaleUpPhase",
    "run_image_key_ablation",
    "MixCell",
    "PolicyComparisonRow",
    "run_fig6_fig7",
    "run_fig8",
    "run_fig9",
    "run_headline",
    "run_policy_comparison",
]


def _default_tree_config() -> TreeConfig:
    return TreeConfig(leaf_capacity=64, fanout=16)


def _make_cluster(
    schema: Schema,
    workers: int,
    servers: int = 2,
    max_shard_items: int = 4000,
    seed: int = 0,
) -> VOLAPCluster:
    cfg = ClusterConfig(
        num_workers=workers,
        num_servers=servers,
        tree_config=_default_tree_config(),
        balancer=BalancerPolicy(
            max_shard_items=max_shard_items,
            imbalance_ratio=1.3,
            min_migrate_items=200,
            scan_period=0.5,
        ),
        seed=seed,
    )
    return VOLAPCluster(schema, cfg)


def _drive_stream(
    cluster: VOLAPCluster,
    ops: list[Operation],
    sessions: int = 4,
    concurrency: int = 24,
    batch_size: int = 1,
) -> tuple[float, float]:
    """Run ``ops`` split across sessions on alternating servers.

    ``batch_size`` is how many pending ops a session coalesces into
    one ``client_insert_batch`` / ``client_query_batch`` message (1 =
    every op is a batch of one).  Returns (virtual
    start, virtual end) of the measurement window."""
    start = cluster.clock.now
    chunks = [ops[i::sessions] for i in range(sessions)]
    for i, chunk in enumerate(chunks):
        sess = cluster.session(
            i, concurrency=concurrency, batch_size=batch_size
        )
        sess.run_stream(chunk)
    cluster.run_until_clients_done()
    return start, cluster.clock.now


# ---------------------------------------------------------------------------
# Figures 6 + 7: elastic scale-up (one experiment, two views)
# ---------------------------------------------------------------------------


@dataclass
class ScaleUpPhase:
    workers: int
    total_items: int
    insert_throughput: float
    insert_latency: float
    query_throughput: dict[str, float] = field(default_factory=dict)
    query_latency: dict[str, float] = field(default_factory=dict)


@dataclass
class ScaleUpResult:
    phases: list[ScaleUpPhase]
    #: Fig 6 series: (virtual time, min worker items, max worker items,
    #: cumulative migrations)
    balance_series: list[tuple[float, int, int, int]]
    splits: int
    migrations: int


def run_fig6_fig7(
    start_workers: int = 4,
    end_workers: int = 12,
    step: int = 2,
    items_per_worker: int = 6000,
    bench_inserts: int = 400,
    bench_queries_per_bin: int = 60,
    seed: int = 1,
) -> ScaleUpResult:
    """The paper's scale-up experiment: alternate load phases (adding two
    empty workers each time, letting the balancer redistribute) with
    insert/query benchmark phases, from ``start_workers`` to
    ``end_workers`` with N ~ p x items_per_worker."""
    schema = tpcds_schema()
    gen = TPCDSGenerator(schema, seed=seed)
    cluster = _make_cluster(
        schema,
        start_workers,
        max_shard_items=int(items_per_worker * 0.9),
        seed=seed,
    )
    initial = gen.batch(start_workers * items_per_worker)
    cluster.bootstrap(initial, shards_per_worker=3)
    reference = initial  # coverage reference grows with the database
    phases: list[ScaleUpPhase] = []

    workers = start_workers
    while True:
        # -- benchmark phase at current size --------------------------------
        qg = QueryGenerator(schema, reference, seed=seed + workers)
        bins = qg.generate_bins(per_bin=max(8, bench_queries_per_bin // 4))
        phase = ScaleUpPhase(
            workers=workers,
            total_items=cluster.total_items(),
            insert_throughput=0.0,
            insert_latency=0.0,
        )
        # inserts
        ext = gen.batch(bench_inserts)
        ops = [
            Operation("insert", coords=ext.coords[i], measure=float(ext.measures[i]))
            for i in range(bench_inserts)
        ]
        t0, t1 = _drive_stream(cluster, ops)
        recs = cluster.stats.select(kind="insert", since=t0)
        phase.insert_throughput = cluster.stats.throughput(recs)
        phase.insert_latency = cluster.stats.latency_stats(recs)["mean"]
        # queries per coverage band
        for name, band in zip(PAPER_BIN_NAMES, PAPER_BINS):
            sg = StreamGenerator(
                gen, bins, insert_fraction=0.0, coverage_mix=[name], seed=seed
            )
            ops = list(sg.operations(bench_queries_per_bin))
            t0, t1 = _drive_stream(cluster, ops)
            recs = cluster.stats.select(kind="query", since=t0)
            phase.query_throughput[name] = cluster.stats.throughput(recs)
            phase.query_latency[name] = cluster.stats.latency_stats(recs)["mean"]
        phases.append(phase)

        if workers >= end_workers:
            break
        # -- load phase: add workers, rebalance, grow the database ----------
        cluster.add_workers(step)
        workers += step
        cluster.run_for(20.0)  # let migrations fill the new workers
        grow = gen.batch(step * items_per_worker)
        cluster.bulk_load(grow)
        cluster.run_for(10.0)
        from ..olap.records import concat_batches

        reference = concat_batches([reference, grow], schema.num_dims)

    return ScaleUpResult(
        phases=phases,
        balance_series=cluster.stats.balance_series(),
        splits=cluster.stats.splits,
        migrations=cluster.stats.migrations,
    )


# ---------------------------------------------------------------------------
# Balancer policy comparison (Fig 6 scenario, both policies)
# ---------------------------------------------------------------------------


@dataclass
class PolicyComparisonRow:
    """How one balancer policy handled the Fig 6 scale-up scenario."""

    policy: str
    #: widest min/max items-per-worker gap observed (right after the
    #: empty workers joined)
    peak_gap: int
    #: gap after the settle window -- how well the policy closed the band
    final_gap: int
    splits: int
    migrations: int

    @property
    def moves(self) -> int:
        """Total maintenance ops spent (splits + migrations)."""
        return self.splits + self.migrations


def run_policy_comparison(
    workers: int = 4,
    new_workers: int = 2,
    items_per_worker: int = 4000,
    settle: float = 25.0,
    seed: int = 5,
) -> list[PolicyComparisonRow]:
    """Run the Fig 6 elastic scale-up moment under each balancer policy.

    Same scenario for both: ``workers`` loaded workers, then
    ``new_workers`` empty ones join and the policy gets ``settle``
    virtual seconds to react.  Rows report the worker-size band (peak
    and final min/max gap) and the cumulative maintenance ops spent
    closing it -- threshold chases the tightest band, memory-pressure
    only acts on capacity hazards."""
    schema = tpcds_schema()
    shared = dict(
        max_shard_items=int(items_per_worker * 0.9),
        imbalance_ratio=1.3,
        min_migrate_items=200,
        scan_period=0.5,
    )
    policies = [
        ("threshold", ThresholdPolicy(**shared)),
        (
            "memory_pressure",
            # capacity pegged to the loaded phase so the stayers sit
            # above the high watermark once the cluster has grown
            MemoryPressurePolicy(
                worker_capacity_items=items_per_worker, **shared
            ),
        ),
    ]
    rows: list[PolicyComparisonRow] = []
    for name, policy in policies:
        gen = TPCDSGenerator(schema, seed=seed)
        cfg = ClusterConfig(
            num_workers=workers,
            num_servers=1,
            tree_config=_default_tree_config(),
            balancer=policy,
            seed=seed,
        )
        cluster = VOLAPCluster(schema, cfg)
        cluster.bootstrap(
            gen.batch(workers * items_per_worker), shards_per_worker=3
        )
        cluster.run_for(2.0)  # settle the bootstrap before the event
        cluster.add_workers(new_workers)
        cluster.run_for(settle)
        series = cluster.stats.balance_series()
        gaps = [hi - lo for _, lo, hi, _ in series]
        rows.append(
            PolicyComparisonRow(
                policy=name,
                peak_gap=max(gaps) if gaps else 0,
                final_gap=gaps[-1] if gaps else 0,
                splits=cluster.stats.splits,
                migrations=cluster.stats.migrations,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 8: workload mix x query coverage at fixed size
# ---------------------------------------------------------------------------


@dataclass
class MixCell:
    insert_pct: int
    coverage: str
    total_throughput: float
    query_throughput: float
    query_latency: float
    insert_throughput: float
    insert_latency: float


def run_fig8(
    workers: int = 8,
    items_per_worker: int = 6000,
    mixes: Sequence[int] = (0, 25, 50, 75, 100),
    ops_per_cell: int = 400,
    seed: int = 2,
) -> list[MixCell]:
    """Throughput and latency across workload mixes and coverage bands."""
    schema = tpcds_schema()
    gen = TPCDSGenerator(schema, seed=seed)
    batch = gen.batch(workers * items_per_worker)
    cluster = _make_cluster(schema, workers, seed=seed)
    cluster.bootstrap(batch, shards_per_worker=3)
    qg = QueryGenerator(schema, batch, seed=seed + 1)
    bins = qg.generate_bins(per_bin=20)
    cells: list[MixCell] = []
    for mix in mixes:
        for name in PAPER_BIN_NAMES:
            if mix == 100:
                # a pure-insert stream has no per-coverage distinction;
                # emit one row (under the first band label) and skip rest
                if name != PAPER_BIN_NAMES[0]:
                    continue
            sg = StreamGenerator(
                gen,
                bins,
                insert_fraction=mix / 100.0,
                coverage_mix=None if mix == 100 else [name],
                seed=seed + mix,
            )
            ops = list(sg.operations(ops_per_cell))
            t0, t1 = _drive_stream(cluster, ops)
            q = cluster.stats.select(kind="query", since=t0)
            i = cluster.stats.select(kind="insert", since=t0)
            lat_q = cluster.stats.latency_stats(q)
            lat_i = cluster.stats.latency_stats(i)
            cells.append(
                MixCell(
                    insert_pct=mix,
                    coverage=name,
                    total_throughput=cluster.stats.throughput(q + i),
                    query_throughput=cluster.stats.throughput(q) if q else 0.0,
                    query_latency=lat_q["mean"],
                    insert_throughput=cluster.stats.throughput(i) if i else 0.0,
                    insert_latency=lat_i["mean"],
                )
            )
    return cells


# ---------------------------------------------------------------------------
# Figure 9: per-query time and shards searched vs coverage
# ---------------------------------------------------------------------------


@dataclass
class CoveragePoint:
    coverage: float
    latency: float
    shards_searched: int


def run_fig9(
    workers: int = 8,
    items_per_worker: int = 6000,
    n_queries: int = 300,
    seed: int = 3,
) -> tuple[list[CoveragePoint], int]:
    """Scatter of query latency and shards searched against coverage.

    Returns (points, total shards in the cluster)."""
    schema = tpcds_schema()
    gen = TPCDSGenerator(schema, seed=seed)
    batch = gen.batch(workers * items_per_worker)
    cluster = _make_cluster(schema, workers, seed=seed)
    cluster.bootstrap(batch, shards_per_worker=4)
    qg = QueryGenerator(schema, batch, seed=seed + 1)
    # span the whole coverage spectrum roughly uniformly
    queries = []
    for lo in np.linspace(0.0, 0.9, 10):
        queries.extend(
            qg.queries_for_coverage((lo, lo + 0.1), max(1, n_queries // 10))
        )
    rng = np.random.default_rng(seed)
    rng.shuffle(queries)
    ops = [Operation("query", query=q) for q in queries[:n_queries]]
    t0, _ = _drive_stream(cluster, ops)
    recs = cluster.stats.select(kind="query", since=t0)
    points = [
        CoveragePoint(r.coverage, r.latency, r.shards_searched) for r in recs
    ]
    return points, cluster.shard_count()


# ---------------------------------------------------------------------------
# Headline throughput (paper Sections I / IV-C)
# ---------------------------------------------------------------------------


@dataclass
class HeadlineResult:
    workers: int
    total_items: int
    bulk_rate: float  # items/s, virtual
    point_insert_rate: float
    #: same online-insert stream with client-side wire batching on
    batched_insert_rate: float
    mixed_insert_rate: float
    mixed_query_rate: float
    #: registry reads (cluster.metrics.snapshot())
    p95_insert_latency: float = 0.0
    p95_query_latency: float = 0.0
    metrics: dict = field(default_factory=dict)


def run_headline(
    workers: int = 20,
    items_per_worker: int = 5000,
    bulk_items: int = 20_000,
    point_inserts: int = 1500,
    mixed_ops: int = 3000,
    seed: int = 4,
) -> HeadlineResult:
    """Bulk vs point ingestion and the mixed-stream rates at p=20."""
    schema = tpcds_schema()
    gen = TPCDSGenerator(schema, seed=seed)
    batch = gen.batch(workers * items_per_worker)
    cluster = _make_cluster(schema, workers, seed=seed)
    cluster.bootstrap(batch, shards_per_worker=3)

    bulk = gen.batch(bulk_items)
    bulk_dt = cluster.bulk_load(bulk)
    bulk_rate = bulk_items / bulk_dt

    ext = gen.batch(point_inserts)
    ops = [
        Operation("insert", coords=ext.coords[i], measure=1.0)
        for i in range(point_inserts)
    ]
    t0, t1 = _drive_stream(cluster, ops, sessions=8, concurrency=48)
    recs = cluster.stats.select(kind="insert", since=t0)
    point_rate = cluster.stats.throughput(recs)

    ext2 = gen.batch(point_inserts)
    ops = [
        Operation("insert", coords=ext2.coords[i], measure=1.0)
        for i in range(point_inserts)
    ]
    t0, t1 = _drive_stream(
        cluster, ops, sessions=8, concurrency=96, batch_size=32
    )
    recs = cluster.stats.select(kind="insert", since=t0)
    batched_rate = cluster.stats.throughput(recs)

    qg = QueryGenerator(schema, batch, seed=seed + 1)
    bins = qg.generate_bins(per_bin=15)
    sg = StreamGenerator(gen, bins, insert_fraction=0.7, seed=seed + 2)
    ops = list(sg.operations(mixed_ops))
    t0, t1 = _drive_stream(cluster, ops, sessions=8, concurrency=48)
    ins = cluster.stats.select(kind="insert", since=t0)
    qs = cluster.stats.select(kind="query", since=t0)
    span = t1 - t0
    snap = cluster.metrics.snapshot()
    lat = snap["histograms"]["volap_op_latency_seconds"]["series"]
    p95 = {s["labels"]["kind"]: s["p95"] for s in lat}
    return HeadlineResult(
        workers=workers,
        total_items=cluster.total_items(),
        bulk_rate=bulk_rate,
        point_insert_rate=point_rate,
        batched_insert_rate=batched_rate,
        mixed_insert_rate=len(ins) / span,
        mixed_query_rate=len(qs) / span,
        p95_insert_latency=p95.get("insert", 0.0),
        p95_query_latency=p95.get("query", 0.0),
        metrics=snap,
    )


# ---------------------------------------------------------------------------
# Ablation: MBR vs MDS shard bounding keys in the system image
# ---------------------------------------------------------------------------


def run_image_key_ablation(
    workers: int = 4,
    items_per_worker: int = 4000,
    n_queries: int = 120,
    seed: int = 6,
) -> dict[str, dict[str, float]]:
    """Paper III-A allows shard bounding keys to be MBRs (one box) or
    MDSs (multiple boxes).  Runs the same query stream against clusters
    whose images use each kind and reports routing precision (average
    shards searched) and the total result count (must be identical --
    the key kind may only affect routing effort, never answers)."""
    schema = tpcds_schema()
    gen = TPCDSGenerator(schema, seed=seed)
    batch = gen.batch(workers * items_per_worker)
    qg = QueryGenerator(schema, batch, seed=seed + 1)
    queries = [qg.random_query() for _ in range(n_queries)]
    out: dict[str, dict[str, float]] = {}
    for kind in ("mbr", "mds"):
        cfg = ClusterConfig(
            num_workers=workers,
            num_servers=1,
            tree_config=TreeConfig(
                key_kind="mds", leaf_capacity=64, fanout=16
            ),
            image_key_kind=kind,
            seed=seed,
        )
        cluster = VOLAPCluster(schema, cfg)
        cluster.bootstrap(batch, shards_per_worker=4)
        sess = cluster.session(0, concurrency=8)
        sess.run_stream([Operation("query", query=q) for q in queries])
        cluster.run_until_clients_done()
        recs = cluster.stats.select(kind="query")
        out[kind] = {
            "avg_shards_searched": float(
                np.mean([r.shards_searched for r in recs])
            ),
            "total_results": float(sum(r.result_count for r in recs)),
        }
    return out
