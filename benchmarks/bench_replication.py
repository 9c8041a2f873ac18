"""Replication benchmark: bounded-staleness reads and failover paths.

Two experiments, results in ``BENCH_replication.json`` at the repo
root:

1. **Read throughput vs replication factor** -- a mixed workload
   (sustained inserts racing budget-carrying full-scan queries) against
   K = 0, 1, 2 async replicas per shard.  With K > 0 the routing
   server offloads fitting reads to replicas; the table records the
   virtual-time query throughput, latency, and how many shard reads
   were replica-served at each K.
2. **Failover: promote vs restore** -- crash a primary with and
   without replicas and step the clock until the cluster heals.  With
   a live replica the manager flips metadata (promotion); without one
   it falls back to deserializing checkpoint blobs.

Acceptance gate: the promotion path performs ZERO checkpoint
deserializations; the zero-replica path still converges (restores > 0,
full item count).  Heal times are recorded but not ordered -- both are
dominated by the same heartbeat-TTL detection window, and the data-path
gap (a constant-time flip vs deserializing blobs that grow with shard
size) only shows at scale.  ``BENCH_QUICK=1`` shrinks the run for CI
smoke.
"""

import json
import os
from pathlib import Path

from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    VOLAPCluster,
)
from repro.core import TreeConfig
from repro.olap.query import full_query
from repro.workloads import TPCDSGenerator, tpcds_schema
from repro.workloads.streams import Operation

SCHEMA = tpcds_schema()

QUICK = bool(os.environ.get("BENCH_QUICK"))

N_BOOT = 4_000 if QUICK else 12_000
N_INSERTS = 300 if QUICK else 1_200
N_QUERIES = 30 if QUICK else 120
FACTORS = (0, 1, 2)
READ_BUDGET = 0.5  # seconds of staleness the reader opts into


def make_cluster(factor, seed=3):
    cfg = ClusterConfig(
        num_workers=3,
        num_servers=1,
        tree_config=TreeConfig(leaf_capacity=64, fanout=8),
        balancer=BalancerPolicy(
            max_shard_items=10**9, scan_period=0.1, op_timeout=2.0
        ),
        heartbeat_period=0.1,
        heartbeat_miss_k=3,
        checkpoint_period=0.4,
        replication_factor=factor,
        seed=seed,
    )
    cluster = VOLAPCluster(SCHEMA, cfg)
    batch = TPCDSGenerator(SCHEMA, seed=seed).batch(N_BOOT)
    cluster.bootstrap(batch, shards_per_worker=2)
    return cluster, batch


def insert_ops(batch):
    return [
        Operation(
            "insert", coords=batch.coords[i], measure=float(batch.measures[i])
        )
        for i in range(len(batch))
    ]


def read_throughput(factor):
    cluster, _ = make_cluster(factor)
    cluster.run_for(2.5)  # replicas (if any) seeded and settled
    writer = cluster.session(0, concurrency=16)
    writer.run_stream(insert_ops(TPCDSGenerator(SCHEMA, seed=11).batch(N_INSERTS)))
    reader = cluster.session(0, concurrency=4)
    queries = []
    for _ in range(N_QUERIES):
        q = full_query(SCHEMA)
        q.max_staleness = READ_BUDGET
        queries.append(Operation("query", query=q))
    reader.run_stream(queries)
    cluster.run_until_clients_done(max_virtual=600.0)
    recs = cluster.stats.select(kind="query")
    lat = cluster.stats.latency_stats(recs)
    return {
        "factor": factor,
        "queries": len(recs),
        "query_throughput_vt": round(cluster.stats.throughput(recs), 1),
        "query_latency_mean_s": round(float(lat["mean"]), 6),
        "replica_shard_reads": cluster.servers[0].replica_reads,
        "max_achieved_staleness_s": round(
            max((r.staleness for r in recs), default=0.0), 4
        ),
    }


def failover(factor):
    cluster, batch = make_cluster(factor)
    cluster.run_for(2.5)  # checkpoints cover every shard; replicas seeded
    t0 = cluster.clock.now
    cluster.crash_worker(0)
    horizon = t0 + 60.0
    while cluster.clock.now < horizon:
        if not cluster.clock.step():
            break
        if (
            not cluster.manager._pending_restores
            and cluster.manager.lifecycle.quiescent()
            and cluster.total_items() == len(batch)
        ):
            break
    return {
        "factor": factor,
        "heal_time_s": round(cluster.clock.now - t0, 4),
        "promotions": cluster.manager.promotions_done,
        "restores": cluster.manager.restores_done,
        "checkpoint_deserializations": sum(
            w.transfer.checkpoint_deserializations for w in cluster.workers.values()
        ),
        "items_recovered": cluster.total_items() == len(batch),
    }


def test_replication_read_offload_and_failover():
    reads = [read_throughput(k) for k in FACTORS]
    restore = failover(0)
    promote = failover(1)

    result = {
        "boot_records": N_BOOT,
        "inserts": N_INSERTS,
        "queries": N_QUERIES,
        "read_budget_s": READ_BUDGET,
        "quick": QUICK,
        "read_throughput_vs_factor": reads,
        "failover": {"restore": restore, "promote": promote},
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_replication.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print()
    print(f"replication bench: {json.dumps(result)}")

    # budget-less baseline never reads replicas; replicated runs do
    assert reads[0]["replica_shard_reads"] == 0
    assert all(r["replica_shard_reads"] > 0 for r in reads if r["factor"] > 0)
    assert all(
        r["max_achieved_staleness_s"] <= READ_BUDGET for r in reads
    )
    # promotion is a metadata flip: zero checkpoint blobs deserialized
    assert promote["promotions"] > 0
    assert promote["restores"] == 0
    assert promote["checkpoint_deserializations"] == 0, promote
    assert promote["items_recovered"], promote
    # with no replica the heal degrades gracefully to checkpoint restore
    assert restore["promotions"] == 0
    assert restore["restores"] > 0
    assert restore["checkpoint_deserializations"] > 0
    assert restore["items_recovered"], restore
