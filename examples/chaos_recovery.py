"""Chaos and recovery: faults, replica promotion, bounded-staleness reads.

A replicated cluster (``replication_factor=1``) ingests under a 10%
message drop + duplication plan (every acknowledged insert still lands
exactly once thanks to op-id deduplication), then loses workers two
different ways:

* With a live replica, failover is a **promotion**: the manager flips
  the freshest replica to primary -- zero checkpoint blobs touched.
* When a shard's primary *and* replica are both gone, the manager
  falls back to the seed path: **restore** from periodic checkpoints.

Queries throughout carry an optional ``max_staleness`` budget.  During
the failure-detection window a budget query keeps 100% coverage by
reading the dead primary's shards from their replicas (the achieved
staleness is reported per query); a budget-less query degrades to
partial coverage instead of stalling.

Run:  python examples/chaos_recovery.py
"""

from repro import TPCDSGenerator, tpcds_schema
from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    FaultPlan,
    RetryPolicy,
    VOLAPCluster,
)
from repro.olap.query import full_query
from repro.workloads.streams import Operation


def one_query(cluster, schema, max_staleness=None):
    sess = cluster.session(0, concurrency=1)
    got = []
    sess.on_complete = got.append
    q = full_query(schema)
    q.max_staleness = max_staleness
    sess.run_stream([Operation("query", query=q)])
    cluster.run_until_clients_done()
    return got[0]


def show(tag, rec):
    print(
        f"  {tag}: coverage {rec.achieved:.0%}, n={rec.result_count:,}, "
        f"staleness {rec.staleness * 1000:.1f} ms, "
        f"latency {rec.latency * 1000:.0f} ms"
    )


def main() -> None:
    schema = tpcds_schema()
    gen = TPCDSGenerator(schema, seed=3)

    retry = RetryPolicy(
        timeout=0.4,
        max_attempts=12,
        insert_timeout=0.1,
        max_insert_retries=8,
        query_deadline=0.25,
        backoff_base=0.02,
    )
    cluster = VOLAPCluster(
        schema,
        ClusterConfig(
            num_workers=3,
            num_servers=1,
            balancer=BalancerPolicy(
                max_shard_items=100_000, scan_period=0.1, op_timeout=2.0
            ),
            retry=retry,
            heartbeat_period=0.1,
            heartbeat_miss_k=3,
            checkpoint_period=0.4,
            replication_factor=1,
        ),
    )
    n = 20_000
    cluster.bootstrap(gen.batch(n), shards_per_worker=2)
    print(
        f"bootstrap: {n:,} items on 3 workers, {cluster.shard_count()} "
        f"shards, 1 async replica per shard"
    )
    cluster.run_for(2.0)  # seed the replicas from snapshots

    # -- phase 1: ingest through a lossy, duplicating network ---------------
    inj = cluster.inject_faults(FaultPlan().drop(0.10).duplicate(0.10), seed=7)
    extra = gen.batch(1_000)
    sess = cluster.session(0, concurrency=8)
    sess.run_stream(
        [
            Operation("insert", coords=extra.coords[i], measure=float(extra.measures[i]))
            for i in range(len(extra))
        ]
    )
    cluster.run_until_clients_done(max_virtual=600.0)
    dedup = sum(w.dedup_hits for w in cluster.workers.values())
    print(
        f"\nlossy ingest of {len(extra):,} inserts: "
        f"{inj.dropped} messages dropped, {inj.duplicated} duplicated"
    )
    print(
        f"  retransmits deduplicated at workers: {dedup}; "
        f"failures: {cluster.stats.failures}"
    )
    assert cluster.total_items() == n + len(extra), "exactly-once violated!"
    print(f"  global count {cluster.total_items():,} = exactly-once ✓")
    cluster.clear_faults()
    cluster.run_for(1.0)  # checkpoints + replica stream catch up

    # -- phase 2: bounded-staleness reads (healthy cluster) -----------------
    print("\nbounded-staleness reads (budget 100 ms, replicas offload):")
    for _ in range(3):
        show("query", one_query(cluster, schema, max_staleness=0.1))
    print(f"  shard reads served by replicas: {cluster.servers[0].replica_reads}")

    # -- phase 3: kill a primary -> replica promotion -----------------------
    victim = 0
    lost = cluster.worker_sizes()[victim]
    cluster.crash_worker(victim)
    print(f"\ncrashed worker {victim} (held {lost:,} items)")

    rec = one_query(cluster, schema)  # no budget: honest partial coverage
    show("during recovery, no budget   ", rec)
    rec = one_query(cluster, schema, max_staleness=0.5)
    show("during recovery, 500ms budget", rec)

    cluster.run_for(2.0)  # heartbeat expiry + promotions
    t, wid, k = cluster.stats.failovers[0]
    deser = sum(w.transfer.checkpoint_deserializations for w in cluster.workers.values())
    print(
        f"  declared dead at t={t:.2f}s -> {cluster.manager.promotions_done} "
        f"replicas promoted, {deser} checkpoint blobs deserialized"
    )
    show("after promotion              ", one_query(cluster, schema))

    # -- phase 4: double failure -> promote where possible, restore the rest
    cluster.restart_worker(victim)
    cluster.run_for(3.0)  # rejoin through quarantine, re-seed replicas
    promoted_before = cluster.manager.promotions_done
    restored_before = cluster.manager.restores_done
    cluster.crash_worker(1)
    cluster.crash_worker(2)
    print("\ncrashed workers 1 AND 2: some shards lose primary + replica")
    cluster.run_for(8.0)
    promoted = cluster.manager.promotions_done - promoted_before
    restored = cluster.manager.restores_done - restored_before
    print(
        f"  healed onto the survivor: {promoted} shards by replica "
        f"promotion, {restored} by checkpoint restore"
    )
    rec = one_query(cluster, schema)
    show("after double failure         ", rec)
    assert rec.achieved == 1.0 and rec.result_count == n + len(extra)
    print("no item lost: replicas + checkpoints restored the full database ✓")


if __name__ == "__main__":
    main()
