"""Sim fingerprints: refactors must leave the simulation bit-identical.

Each scenario below is a seeded run on the discrete-event runtime whose
observable trace -- events processed, messages and bytes sent, the
per-kind ``(count, bytes)`` table, item and lifecycle-op counts, and the
final virtual time -- is compared with ``golden/sim_fingerprint.json``.
The numbers are integers plus one ``repr`` of a float, so equality is
exact: a change to a wire layout (every modelled ``size / bandwidth``
delay moves), to message order, or to what any handler sends shows up
here even when every behavioural test still passes.

A *deliberate* protocol change regenerates the golden in the same
commit, with the per-kind diff quoted in its message::

    PYTHONPATH=src python -m tests.test_sim_fingerprint
"""

import json
from pathlib import Path

import pytest

from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    RetryPolicy,
    RollupConfig,
    VOLAPCluster,
)
from repro.cluster.transport import LatencyModel
from repro.core import TreeConfig
from repro.olap.query import Query, full_query
from repro.workloads.streams import Operation

from .conftest import make_schema, random_batch, random_boxes

pytestmark = pytest.mark.sim_only

GOLDEN = Path(__file__).parent / "golden" / "sim_fingerprint.json"

#: tight timers so the runs converge in little virtual time
RETRY = RetryPolicy(
    timeout=0.4,
    max_attempts=12,
    insert_timeout=0.1,
    max_insert_retries=8,
    query_deadline=0.3,
    backoff_base=0.02,
    backoff_factor=1.5,
    backoff_jitter=0.005,
)


def _cluster(schema, rows, **kw):
    kw.setdefault("num_servers", 1)
    kw.setdefault("tree_config", TreeConfig(leaf_capacity=32, fanout=8))
    kw.setdefault("retry", RETRY)
    kw.setdefault("heartbeat_period", 0.1)
    kw.setdefault("heartbeat_miss_k", 3)
    kw.setdefault("checkpoint_period", 0.4)
    kw.setdefault("seed", 3)
    cluster = VOLAPCluster(schema, ClusterConfig(**kw))
    cluster.observe(spans=False, profile_trees=False)  # per-kind counters
    cluster.bootstrap(random_batch(schema, rows, seed=3), shards_per_worker=2)
    return cluster


def _ops(schema, n, seed, query_every, max_staleness=None):
    """``n`` inserts with a full query after every ``query_every``."""
    batch = random_batch(schema, n, seed=seed)
    ops = []
    for i in range(n):
        ops.append(
            Operation(
                "insert", coords=batch.coords[i], measure=float(batch.measures[i])
            )
        )
        if (i + 1) % query_every == 0:
            q = full_query(schema)
            q.max_staleness = max_staleness
            ops.append(Operation("query", query=q))
    return ops


def _fingerprint(cluster):
    counters = cluster.metrics.snapshot()["counters"]

    def per_kind(name):
        return {
            row["labels"]["kind"]: int(row["value"])
            for row in counters[name]["series"]
        }

    counts = per_kind("volap_messages_total")
    sizes = per_kind("volap_message_bytes_total")
    storage = [w.storage for w in cluster.workers.values()]
    return {
        "events_processed": cluster.clock.events_processed,
        "messages_sent": cluster.transport.messages_sent,
        "bytes_sent": cluster.transport.bytes_sent,
        "kinds": {k: [counts[k], sizes[k]] for k in sorted(counts)},
        "total_items": cluster.total_items(),
        "failures": cluster.stats.failures,
        "splits": cluster.stats.splits,
        "migrations": cluster.stats.migrations,
        "promotions": len(cluster.stats.promotions),
        "spills": sum(s.spills for s in storage),
        "rehydrates": sum(s.rehydrates for s in storage),
        "now": repr(cluster.clock.now),
    }


def chaos():
    """Replicated ingest through size splits, then a primary crash and
    the promotions that heal it."""
    schema = make_schema()
    cluster = _cluster(
        schema,
        2000,
        num_workers=4,
        balancer=BalancerPolicy(
            max_shard_items=600, scan_period=0.1, op_timeout=2.0
        ),
        replication_factor=1,
        batch_size=16,
    )
    cluster.run_for(2.0)  # replicas seed
    ops = _ops(schema, 1500, seed=17, query_every=50)
    sess = cluster.session(0, concurrency=32)
    sess.run_stream(ops[:1000])
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.crash_worker(1)
    sess.run_stream(ops[1000:])
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(5.0)
    return cluster


def migrate_while_querying():
    """Forced migrations over a slow link while a session inserts and
    queries: rows pile into the hand-off queues and cross at cut-over."""
    schema = make_schema()
    cluster = _cluster(
        schema,
        2000,
        num_workers=3,
        latency=LatencyModel(base=0.01, bandwidth=2e5, jitter=1e-3),
        balancer=BalancerPolicy(
            max_shard_items=100_000, imbalance_ratio=100.0, scan_period=0.2,
            op_timeout=5.0,
        ),
        batch_size=8,
    )
    sess = cluster.session(0, concurrency=16)
    sess.run_stream(_ops(schema, 600, seed=19, query_every=25))
    for src in (0, 1):
        sid = sorted(cluster.workers[src].shards)[0]
        cluster.manager._start_migration(src, (src + 1) % 3, sid)
        cluster.run_for(0.5)
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(5.0)
    return cluster


def hot_budget():
    """A per-worker hot budget smaller than its two shards (so every
    worker keeps spilling one and lazily rehydrating it, on the insert
    and the query path), a bulk load, and a rollup tier fed by the
    insert stream."""
    schema = make_schema()
    cluster = _cluster(
        schema,
        1500,
        num_workers=3,
        balancer=BalancerPolicy(
            max_shard_items=100_000, scan_period=0.1, op_timeout=2.0
        ),
        hot_budget_bytes=24_000,
        rollup=RollupConfig(admit_after=1),
        batch_size=4,
    )
    cluster.bulk_load(random_batch(schema, 400, seed=29), chunk=128)
    sess = cluster.session(0, concurrency=8)
    sess.run_stream(_ops(schema, 300, seed=23, query_every=10, max_staleness=1.0))
    cluster.run_until_clients_done(max_virtual=300.0)
    for box in random_boxes(schema, 6, seed=5):
        cluster.execute(Query(box, coverage=0.5))
    cluster.run_for(2.0)
    return cluster


SCENARIOS = {
    "chaos": chaos,
    "migrate_while_querying": migrate_while_querying,
    "hot_budget": hot_budget,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sim_fingerprint_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = _fingerprint(SCENARIOS[name]())
    assert got == want


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: _fingerprint(run()) for name, run in sorted(SCENARIOS.items())},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
