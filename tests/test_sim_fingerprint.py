"""Sim fingerprints: refactors must leave the simulation bit-identical.

Each scenario below is a seeded run on the discrete-event runtime whose
observable trace -- events processed (live firings: a timeout cancelled
with its op is not an event), messages and bytes sent, the
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
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import (
    BalancerPolicy,
    ClusterConfig,
    FaultPlan,
    MemoryPressurePolicy,
    RetryPolicy,
    RollupConfig,
    VOLAPCluster,
)
from repro.cluster import wire
from repro.cluster.transport import LatencyModel, Message, Transport
from repro.cluster.wire import PromoteShard, ReplicateShard
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


def restore_and_abort():
    """A crash with no replica to promote (checkpoint restores), the
    restarted worker's rejoin, then two wedged migrations: one whose
    ``migrate_in`` arrives after the manager gave up (the source aborted,
    so the late destination copy is dropped), one whose ``migrate_in``
    never arrives."""
    schema = make_schema()
    cluster = _cluster(
        schema,
        1500,
        num_workers=3,
        balancer=BalancerPolicy(
            max_shard_items=100_000, imbalance_ratio=100.0, scan_period=0.1,
            op_timeout=1.0,
        ),
        batch_size=8,
    )
    cluster.run_for(1.0)  # first checkpoints
    sess = cluster.session(0, concurrency=8)
    sess.run_stream(_ops(schema, 300, seed=31, query_every=20))
    cluster.crash_worker(2)
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(2.0)
    cluster.restart_worker(2)
    cluster.run_for(1.0)
    now = cluster.clock.now
    cluster.inject_faults(
        FaultPlan()
        .delay(1.0, extra=1.5, kinds={"migrate_in"}, end=now + 0.5)
        .drop(1.0, kinds={"migrate_in"}, start=now + 0.5, end=now + 3.0),
        seed=5,
    )
    cluster.manager._start_migration(0, 1, sorted(cluster.workers[0].shards)[0])
    cluster.run_for(1.0)
    cluster.manager._start_migration(1, 0, sorted(cluster.workers[1].shards)[0])
    sess.run_stream(_ops(schema, 100, seed=37, query_every=20))
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(4.0)
    return cluster


def handoff():
    """A replicated primary cut off from Zookeeper, the manager and its
    peers -- but not from the server -- past the heartbeat TTL: it keeps
    applying inserts its replicas never see, is declared dead, and after
    the heal demotes itself and hands the unacknowledged stream suffix to
    the promoted owner (the first hand-off is dropped and retransmitted)."""
    schema = make_schema()
    cluster = _cluster(
        schema,
        1500,
        num_workers=3,
        balancer=BalancerPolicy(
            max_shard_items=100_000, imbalance_ratio=100.0, scan_period=0.1,
            op_timeout=2.0,
        ),
        replication_factor=1,
        batch_size=8,
    )
    cluster.run_for(2.0)  # replicas seed
    sess = cluster.session(0, concurrency=16)
    sess.run_stream(_ops(schema, 600, seed=41, query_every=40))
    cluster.run_for(0.05)
    heal = cluster.clock.now + 0.8
    cluster.inject_faults(
        FaultPlan()
        .partition("worker-0", "zookeeper", end=heal)
        .partition("worker-0", "worker-*", end=heal)
        .partition("worker-0", "manager", end=heal)
        .drop(1.0, kinds={"primary_handoff"}, end=heal + 0.15),
        seed=7,
    )
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(5.0)
    return cluster


def memory_pressure():
    """Policy-driven residency: ``MemoryPressurePolicy`` in byte mode
    spills every worker under its budget while a session inserts and
    queries (lazy rehydrates, re-spills), the budget is raised and the
    policy pulls the WARM shards back, then one refusal of each kind:
    spill/rehydrate/promote/replicate for shards the worker lacks."""
    schema = make_schema()
    policy = MemoryPressurePolicy(
        max_shard_items=100_000, scan_period=0.1, op_timeout=2.0,
        worker_budget_bytes=30_000,
    )
    cluster = _cluster(
        schema,
        1500,
        num_workers=3,
        balancer=policy,
        hot_budget_bytes=1 << 30,  # never binds; makes workers report bytes
        batch_size=4,
    )
    cluster.run_for(1.0)
    sess = cluster.session(0, concurrency=8)
    sess.run_stream(_ops(schema, 200, seed=43, query_every=25))
    cluster.run_until_clients_done(max_virtual=300.0)
    cluster.run_for(1.0)
    cluster.manager.policy = replace(policy, worker_budget_bytes=200_000)
    cluster.run_for(1.0)
    m = cluster.manager
    m._start_spill(1, 424242)
    m._start_rehydrate(2, 424243)
    w0 = cluster.workers[0]
    cluster.transport.send(
        w0, Message("promote_shard", PromoteShard(424244, 1, m), sender=m)
    )
    cluster.transport.send(
        w0,
        Message(
            "replicate_shard",
            ReplicateShard(424245, cluster.workers[1], 1, m),
            sender=m,
        ),
    )
    cluster.run_for(1.0)
    return cluster


SCENARIOS = {
    "chaos": chaos,
    "migrate_while_querying": migrate_while_querying,
    "hot_budget": hot_budget,
    "restore_and_abort": restore_and_abort,
    "handoff": handoff,
    "memory_pressure": memory_pressure,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sim_fingerprint_matches_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = _fingerprint(SCENARIOS[name]())
    assert got == want


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_payload_sent_is_declared(name, monkeypatch):
    """Every message a scenario sends carries the ``wire.py``
    declaration of its kind: no positional tuple is left on the wire."""
    undeclared = Counter()
    send = Transport.send

    def spy(self, dst, msg):
        if type(msg.payload) is not wire.MESSAGES.get(msg.kind):
            undeclared[msg.kind, type(msg.payload).__name__] += 1
        send(self, dst, msg)

    monkeypatch.setattr(Transport, "send", spy)
    SCENARIOS[name]()
    assert not undeclared


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: _fingerprint(run()) for name, run in sorted(SCENARIOS.items())},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
